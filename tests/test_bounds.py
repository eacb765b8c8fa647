import re
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tomobound.bounds import (
    Scenario,
    bound,
    bound_from_nmax,
    bound_multi_flexible,
    bound_single_server,
    i_max,
    n_max_flexible_exact,
    psi_tree,
    z_fb,
)
from tomobound.identifiability import one_identifiable_set, testing_matrix
from tomobound.model import PathSet


def i_max_by_scan(m: int, nmax: int) -> int:
    """Independent re-derivation: literal max-k scan of the defining inequality."""
    best = 0
    for k in range(1, m + 1):
        if sum(i * comb(m, i) for i in range(1, k + 1)) <= nmax:
            best = k
    return best


class TestNmax:
    def test_arbitrary_avg_example_a(self):
        assert bound(Scenario.ARBITRARY_AVG, 4, None, 3).n_max == 12

    def test_arbitrary_avg_example_b(self):
        assert bound(Scenario.ARBITRARY_AVG, 4, None, Fraction(17, 4)).n_max == 17

    def test_consistent_avg(self):
        # 8 * min(8.75, 14) = 70; the final bound 38 is cross-checked below
        assert bound(Scenario.CONSISTENT_AVG, 8, None, Fraction(35, 4)).n_max == 70

    def test_partial_q1_equals_consistent(self):
        for m in range(1, 13):
            for d in range(1, 65):
                assert bound(Scenario.PARTIAL_CONSISTENT, m, None, d, q=1).n_max == bound(
                    Scenario.CONSISTENT_AVG, m, None, d
                ).n_max

    def test_multi_fixed_hand_evaluated(self):
        # sum over two servers of (9+9-2)/2 + 2*3*3 = 8+18 per server
        assert bound(Scenario.MULTI_FIXED, 6, None, 20, m_s=(3, 3)).n_max == min(120, 52)

    def test_non_integral_budget_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            bound(Scenario.ARBITRARY_AVG, 3, None, Fraction(17, 4))

    def test_clients_exceed_slots(self):
        with pytest.raises(ValueError, match="exceed"):
            bound(Scenario.MULTI_FIXED, 7, None, 20, m_s=(3, 3))


class TestImax:
    def test_example_a(self):
        assert i_max(4, 12) == 1

    def test_example_b(self):
        assert i_max(4, 17) == 2

    def test_m8_budget70(self):
        # cumulative weighted layer sizes: 8 then 64 <= 70, 232 > 70
        assert sum(i * comb(8, i) for i in range(1, 3)) == 64
        assert sum(i * comb(8, i) for i in range(1, 4)) == 232
        assert i_max(8, 70) == 2

    def test_zero_when_budget_below_m(self):
        assert i_max(5, 4) == 0

    def test_caps_at_m(self):
        assert i_max(3, 10**9) == 3

    def test_matches_independent_scan(self):
        for m in range(1, 13):
            for nmax in range(0, m * (1 << (m - 1)) + 2, max(1, m)):
                assert i_max(m, nmax) == i_max_by_scan(m, nmax)


class TestBoundFromNmax:
    def test_example_a(self):
        assert bound_from_nmax(4, 100, 12) == 8

    def test_example_b(self):
        assert bound_from_nmax(4, 100, 17) == 10

    def test_consistent_example(self):
        assert bound_from_nmax(8, 100, 70) == 38

    def test_n_cap(self):
        assert bound_from_nmax(3, 2, 10**9) == 2

    def test_unbounded_reduction(self):
        # a full budget reduces the layer formula to 2^m - 1
        for m in range(1, 14):
            assert bound_from_nmax(m, None, m * (1 << (m - 1))) == (1 << m) - 1


class TestZfbPsiTree:
    def test_z_fb_values(self):
        assert z_fb(48) == 95
        assert z_fb(0) == 0
        assert z_fb(1) == 1

    def test_psi_tree_small(self):
        assert psi_tree(1) == 1
        assert psi_tree(2) == 4
        assert psi_tree(6) == 26

    def test_psi_tree_caterpillar_cross_check(self):
        # the unbalanced full binary tree: paths hold 2,3,...,m then m
        # identifiable nodes, summing to the closed form
        for m in range(2, 12):
            caterpillar = sum(range(2, m + 1)) + m
            assert psi_tree(m) == caterpillar
        assert psi_tree(6) == 26

    def test_psi_tree_rejects_zero(self):
        with pytest.raises(ValueError):
            psi_tree(0)


class TestSingleServer:
    def test_full_tree_branch(self):
        assert bound_single_server(48, 95, 7).bound == 95

    def test_depth_capped_branch(self):
        assert bound_single_server(48, 73, 3).bound == 73

    def test_single_client(self):
        assert bound_single_server(1, 10, 5).bound == 1

    def test_branch_threshold_exact(self):
        # d_max >= ceil(log2 m) + 1 always yields min(n, z_fb(m))
        for m in range(1, 40):
            threshold = (m - 1).bit_length() + 1
            for d_max in range(max(2, threshold), threshold + 3):
                assert bound_single_server(m, None, d_max).bound == z_fb(m)

    def test_invalid_dmax(self):
        with pytest.raises(ValueError):
            bound_single_server(4, 10, 0)
        with pytest.raises(ValueError):
            bound_single_server(4, 10, 1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match=r"n must be >= 0, got n=-1"):
            bound_single_server(4, -1, 4)
        assert bound_single_server(4, 0, 4).bound == 0


class TestMultiServer:
    def test_fixed_derived_example(self):
        r = bound(Scenario.MULTI_FIXED, 6, 108, 20, m_s=(3, 3))
        assert r.n_max == 52
        assert r.i_max == 2
        assert r.bound == 26

    def test_single_server_collapse(self):
        for m in range(1, 13):
            r = bound(Scenario.MULTI_FIXED, m, None, 10**6, m_s=(m,))
            assert r.n_max == psi_tree(m)

    def test_flexible_s1_is_psi_tree(self):
        r = bound_multi_flexible(4, 1, None, 10**6)
        assert r.n_max == 13
        assert r.i_max == 1
        assert r.bound == 8

    def test_flexible_matches_even_split(self):
        r = bound_multi_flexible(6, 2, None, 20)
        assert r.n_max == 52
        assert r.bound == bound(Scenario.MULTI_FIXED, 6, None, 20, m_s=(3, 3)).bound == 26

    def test_flexible_dominates_all_splits(self):
        # relaxation dominates every positive integer split summing to m,
        # through the whole pipeline (every server has a client, so s <= m)
        for m in range(1, 13):
            for s in range(1, min(m, 4) + 1):
                flexible = bound_multi_flexible(m, s, None, 10**6)
                for split in combinations_with_replacement(range(1, m + 1), s):
                    if sum(split) != m:
                        continue
                    fixed = bound(Scenario.MULTI_FIXED, m, None, 10**6, m_s=split)
                    assert fixed.n_max <= flexible.n_max
                    assert fixed.bound <= flexible.bound

    def test_flexible_tight_at_even_integer_split(self):
        # the relaxation peaks at m_s = m/S, so it is attained exactly whenever
        # that split is integral; for other (m, S) it stays a strict relaxation
        # (e.g. m=6, S=4 gives 30 vs 29 over integer splits)
        for m in range(1, 13):
            for s in range(1, min(m, 4) + 1):
                best = max(
                    bound(Scenario.MULTI_FIXED, m, None, 10**6, m_s=split).bound
                    for split in combinations_with_replacement(range(1, m + 1), s)
                    if sum(split) == m
                )
                flexible = bound_multi_flexible(m, s, None, 10**6).bound
                assert flexible >= best
                if m % s == 0:
                    assert flexible == best

    @pytest.mark.parametrize("m_s", [(2, 0, 0), (1, 0), (3, -1)])
    def test_idle_server_rejected(self, m_s):
        with pytest.raises(ValueError, match=re.escape(f"got m_s={list(m_s)}")):
            bound(Scenario.MULTI_FIXED, 2, 6, 2, m_s=m_s)

    def test_idle_server_counterexample_within_bound(self):
        # two clients of one server identify 3 nodes; the bound with the idle
        # servers (2, 0, 0) used to say 2, the one-server vector (2,) says 3
        ps = PathSet.from_sequences([[5, 1], [0, 1]])
        phi1 = one_identifiable_set(testing_matrix(ps, 6))[0]
        assert phi1 == 3
        assert bound(Scenario.MULTI_FIXED, 2, 6, 2, m_s=(2,)).bound == 3

    def test_surplus_slots_rejected(self):
        # m_s=(3,) for m=2 read 2, below the 3 nodes the same two paths identify
        ps = PathSet.from_sequences([[5, 1], [0, 1]])
        assert one_identifiable_set(testing_matrix(ps, 6))[0] == 3
        with pytest.raises(ValueError, match=re.escape("client slots m_s=[3] sum to more than the m=2")):
            bound(Scenario.MULTI_FIXED, 2, 6, 2, m_s=(3,))

    def test_idle_flexible_servers_rejected(self):
        # S=20 for m=2 read 0 (n_max_exact -93/10), yet both clients on one
        # server, paths [0, 2] and [1, 2], identify 3 nodes
        ps = PathSet.from_sequences([[0, 2], [1, 2]])
        assert one_identifiable_set(testing_matrix(ps, 6))[0] == 3
        assert bound_multi_flexible(2, 1, 6, 2).bound == 3
        with pytest.raises(ValueError, match=re.escape("S=20 servers exceed the m=2 clients")):
            bound_multi_flexible(2, 20, 6, 2)
        with pytest.raises(ValueError, match="S=3"):
            n_max_flexible_exact(2, 3, 2)

    def test_uneven_split_strictly_smaller(self):
        even = bound(Scenario.MULTI_FIXED, 5, None, 10**6, m_s=(3, 2)).n_max
        uneven = bound(Scenario.MULTI_FIXED, 5, None, 10**6, m_s=(4, 1)).n_max
        assert uneven < even

    def test_prefloor_rational_recorded(self):
        r = bound_multi_flexible(3, 2, None, 100)
        exact = n_max_flexible_exact(3, 2, 100)
        assert exact.denominator > 1
        assert r.n_max == exact.numerator // exact.denominator
        assert r.n_max_exact == exact


class TestBoundDispatch:
    def test_consistent_39_node_instance(self):
        assert bound("consistent-avg", 7, 39, Fraction(82, 7)).bound == 39

    def test_arbitrary_unbounded(self):
        assert bound("arbitrary-unbounded", 3, 100).bound == 7

    def test_half_grid_instance(self):
        assert bound("consistent-avg", 8, 36, 8).bound == 36

    def test_power_of_two_caps_match_literal_formula(self):
        # either side of where the 2^(m-1) and 2^m caps start to bind
        for m in range(1, 11):
            for d in range(1, (1 << (m - 1)) + 3):
                assert bound("arbitrary-avg", m, None, d).n_max == min(m * d, m << (m - 1))
            for n in range((1 << m) + 2):
                assert bound("arbitrary-unbounded", m, n).bound == min(n, (1 << m) - 1)

    @pytest.mark.parametrize(
        "scenario, d, q",
        [("arbitrary-avg", 3, None), ("arbitrary-max", 3, None),
         ("partial-consistent", 3, 2), ("arbitrary-unbounded", None, None)],
    )
    def test_huge_m_builds_no_power_of_two(self, scenario, d, q):
        # n caps the result at 5, and 2^(m-1) or 2^m alone would take 25-51 MiB
        m = 2 * 10**8
        tracemalloc.start()
        try:
            r = bound(scenario, m, 5, d=d, q=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.bound == 5
        assert r.n_max == (None if d is None else 3 * m)
        assert peak < 1 << 20

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            bound("consistent-avg", 4, 100)
        with pytest.raises(ValueError):
            bound("partial-consistent", 4, 100, d=12)
        with pytest.raises(ValueError):
            bound("multi-flexible", 4, 100, d=12)

    def test_m1_consistent_warns(self):
        with pytest.warns(UserWarning, match="m>1"):
            r = bound("consistent-avg", 1, 10, d=5)
        assert r.n_max == 0
        assert r.bound == 0
        assert r.notes

    def test_ar_cr_agreement_pattern(self):
        # with d = 12: equal for m in {2,3}, strictly larger under arbitrary
        # routing for m in {4,5,6}, equal again from m = 7 on
        for m in range(2, 25):
            ar = bound("arbitrary-max", m, 78, 12).bound
            cr = bound("consistent-max", m, 78, 12).bound
            if m in (2, 3) or m >= 7:
                assert ar == cr, m
            else:
                assert ar > cr, m

    def test_json_dict_round_trips_fractions(self):
        r = bound("consistent-avg", 7, 39, Fraction(82, 7))
        d = r.as_json_dict()
        assert d["d"] == "82/7"
        assert d["bound"] == 39


class TestDominanceAndMonotonicity:
    def test_dominance_chain(self):
        for m in range(1, 17):
            for d in (1, 3, 12, 40, 64):
                ar = bound("arbitrary-avg", m, None, d).bound
                cr = bound("consistent-avg", m, None, d).bound
                prev = cr
                for q in (1, 2, 3, 8, 1 << max(0, m - 3)):
                    pq = bound("partial-consistent", m, None, d, q=q).bound
                    assert cr <= pq <= ar
                    assert pq >= prev  # nondecreasing in q
                    prev = pq
                assert bound("partial-consistent", m, None, d, q=1).bound == cr

    def test_partial_saturates_at_arbitrary(self):
        for m in range(2, 12):
            q = 1 << (m - 1)  # 2q(m-1) >= 2^(m-1) for sure
            for d in (1, 5, 200, 10**6):
                dd = Fraction(d)
                if (m * dd).denominator != 1:
                    continue
                assert (
                    bound("partial-consistent", m, None, dd, q=q).bound
                    == bound("arbitrary-avg", m, None, dd).bound
                )

    def test_monotone_in_m_n_d(self):
        cases = [
            ("arbitrary-avg", {}),
            ("arbitrary-max", {}),
            ("consistent-avg", {}),
            ("consistent-max", {}),
            ("partial-consistent", {"q": 2}),
            ("multi-flexible", {"s": 2}),
        ]
        for scenario, kw in cases:
            prev_by_d: dict[int, int] = {}
            for m in range(2, 17):
                prev = None
                for d in range(1, 65, 7):
                    val = bound(scenario, m, 1000, d, **kw).bound
                    if prev is not None:
                        assert val >= prev  # monotone in d
                    prev = val
                    if d in prev_by_d:
                        assert val >= prev_by_d[d]  # monotone in m
                    prev_by_d[d] = val
        for n in (5, 10, 40, 100):
            assert bound("consistent-avg", 6, n, 12).bound <= n

    def test_single_server_monotone(self):
        for d_max in range(2, 10):
            values = [bound_single_server(m, 500, d_max).bound for m in range(1, 50)]
            assert values == sorted(values)
        for m in (2, 7, 48):
            values = [bound_single_server(m, 500, d_max).bound for d_max in range(2, 12)]
            assert values == sorted(values)


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(1, 16),
    n=st.integers(1, 500),
    d=st.integers(1, 64),
)
def test_bound_never_exceeds_n(m, n, d):
    for scenario in ("arbitrary-avg", "arbitrary-max", "consistent-avg", "consistent-max"):
        assert bound(scenario, m, n, d).bound <= n
    assert bound("arbitrary-unbounded", m, n).bound <= min(n, (1 << m) - 1)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 14), d=st.integers(1, 64), q=st.integers(1, 10))
def test_partial_between_cr_and_ar(m, d, q):
    pq = bound("partial-consistent", m, None, d, q=q).bound
    assert bound("consistent-avg", m, None, d).bound <= pq
    assert pq <= bound("arbitrary-avg", m, None, d).bound
