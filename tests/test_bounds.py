import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tomobound import bounds
from tomobound.bounds import (
    Scenario,
    bound,
    bound_single_server,
    layer_bound,
    psi_tree,
    z_fb,
)
from tomobound.identifiability import one_identifiable_set, testing_matrix
from tomobound.model import PathSet, build_graph
from tomobound.routing import consistent_shortest_paths, shortest_path_tree, walk_to_root


def i_max_by_scan(m: int, nmax: int) -> int:
    """Independent re-derivation: literal max-k scan of the defining inequality."""
    best = 0
    for k in range(1, m + 1):
        if sum(i * comb(m, i) for i in range(1, k + 1)) <= nmax:
            best = k
    return best


def bound_from_nmax_by_sums(m: int, n: int | None, nmax: int) -> int:
    """Independent re-derivation: the layer formula with every binomial from comb."""
    k = i_max_by_scan(m, nmax)
    layers = sum(comb(m, i) for i in range(1, k + 1))
    spent = sum(i * comb(m, i) for i in range(1, k + 1))
    value = layers + (nmax - spent) // (k + 1)
    return value if n is None else min(value, n)


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
        assert layer_bound(4, None, 12)[0] == 1

    def test_example_b(self):
        assert layer_bound(4, None, 17)[0] == 2

    def test_m8_budget70(self):
        # cumulative weighted layer sizes: 8 then 64 <= 70, 232 > 70
        assert sum(i * comb(8, i) for i in range(1, 3)) == 64
        assert sum(i * comb(8, i) for i in range(1, 4)) == 232
        assert layer_bound(8, None, 70)[0] == 2

    def test_zero_when_budget_below_m(self):
        assert layer_bound(5, None, 4)[0] == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^N_max must be nonnegative$"):
            layer_bound(5, None, -1)

    def test_caps_at_m(self):
        assert layer_bound(3, None, 10**9)[0] == 3

    def test_matches_independent_scan(self):
        for m in range(1, 13):
            for nmax in range(0, m * (1 << (m - 1)) + 2, max(1, m)):
                assert layer_bound(m, None, nmax)[0] == i_max_by_scan(m, nmax)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.data())
def test_layer_pass_matches_comb_sums(m, data):
    # a log-uniform budget reaches every layer, up to past the full m*2^(m-1)
    nmax = data.draw(st.integers(0, 2 ** data.draw(st.integers(0, m + 6))))
    n = data.draw(st.none() | st.integers(0, 1 << m))
    assert layer_bound(m, None, nmax)[0] == i_max_by_scan(m, nmax)
    assert layer_bound(m, n, nmax)[1] == bound_from_nmax_by_sums(m, n, nmax)


def test_huge_budget_takes_no_binomial_per_layer(monkeypatch):
    # tomobound bound --scenario arbitrary --m 20000 --dbar 1e4000 --n 5: with a
    # comb(m, k) call per layer, its 3,462 layers took about 12 s
    calls = []

    def counting_comb(*args):
        calls.append(args)
        return comb(*args)

    monkeypatch.setattr(bounds, "comb", counting_comb, raising=False)
    monkeypatch.setattr(math, "comb", counting_comb)
    r = bound(Scenario.ARBITRARY_AVG, 20000, 5, 10**4000)
    assert (r.i_max, r.bound) == (3462, 5)
    assert calls == []


class TestBoundFromNmax:
    def test_example_a(self):
        assert layer_bound(4, 100, 12)[1] == 8

    def test_example_b(self):
        assert layer_bound(4, 100, 17)[1] == 10

    def test_consistent_example(self):
        assert layer_bound(8, 100, 70)[1] == 38

    def test_n_cap(self):
        assert layer_bound(3, 2, 10**9)[1] == 2

    def test_unbounded_reduction(self):
        # a full budget reduces the layer formula to 2^m - 1
        for m in range(1, 14):
            assert layer_bound(m, None, m * (1 << (m - 1)))[1] == (1 << m) - 1


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
        r = bound(Scenario.MULTI_FLEXIBLE, 4, None, 10**6, s=1)
        assert r.n_max == 13
        assert r.i_max == 1
        assert r.bound == 8

    def test_flexible_matches_even_split(self):
        r = bound(Scenario.MULTI_FLEXIBLE, 6, None, 20, s=2)
        assert r.n_max == 52
        assert r.bound == bound(Scenario.MULTI_FIXED, 6, None, 20, m_s=(3, 3)).bound == 26

    def test_flexible_dominates_all_splits(self):
        # relaxation dominates every positive integer split summing to m,
        # through the whole pipeline (every server has a client, so s <= m)
        for m in range(1, 13):
            for s in range(1, min(m, 4) + 1):
                flexible = bound(Scenario.MULTI_FLEXIBLE, m, None, 10**6, s=s)
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
                flexible = bound(Scenario.MULTI_FLEXIBLE, m, None, 10**6, s=s).bound
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
        assert bound(Scenario.MULTI_FLEXIBLE, 2, 6, 2, s=1).bound == 3
        with pytest.raises(ValueError, match=re.escape("S=20 servers exceed the m=2 clients")):
            bound(Scenario.MULTI_FLEXIBLE, 2, 6, 2, s=20)
        with pytest.raises(ValueError, match="S=3"):
            bound(Scenario.MULTI_FLEXIBLE, 2, None, 2, s=3)
        with pytest.raises(ValueError, match="^S must be >= 1$"):
            bound(Scenario.MULTI_FLEXIBLE, 2, None, 2, s=0)
        # S is checked before d: the S-range errors come first
        with pytest.raises(ValueError, match="S=3"):
            bound(Scenario.MULTI_FLEXIBLE, 2, None, -1, s=3)
        with pytest.raises(ValueError, match="^d must be positive$"):
            bound(Scenario.MULTI_FLEXIBLE, 2, None, -1, s=1)

    def test_uneven_split_strictly_smaller(self):
        even = bound(Scenario.MULTI_FIXED, 5, None, 10**6, m_s=(3, 2)).n_max
        uneven = bound(Scenario.MULTI_FIXED, 5, None, 10**6, m_s=(4, 1)).n_max
        assert uneven < even

    def test_prefloor_rational_recorded(self):
        # min{3*100, 9(2 - 3/4) + 9/2 - 2} = 55/4
        r = bound(Scenario.MULTI_FLEXIBLE, 3, None, 100, s=2)
        assert r.n_max_exact == Fraction(55, 4)
        assert r.n_max == 13


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

    @pytest.mark.parametrize(
        "scenario, m, d, message",
        [("arbitrary-avg", 0, 3, "m must be >= 1"),
         ("single-server", 4, Fraction(7, 2), "single-server d_max must be an integer")],
        ids=["m-zero", "fractional-dmax"],
    )
    def test_bad_parameter_named(self, scenario, m, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            bound(scenario, m, 100, d=d)

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            bound("consistent-avg", 4, 100)
        with pytest.raises(ValueError):
            bound("partial-consistent", 4, 100, d=12)
        with pytest.raises(ValueError):
            bound("multi-flexible", 4, 100, d=12)

    @pytest.mark.parametrize(
        "scenario, given, unread",
        [("consistent-avg", {"q": 2}, "q"), ("arbitrary-unbounded", {"s": 1}, "s"),
         ("partial-consistent", {"q": 2, "m_s": (2, 2)}, "m_s"),
         ("multi-fixed", {"m_s": (2, 2), "s": 2}, "s"), ("multi-flexible", {"s": 2, "q": 1}, "q")],
    )
    def test_unread_input_rejected(self, scenario, given, unread):
        with pytest.raises(ValueError, match=f"^scenario {scenario} does not read {unread}$"):
            bound(scenario, 4, 50, d=3, **given)

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

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python turns ints of any length into text",
    )
    def test_json_dict_names_a_field_too_long_to_print(self):
        limit = sys.get_int_max_str_digits()
        # the longest d Python prints has exactly `limit` digits
        assert json.loads(json.dumps(bound("consistent-avg", 2, 5, 10**limit - 1).as_json_dict()))
        with pytest.raises(ValueError, match=rf"^d has more than {limit} decimal digits"):
            bound("consistent-avg", 2, 5, 10**limit).as_json_dict()
        with pytest.raises(ValueError, match=rf"^d has more than {limit} decimal digits"):
            bound("consistent-avg", 10**limit, 5, Fraction(1, 10**limit)).as_json_dict()
        with pytest.raises(ValueError, match=r"^m\*d is not an integer"):
            bound("consistent-avg", 3, 5, Fraction(1, 10**limit))


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


# ---------------------------------------------------------------------------
# The bounds hold on instances the package did not build: phi1 never exceeds
# any bound whose scenario the instance meets.
# ---------------------------------------------------------------------------


def phi1(ps: PathSet, n: int) -> int:
    return one_identifiable_set(testing_matrix(ps, n))[0]


def arbitrary_bounds(ps: PathSet) -> dict[str, int]:
    """The bounds that hold under any routing, at the path set's exact average
    and maximum length (in nodes), and with no length at all; none is capped
    by the node count, which phi1 cannot exceed anyway."""
    m, lengths = ps.m, ps.lengths()
    return {
        "arbitrary-avg": bound("arbitrary-avg", m, None, Fraction(sum(lengths), m)).bound,
        "arbitrary-max": bound("arbitrary-max", m, None, max(lengths)).bound,
        "arbitrary-unbounded": bound("arbitrary-unbounded", m, None).bound,
    }


def consistent_bounds(ps: PathSet) -> dict[str, int]:
    """The arbitrary bounds, and those that need consistent routing (m >= 2),
    which also makes the routing 1/q-consistent for every q."""
    m, lengths = ps.m, ps.lengths()
    avg = Fraction(sum(lengths), m)
    return {
        **arbitrary_bounds(ps),
        "consistent-avg": bound("consistent-avg", m, None, avg).bound,
        "consistent-max": bound("consistent-max", m, None, max(lengths)).bound,
        **{f"partial q={q}": bound("partial-consistent", m, None, avg, q=q).bound for q in (1, 2)},
    }


@st.composite
def connected_graphs(draw, max_nodes: int = 12):
    """A random spanning tree over 2..max_nodes nodes plus random chords, so
    that equal-hop routes tie."""
    n = draw(st.integers(2, max_nodes))
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return build_graph(tree + draw(st.lists(pairs, max_size=2 * n)), node_count=n)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_consistent_shortest_paths_within_bounds(data):
    g = data.draw(connected_graphs())
    node = st.integers(0, g.node_count - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), min_size=2, max_size=8))
    ps = consistent_shortest_paths(g, pairs)
    found = phi1(ps, g.node_count)
    for name, value in consistent_bounds(ps).items():
        assert found <= value, (name, pairs, ps.paths)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spt_client_tree_within_single_server_bound(data):
    g = data.draw(connected_graphs(16))
    server = data.draw(st.integers(0, g.node_count - 1))
    others = [u for u in range(g.node_count) if u != server]
    clients = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=15, unique=True))
    parent = shortest_path_tree(g, server)
    ps = PathSet.from_sequences(walk_to_root(parent, c) for c in clients)
    found = phi1(ps, g.node_count)
    # the client paths form a tree, so every routing bound applies, and so does
    # the single-server bound at the longest path
    assert found <= bound_single_server(ps.m, None, max(ps.lengths())).bound, ps.paths
    if ps.m >= 2:
        for name, value in consistent_bounds(ps).items():
            assert found <= value, (name, ps.paths)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_node_sequences_within_arbitrary_bounds(data):
    # any sequences at all, nodes repeated within a path included
    n = data.draw(st.integers(1, 12))
    path = st.lists(st.integers(0, n - 1), min_size=1, max_size=10)
    ps = PathSet.from_sequences(data.draw(st.lists(path, min_size=1, max_size=7)))
    found = phi1(ps, n)
    for name, value in arbitrary_bounds(ps).items():
        assert found <= value, (name, ps.paths)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_server_forest_within_multi_server_bounds(data):
    # each server routes its clients over its own shortest-path tree, and the
    # paths are grouped by server as the per-server client counts say
    g = data.draw(connected_graphs())
    nodes = range(g.node_count)
    servers = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    pairs, m_s = [], []
    for server in servers:
        others = [u for u in nodes if u != server]
        clients = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=4, unique=True))
        pairs += [(server, c) for c in clients]
        m_s.append(len(clients))
    ps = consistent_shortest_paths(g, pairs)
    found = phi1(ps, g.node_count)
    avg = Fraction(sum(ps.lengths()), ps.m)
    assert found <= bound("multi-fixed", ps.m, None, avg, m_s=m_s).bound, (m_s, ps.paths)
    assert found <= bound("multi-flexible", ps.m, None, avg, s=len(servers)).bound, ps.paths
    if ps.m >= 2:
        for name, value in consistent_bounds(ps).items():
            assert found <= value, (name, ps.paths)
