import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_force_k_identifiable, brute_force_k_identifiable_set, random_instance
from tomobound.identifiability import (
    OracleTooLargeError,
    column_run_counts,
    encoding_string,
    k_identifiable_set,
    one_identifiable_set,
    path_matrix,
    testing_matrix,
)
from tomobound.construct import half_grid, ica
from tomobound.fixtures import load_instance
from tomobound.model import PathSet


def cols_as_strings(t):
    return [encoding_string(c, t.m) for c in t.columns]


class TestTestingMatrix:
    def test_two_crossing_paths(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1], [1, 2]]), 3)
        assert cols_as_strings(t) == ["10", "11", "01"]

    def test_ica_example_columns(self):
        inst = ica(4, 3)
        t = testing_matrix(inst.paths, inst.graph.node_count)
        assert set(cols_as_strings(t)) == {
            "1000", "0100", "0010", "0001", "1100", "0011", "1010", "0101",
        }
        assert len(set(t.columns)) == 8

    def test_uncovered_node_zero_column(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1]]), 3)
        assert t.columns[2] == 0

    def test_duplicate_mentions_collapse(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1, 0]]), 2)
        assert t.columns[0] == 1
        # row 0 has two distinct nodes despite three mentions
        assert sum(1 for c in t.columns if c & 1) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            testing_matrix(PathSet.from_sequences([[0, 3]]), 3)

    def test_row_has_di_ones_for_simple_paths(self):
        rng = random.Random(1)
        for _ in range(20):
            g, ps = random_instance(rng)
            t = testing_matrix(ps, g.node_count)
            for i, p in enumerate(ps.paths):
                assert sum(1 for c in t.columns if c >> i & 1) == len(p)

    def test_membership_matches_bits(self):
        rng = random.Random(2)
        for _ in range(20):
            g, ps = random_instance(rng)
            t = testing_matrix(ps, g.node_count)
            for j in range(t.n):
                for i, p in enumerate(ps.paths):
                    assert bool(t.columns[j] >> i & 1) == (j in set(p.nodes))


class TestCrossingNumber:
    """The crossing number of a node is the bit count of its encoding."""

    def test_zero(self):
        assert encoding_string(0, 4) == "0000"
        assert (0).bit_count() == 0

    def test_two(self):
        assert encoding_string(0b0011, 4) == "1100"
        assert (0b0011).bit_count() == 2

    def test_half_grid_values(self):
        hg = half_grid(8)
        t = testing_matrix(hg.paths, hg.graph.node_count)
        assert {c.bit_count() for c in t.columns} == {1, 2}

    def test_string_round_trip(self):
        bits = 0b01101
        assert encoding_string(bits, 5) == "10110"
        assert [i for i, c in enumerate(encoding_string(bits, 5)) if c == "1"] == [0, 2, 3]


class TestOneIdentifiable:
    def test_half_grid_all_identifiable(self):
        hg = half_grid(8)
        t = testing_matrix(hg.paths, 36)
        count, ident = one_identifiable_set(t)
        assert count == 36
        assert ident == frozenset(range(36))

    def test_single_path_duplicate_encodings(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1, 2]]), 3)
        assert one_identifiable_set(t) == (0, frozenset())

    def test_single_node_path(self):
        t = testing_matrix(PathSet.from_sequences([[0]]), 1)
        assert one_identifiable_set(t) == (1, frozenset({0}))

    def test_bundled_39_node_instance(self):
        g, ps = load_instance("seven_path39")
        t = testing_matrix(ps, g.node_count)
        assert one_identifiable_set(t)[0] == 39


class TestKIdentifiability:
    """The plus-shaped instance: paths <a,b> and <c,b> over nodes a=0, b=1, c=2."""

    @pytest.fixture
    def plus(self):
        return testing_matrix(PathSet.from_sequences([[0, 1], [2, 1]]), 3)

    def test_center_not_2_identifiable(self, plus):
        # F1={a,c} and F2={b} share the incident set of both paths
        assert 1 not in k_identifiable_set(plus, 2)[1]
        assert brute_force_k_identifiable(plus, 1, 2) is False

    def test_all_1_identifiable(self, plus):
        assert k_identifiable_set(plus, 1) == (3, frozenset(range(3)))
        assert one_identifiable_set(plus) == k_identifiable_set(plus, 1)

    def test_counts_match_brute_force(self, plus):
        # oracle-computed values: the arms fail at k=2 too (F1={x,b} vs F2={b})
        assert k_identifiable_set(plus, 1)[0] == 3
        assert k_identifiable_set(plus, 2) == (0, frozenset())
        assert brute_force_k_identifiable_set(plus, 2) == set()

    def test_zero_encoding_node_never_identifiable(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1]]), 3)
        for k in (1, 2, 3):
            assert 2 not in k_identifiable_set(t, k)[1]

    def test_disjoint_single_node_paths(self):
        m = 5
        ps = PathSet.from_sequences([[i] for i in range(m)])
        t = testing_matrix(ps, m)
        for k in range(1, m + 1):
            assert k_identifiable_set(t, k)[0] == m
        assert brute_force_k_identifiable_set(t, 3) == set(range(m))

    def test_k1_equals_one_identifiable_everywhere(self):
        rng = random.Random(7)
        for _ in range(30):
            g, ps = random_instance(rng)
            t = testing_matrix(ps, g.node_count)
            assert k_identifiable_set(t, 1) == one_identifiable_set(t)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(25):
            g, ps = random_instance(rng, max_n=8, max_m=3)
            t = testing_matrix(ps, g.node_count)
            for k in (1, 2):
                expected = brute_force_k_identifiable_set(t, k)
                assert k_identifiable_set(t, k)[1] == expected

    def test_monotone_in_k(self):
        rng = random.Random(13)
        for _ in range(20):
            g, ps = random_instance(rng, max_n=9, max_m=3)
            t = testing_matrix(ps, g.node_count)
            prev = None
            for k in (1, 2, 3):
                cur = k_identifiable_set(t, k)[1]
                if prev is not None:
                    assert cur <= prev
                prev = cur

    def test_work_cap_guard(self):
        ps = PathSet.from_sequences([list(range(40))])
        t = testing_matrix(ps, 40)
        with pytest.raises(OracleTooLargeError, match="oracle too large"):
            k_identifiable_set(t, 4, work_cap=1000)

    def test_half_grid_k3_within_default_cap(self):
        # 7,806 failure sets of size 1..3; C(36,3)^2 would be about 5.1e7
        hg = half_grid(8)
        t = testing_matrix(hg.paths, hg.graph.node_count)
        assert k_identifiable_set(t, 3)[1] == brute_force_k_identifiable_set(t, 3)

    def test_k_must_be_positive(self):
        t = testing_matrix(PathSet.from_sequences([[0]]), 1)
        with pytest.raises(ValueError):
            k_identifiable_set(t, 0)


class TestPathMatrix:
    def test_consistent10_pinned_matrix(self):
        g, ps = load_instance("consistent10")
        t = testing_matrix(ps, g.node_count)
        pm = path_matrix(ps, t, 2)
        rows = tuple(encoding_string(r, pm.m) for r in pm.rows)
        assert rows == ("0010", "0110", "1110", "1011", "0011")

    def test_own_column_all_ones(self):
        rng = random.Random(17)
        for _ in range(20):
            g, ps = random_instance(rng)
            t = testing_matrix(ps, g.node_count)
            for i in range(ps.m):
                pm = path_matrix(ps, t, i)
                assert len(pm.rows) == len(ps.paths[i])
                assert all(r >> i & 1 for r in pm.rows)

    def test_single_path_alone(self):
        ps = PathSet.from_sequences([[0, 1, 2]])
        t = testing_matrix(ps, 3)
        pm = path_matrix(ps, t, 0)
        assert pm.rows == (1, 1, 1)

    def test_ica_example_a_rows_distinct(self):
        inst = ica(4, 3)
        t = testing_matrix(inst.paths, inst.graph.node_count)
        for i in range(4):
            pm = path_matrix(inst.paths, t, i)
            assert len(pm.rows) == 3
            assert len(set(pm.rows)) == 3

    def test_index_out_of_range(self):
        ps = PathSet.from_sequences([[0]])
        t = testing_matrix(ps, 1)
        with pytest.raises(ValueError):
            path_matrix(ps, t, 1)


class TestRunCounts:
    def test_consistent10_single_runs(self):
        g, ps = load_instance("consistent10")
        t = testing_matrix(ps, g.node_count)
        for i in range(ps.m):
            assert max(column_run_counts(path_matrix(ps, t, i))) <= 1

    def test_split_column(self):
        ps = PathSet.from_sequences([[0, 1, 2], [0, 2]])
        t = testing_matrix(ps, 3)
        pm = path_matrix(ps, t, 0)
        assert column_run_counts(pm) == (1, 2)

    def test_all_ones_column(self):
        ps = PathSet.from_sequences([[0, 1, 2]])
        t = testing_matrix(ps, 3)
        assert column_run_counts(path_matrix(ps, t, 0)) == (1,)


class TestDistinctEncodingCaps:
    """Per-path distinct-row caps: d_i always; 2(m-1) when consistent;
    2q(m-1) and 2^(m-1) under q-run structure."""

    def test_consistent_cap(self):
        from tomobound.routing import check_consistency

        for name in ("consistent10", "half_grid_plus38", "seven_path39"):
            g, ps = load_instance(name)
            assert check_consistency(ps).consistent
            t = testing_matrix(ps, g.node_count)
            for i in range(ps.m):
                pm = path_matrix(ps, t, i)
                distinct = len(set(pm.rows))
                assert distinct <= min(len(ps.paths[i]), 2 * (ps.m - 1))

    def test_q_run_cap(self):
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths

        ft = fat_tree(4)
        ps = fat_tree_all_pair_paths(ft)
        t = testing_matrix(ps, ft.graph.node_count)
        m = ps.m
        for i in range(0, m, 7):
            pm = path_matrix(ps, t, i)
            q = max(column_run_counts(pm))
            assert len(set(pm.rows)) <= min(
                len(ps.paths[i]), 2 * q * (m - 1), 1 << (m - 1)
            )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_equivalence_property(data):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g, ps = random_instance(rng, max_n=7, max_m=3)
    t = testing_matrix(ps, g.node_count)
    assert k_identifiable_set(t, 1) == one_identifiable_set(t)
    assert k_identifiable_set(t, 2)[1] == brute_force_k_identifiable_set(t, 2)
