import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_force_k_identifiable,
    brute_force_k_identifiable_set,
    random_instance,
    reference_encoding_string,
    reference_one_identifiable_set,
    reference_testing_matrix,
)
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


def cols_as_strings(t, m):
    return [encoding_string(c, m) for c in t]


class TestTestingMatrix:
    def test_two_crossing_paths(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1], [1, 2]]), 3)
        assert cols_as_strings(t, 2) == ["10", "11", "01"]

    def test_plain_tuple_of_columns(self):
        # the matrix is its tuple of node columns, padded with zeros to n
        t = testing_matrix(PathSet.from_sequences([[0, 1], [1, 2]]), 5)
        assert type(t) is tuple
        assert all(type(c) is int for c in t)
        assert t == (0b01, 0b11, 0b10, 0, 0)

    def test_ica_example_columns(self):
        inst = ica(4, 3)
        t = testing_matrix(inst.paths, inst.graph.node_count)
        assert set(cols_as_strings(t, 4)) == {
            "1000", "0100", "0010", "0001", "1100", "0011", "1010", "0101",
        }
        assert len(set(t)) == 8

    def test_uncovered_node_zero_column(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1]]), 3)
        assert t[2] == 0

    def test_duplicate_mentions_collapse(self):
        t = testing_matrix(PathSet.from_sequences([[0, 1, 0]]), 2)
        assert t[0] == 1
        # row 0 has two distinct nodes despite three mentions
        assert sum(1 for c in t if c & 1) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            testing_matrix(PathSet.from_sequences([[0, 3]]), 3)

    def test_row_has_di_ones_for_simple_paths(self):
        rng = random.Random(1)
        for _ in range(20):
            g, ps = random_instance(rng)
            t = testing_matrix(ps, g.node_count)
            for i, p in enumerate(ps.paths):
                assert sum(1 for c in t if c >> i & 1) == len(p)

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65])
    def test_matches_per_incidence_oracle(self, m):
        # m around multiples of 8 puts path bits at both ends of a column byte
        rng = random.Random(m)
        for _ in range(30):
            n = rng.randint(1, 12)
            seqs = [rng.choices(range(n), k=rng.randint(1, 8)) for _ in range(m)]  # not all simple
            ps = PathSet.from_sequences(seqs)
            for width in (n, n + 3):  # nodes no path touches get zero columns
                assert testing_matrix(ps, width) == reference_testing_matrix(ps, width)

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65])
    def test_out_of_range_error_matches_oracle(self, m):
        rng = random.Random(100 + m)
        for _ in range(30):
            n = rng.randint(1, 12)
            seqs = [rng.choices(range(n + 3), k=rng.randint(1, 8)) for _ in range(m)]
            seqs[rng.randrange(m)].append(n + rng.randrange(3))
            ps = PathSet.from_sequences(seqs)
            with pytest.raises(ValueError) as want:
                reference_testing_matrix(ps, n)
            with pytest.raises(ValueError) as got:
                testing_matrix(ps, n)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("m", [9, 65])
    def test_guard_counts_touched_nodes(self, monkeypatch, m):
        # 3 touched nodes of 100, ceil(m/8) bytes each
        ps = PathSet.from_sequences([[0, 5, 7]] * m)
        size = 3 * ((m + 7) // 8)
        monkeypatch.setattr("tomobound.model.MATRIX_BYTES_GUARD", size - 1)
        with pytest.raises(ValueError) as exc:
            testing_matrix(ps, 100)
        assert str(exc.value) == f"a testing matrix of {m} paths over 3 nodes takes {size} bytes, more than {size - 1}"
        monkeypatch.setattr("tomobound.model.MATRIX_BYTES_GUARD", size)
        assert testing_matrix(ps, 100) == reference_testing_matrix(ps, 100)

    def test_membership_matches_bits(self):
        rng = random.Random(2)
        for _ in range(20):
            g, ps = random_instance(rng)
            t = testing_matrix(ps, g.node_count)
            for j in range(len(t)):
                for i, p in enumerate(ps.paths):
                    assert bool(t[j] >> i & 1) == (j in set(p))


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
        assert {c.bit_count() for c in t} == {1, 2}

    @given(st.data())
    def test_matches_bitwise_oracle(self, data):
        m = data.draw(st.integers(1, 70))
        bits = data.draw(st.integers(0, 2**m - 1))
        assert encoding_string(bits, m) == reference_encoding_string(bits, m)

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

    def test_k_above_n_counts_as_n(self):
        # no failure set has more than n nodes; a huge k must not loop up to k
        rng = random.Random(19)
        for _ in range(20):
            g, ps = random_instance(rng, max_n=7, max_m=3)
            t = testing_matrix(ps, g.node_count)
            n = len(t)
            for j in (1, 2, 10**9):
                assert k_identifiable_set(t, n + j) == k_identifiable_set(t, n)

    def test_matches_brute_force_at_k_n_minus_1_and_n(self):
        # the walk goes up to n levels deep, over zero and repeated columns; a hub column
        # that is the OR of several one-path columns collides only with sets of their size
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(1, 8)
            cols = [rng.choice((0, 1 << rng.randrange(n), 1 << rng.randrange(n), rng.randrange(1 << n)))
                    for _ in range(n - 1)]
            hub = 0
            for c in rng.sample(cols, rng.randint(0, n - 1)):
                hub |= c
            cols.insert(rng.randint(0, n - 1), hub)
            t = tuple(cols)
            for k in {max(n - 1, 1), n}:
                assert k_identifiable_set(t, k)[1] == brute_force_k_identifiable_set(t, k), (t, k)

    def test_cover_reaching_outside_the_matched_paths_does_not_count(self):
        # paths a..e are bits 0..4: v = {a, b} is covered by x = {a, c} and y = {b, d}, and
        # z = {c, d, e} covers what x and y add, but also fails path e, which they do not
        v, x, y, z = 0b00011, 0b00101, 0b01010, 0b11100
        assert k_identifiable_set((v, x, y, z), 2) == (4, frozenset(range(4)))
        assert brute_force_k_identifiable_set((v, x, y, z), 2) == set(range(4))

    def test_work_cap_guard(self):
        # k=1 answers; at k=2 each node's covers branch over its paths' 2,000 nodes
        inst = ica(20, 2000)
        t = testing_matrix(inst.paths, inst.graph.node_count)
        assert k_identifiable_set(t, 1) == one_identifiable_set(t)
        with pytest.raises(OracleTooLargeError, match=r"^oracle too large: over 100000 candidate nodes scanned$"):
            k_identifiable_set(t, 2, work_cap=10**5)

    def test_half_grid_k3_within_default_cap(self):
        # 36 nodes: the brute-force oracle still answers at k=3 (7,806 failure sets of size 1..3)
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
        rows = tuple(encoding_string(r, ps.m) for r in path_matrix(ps, t, 2))
        assert rows == ("0010", "0110", "1110", "1011", "0011")

    def test_own_column_all_ones(self):
        rng = random.Random(17)
        for _ in range(20):
            g, ps = random_instance(rng)
            t = testing_matrix(ps, g.node_count)
            for i in range(ps.m):
                rows = path_matrix(ps, t, i)
                assert len(rows) == len(ps.paths[i])
                assert all(r >> i & 1 for r in rows)

    def test_single_path_alone(self):
        ps = PathSet.from_sequences([[0, 1, 2]])
        t = testing_matrix(ps, 3)
        rows = path_matrix(ps, t, 0)
        assert type(rows) is tuple
        assert rows == (1, 1, 1)

    def test_ica_example_a_rows_distinct(self):
        inst = ica(4, 3)
        t = testing_matrix(inst.paths, inst.graph.node_count)
        for i in range(4):
            rows = path_matrix(inst.paths, t, i)
            assert len(rows) == 3
            assert len(set(rows)) == 3

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
            assert max(column_run_counts(path_matrix(ps, t, i), ps.m)) <= 1

    def test_split_column(self):
        ps = PathSet.from_sequences([[0, 1, 2], [0, 2]])
        t = testing_matrix(ps, 3)
        assert column_run_counts(path_matrix(ps, t, 0), ps.m) == (1, 2)

    def test_all_ones_column(self):
        ps = PathSet.from_sequences([[0, 1, 2]])
        t = testing_matrix(ps, 3)
        assert column_run_counts(path_matrix(ps, t, 0), ps.m) == (1,)


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
                distinct = len(set(path_matrix(ps, t, i)))
                assert distinct <= min(len(ps.paths[i]), 2 * (ps.m - 1))

    def test_q_run_cap(self):
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths

        ft = fat_tree(4)
        ps = fat_tree_all_pair_paths(ft)
        t = testing_matrix(ps, ft.graph.node_count)
        m = ps.m
        for i in range(0, m, 7):
            rows = path_matrix(ps, t, i)
            q = max(column_run_counts(rows, m))
            assert len(set(rows)) <= min(
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
    # column tuples drawn directly, with zero, duplicate and hub columns (the OR of
    # others), at every k up to n + 1
    m = data.draw(st.integers(1, 7))
    cols = []
    for _ in range(data.draw(st.integers(1, 9))):
        kind = data.draw(st.sampled_from(("zero", "new", "duplicate", "hub") if cols else ("zero", "new")))
        if kind == "zero":
            cols.append(0)
        elif kind == "new":
            cols.append(data.draw(st.integers(1, 2**m - 1)))
        elif kind == "duplicate":
            cols.append(data.draw(st.sampled_from(cols)))
        else:
            cols.append(reduce(or_, data.draw(st.lists(st.sampled_from(cols), min_size=2, max_size=4))))
    t = tuple(data.draw(st.permutations(cols)))
    for k in range(1, len(t) + 2):
        expected = brute_force_k_identifiable_set(t, k)
        assert k_identifiable_set(t, k) == (len(expected), frozenset(expected)), (t, k)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 7), st.integers(0, 2**80)), max_size=40))
def test_one_identifiable_matches_column_count_oracle(columns):
    # small values give many zero and duplicate columns, as placement matrices have
    t = tuple(columns)
    assert one_identifiable_set(t) == reference_one_identifiable_set(t)
