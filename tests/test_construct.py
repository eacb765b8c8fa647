import inspect
import sys
import tracemalloc
import warnings
from fractions import Fraction
from hashlib import sha256
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import tomobound.construct
from conftest import reference_arrange_top_layer, reference_candidate_order
from tomobound.bounds import bound, bound_single_server, layer_bound, z_fb
from tomobound.construct import (
    ConstructionError,
    fat_tree,
    fat_tree_all_pair_paths,
    fat_tree_route,
    half_grid,
    ica,
    monitoring_tree,
    path_completion,
)
from tomobound.cli import main
from tomobound.identifiability import (
    column_run_counts,
    one_identifiable_set,
    path_matrix,
    testing_matrix,
)
from tomobound.model import format_edge_list, format_path_file, validate_path_set
from tomobound.routing import check_consistency, midpoint_cuts, q_lower_bound, verify_segmentation


def bits(s: str) -> int:
    out = 0
    for i, c in enumerate(s):
        if c == "1":
            out |= 1 << i
    return out


def loads(members, m: int) -> tuple[int, ...]:
    return tuple(sum(1 for b in members if b >> i & 1) for i in range(m))


def phi1(inst) -> int:
    t = testing_matrix(inst.paths, inst.graph.node_count)
    return one_identifiable_set(t)[0]


def ica_outcome(m: int, dbar: Fraction):
    """Everything ``ica`` returns, or the type and text of the error it raises."""
    try:
        inst = ica(m, dbar)
    except (ValueError, ConstructionError) as exc:
        return type(exc).__name__, str(exc)
    return inst.graph, inst.paths, inst.encodings, dict(inst.meta)


def top_layer_outcome(arrange, m, imax, residual, taken, target):
    """The state ``arrange`` leaves behind, or the text of the error it raises."""
    residual, taken = list(residual), set(taken)
    try:
        arrange(m, imax, residual, taken, target)
    except ConstructionError as exc:
        return str(exc)
    return residual, taken


@st.composite
def top_layer_states(draw):
    """Small top-layer searches: random residual lengths, a random set of
    already-taken top-layer encodings and a target that may be unreachable."""
    m = draw(st.integers(2, 5))
    imax = draw(st.integers(0, m - 2))
    residual = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    top = [sum(1 << k for k in s) for s in combinations(range(m), imax + 1)]
    taken = draw(st.sets(st.sampled_from(top)))
    target = draw(st.integers(1, 4))
    return m, imax, residual, taken, target


@st.composite
def candidate_states(draw):
    """One top-layer step: residuals 0..5, so that several residual classes
    meet in one step, and a random set of taken width-subsets."""
    m = draw(st.integers(1, 9))
    width = draw(st.integers(1, m))
    residual = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    top = [sum(1 << k for k in s) for s in combinations(range(m), width)]
    taken = draw(st.sets(st.sampled_from(top)))
    return m, width, residual, taken


def with_masks(subsets):
    return [(s, sum(1 << k for k in s)) for s in subsets]


class TestIca:
    def test_example_a(self):
        inst = ica(4, 3)
        assert set(inst.encoding_strings()) == {
            "1000", "0100", "0010", "0001", "1100", "0011", "1010", "0101",
        }
        assert inst.paths.lengths() == (3, 3, 3, 3)
        assert inst.meta["path_completion"] is False
        assert phi1(inst) == 8

    def test_example_b_completion(self):
        inst = ica(4, Fraction(17, 4))
        got = set(inst.encoding_strings())
        assert "0110" not in got
        assert "1110" in got
        assert inst.meta["replaced"] == ("0110", "1110")
        assert inst.paths.lengths() == (5, 4, 4, 4)
        assert phi1(inst) == 10

    def test_two_disjoint_single_node_paths(self):
        inst = ica(2, 1)
        assert set(inst.encoding_strings()) == {"10", "01"}
        assert len(inst.graph.edges) == 0
        assert [len(p) for p in inst.paths] == [1, 1]

    def test_paths_fit_graph(self):
        for m, d in [(3, 2), (4, 3), (5, 4), (6, Fraction(7, 2))]:
            inst = ica(m, d)
            assert validate_path_set(inst.graph, inst.paths, require_simple=True) == []

    def test_matrix_reproduces_encodings(self):
        inst = ica(5, 6)
        # the encodings are the testing matrix itself, a plain tuple of columns
        assert inst.encodings == testing_matrix(inst.paths, inst.graph.node_count)

    def test_tightness_grid(self):
        # every admissible (m, dbar) grid point meets the bound exactly
        for m in range(2, 9):
            for d in range(1, min(8, 1 << (m - 1)) + 1):
                inst = ica(m, d)
                expected = layer_bound(m, None, m * d)[1]
                assert len(inst.encodings) == expected, (m, d)
                assert phi1(inst) == expected, (m, d)

    def test_crossing_cap(self):
        for m, d in [(4, 3), (4, Fraction(17, 4)), (6, 5), (8, 8)]:
            inst = ica(m, d)
            t = testing_matrix(inst.paths, inst.graph.node_count)
            imax = int(inst.meta["i_max"])  # type: ignore[arg-type]
            assert max(c.bit_count() for c in t) <= imax + 1

    def test_average_length_exact(self):
        inst = ica(4, Fraction(17, 4))
        assert Fraction(sum(inst.paths.lengths()), inst.paths.m) == Fraction(17, 4)

    def test_rejects_overlong_average(self):
        with pytest.raises(ValueError, match="2"):
            ica(3, 5)

    def test_rejects_non_integral_budget(self):
        with pytest.raises(ValueError, match="integer"):
            ica(4, Fraction(10, 3))

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            ica(1, 1)

    # these two need over 1.2M backtracking steps each
    SLOW = {(6, Fraction(17, 3)), (7, Fraction(47, 7))}

    @pytest.mark.parametrize("m", range(2, 9))
    def test_top_layer_search_matches_recursive_reference(self, m, monkeypatch):
        # every dbar <= 8 with m*dbar integral, including those ica rejects
        grid = [Fraction(j, m) for j in range(m, 8 * m + 1)]
        grid = [d for d in grid if (m, d) not in self.SLOW]
        got = [ica_outcome(m, d) for d in grid]
        monkeypatch.setattr(tomobound.construct, "_arrange_top_layer", reference_arrange_top_layer)
        assert got == [ica_outcome(m, d) for d in grid]

    def test_enumeration_guard_matches_recursive_reference(self, monkeypatch):
        # m=5, dbar=23/5 backtracks 361 times, so a guard of 100 stops it
        monkeypatch.setattr(tomobound.construct, "_ENUMERATION_GUARD", 100)
        with pytest.raises(ConstructionError, match="search space too large") as head:
            ica(5, Fraction(23, 5))
        monkeypatch.setattr(tomobound.construct, "_arrange_top_layer", reference_arrange_top_layer)
        with pytest.raises(ConstructionError) as reference:
            ica(5, Fraction(23, 5))
        assert str(head.value) == str(reference.value)

    @settings(max_examples=300, deadline=None)
    @given(top_layer_states())
    def test_top_layer_state_matches_recursive_reference(self, state):
        head = top_layer_outcome(tomobound.construct._arrange_top_layer, *state)
        assert head == top_layer_outcome(reference_arrange_top_layer, *state)

    @settings(max_examples=300, deadline=None)
    @given(candidate_states())
    def test_candidate_order_matches_sorted_reference(self, state):
        m, width, residual, taken = state
        got = list(tomobound.construct._candidate_steps(m, width, taken)(residual))
        assert got == with_masks(reference_candidate_order(*state))

    def test_candidate_steps_share_groups(self):
        # as in the search: step a yields (0, 1), which is taken, step b runs
        # dry, the pick is undone and step a resumes. The residual-1 class
        # {5, 6} is the same in both steps, so b drains the group (({5, 6}, 2),)
        # that a reaches afterwards, and both read the one memoised list
        m, width = 7, 2
        residual, taken = [3, 3, 2, 2, 2, 1, 1], {0b1100}
        candidates = tomobound.construct._candidate_steps(m, width, taken)
        a = candidates(residual)
        first = next(a)
        assert first == ((0, 1), 0b11)
        taken.add(first[1])
        after = [3 - 1, 3 - 1, 2, 2, 2, 1, 1]
        assert list(candidates(after)) == with_masks(reference_candidate_order(m, width, after, taken))
        taken.discard(first[1])
        assert [first, *a] == with_masks(reference_candidate_order(m, width, residual, taken))

    def test_candidate_steps_interleave_on_one_residual(self):
        # two iterators over one residual vector read the same groups; the
        # second drains them while the first is part-way through a group
        m, width, residual, taken = 8, 3, [2, 1, 2, 1, 2, 1, 2, 1], {0b111, 0b10101}
        want = with_masks(reference_candidate_order(m, width, residual, taken))
        candidates = tomobound.construct._candidate_steps(m, width, taken)
        a = candidates(residual)
        head = [next(a) for _ in range(5)]
        assert list(candidates(residual)) == want
        assert head + list(a) == want

    def test_deep_top_layer_needs_no_recursion(self):
        # 252 top-layer encodings, each of which was one stack frame deeper
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            inst = ica(12, 151)
        finally:
            sys.setrecursionlimit(limit)
        assert len(inst.encodings) == layer_bound(12, None, 12 * 151)[1]

    def test_large_top_layer_builds(self):
        # C(20, 5) = 15,504 candidates per step over 3,360 steps: the search
        # that built and sorted every step's candidates needed minutes
        inst = ica(20, 2000)
        expected = layer_bound(20, None, 20 * 2000)[1]
        assert phi1(inst) == len(inst.encodings) == expected
        assert len(set(inst.encodings)) == expected
        assert loads(inst.encodings, 20) == inst.meta["lengths"]

    def test_top_layer_search_memory(self):
        # whole candidate lists for ica(16, 200) peaked at about 40 MiB
        tracemalloc.start()
        try:
            ica(16, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_path_completion_memory(self):
        # listing all C(600, want) masks of the swap's layer peaked at about 15 MiB
        tracemalloc.start()
        try:
            inst = ica(600, Fraction(603, 600))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.meta["path_completion"]
        assert peak < 4 * 2**20

    def test_full_size_files_unchanged(self, tmp_path, capsys):
        # sha256 of the files written by ``construct ica --m 16 --dbar 200``,
        # recorded before the top-layer search was written as a loop
        assert main(["construct", "ica", "--m", "16", "--dbar", "200", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        digests = {
            "ica.edges": "a94cf3e90aaddf32be83fe383c547a6a09fa427754a3befe032500f38b2ad9a8",
            "ica.paths": "5940a01db1471bbdd87512ffe9f1adf63c0f4b318de174267733258ff8e318bf",
        }
        for name, digest in digests.items():
            assert sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestPathCompletion:
    def test_example_b_state(self):
        members = frozenset(
            bits(s)
            for s in ["1000", "0100", "0010", "0001",
                      "1100", "1010", "1001", "0110", "0101", "0011"]
        )
        out = path_completion(members, 4, [5, 4, 4, 4])
        assert members - out == {bits("0110")}
        assert out - members == {bits("1110")}
        assert loads(out, 4) == (5, 4, 4, 4)

    def test_no_short_paths_identity(self):
        members = frozenset(bits(s) for s in ["10", "01"])
        assert path_completion(members, 2, [1, 1]) is members

    def test_size_preserved(self):
        members = frozenset(
            bits(s)
            for s in ["1000", "0100", "0010", "0001",
                      "1100", "1010", "1001", "0110", "0101", "0011"]
        )
        out = path_completion(members, 4, [5, 4, 4, 4])
        assert len(out) == len(members)

    def test_skips_candidates_that_meet_the_short_paths_or_are_not_members(self):
        # path 0 is one short; 1100, 1010 and 1001 meet it, 0110 is not a member,
        # so 0101 is the first candidate and becomes 1101
        members = frozenset(
            bits(s) for s in ["1000", "0100", "0010", "0001", "1100", "1010", "1001", "0101", "0011"]
        )
        assert loads(members, 4) == (4, 3, 3, 4)
        out = path_completion(members, 4, [5, 3, 3, 4])
        assert out == members - {bits("0101")} | {bits("1101")}
        assert loads(out, 4) == (5, 3, 3, 4)

    def test_error_when_no_candidate(self):
        # all heavier encodings already present: completion cannot swap
        members = frozenset(bits(s) for s in ["10", "01", "11"])
        with pytest.raises(ConstructionError):
            path_completion(members, 2, [3, 2])


class TestHalfGrid:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 6), (4, 10), (8, 36)])
    def test_node_count(self, m, n):
        assert half_grid(m).graph.node_count == n

    def test_m8_reference_instance(self):
        inst = half_grid(8)
        assert set(inst.paths.lengths()) == {8}
        assert phi1(inst) == 36
        assert check_consistency(inst.paths).consistent
        t = testing_matrix(inst.paths, 36)
        assert {c.bit_count() for c in t} == {1, 2}

    def test_paths_fit_graph(self):
        for m in (1, 2, 5, 8):
            inst = half_grid(m)
            assert validate_path_set(inst.graph, inst.paths, require_simple=True) == []

    @pytest.mark.parametrize("m", [2, 3, 4, 10, 12])
    def test_meets_consistent_bound(self, m):
        inst = half_grid(m)
        n = m * (m + 1) // 2
        assert phi1(inst) == bound("consistent-avg", m, n, m).bound == n

    def test_consistency_across_sizes(self):
        for m in (2, 3, 4, 10, 12):
            assert check_consistency(half_grid(m).paths).consistent

    def test_single_path_reads_no_bound(self):
        # m = 1 is outside the consistent bound's theorem, where bound() warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert half_grid(1).meta["bound"] == phi1(half_grid(1)) == 1

    def test_matrix_reproduces_encodings(self):
        inst = half_grid(5)
        # the encodings are the testing matrix itself, a plain tuple of columns
        assert inst.encodings == testing_matrix(inst.paths, inst.graph.node_count)


class TestMonitoringTree:
    def test_full_binary_m7(self):
        inst = monitoring_tree(7, 4)
        assert inst.graph.node_count == 13 == z_fb(7)

    def test_depth_capped_m7(self):
        inst = monitoring_tree(7, 3)
        assert inst.graph.node_count == 11  # root + 3 perfect depth-1 trees + 1 leaf

    def test_smallest(self):
        assert monitoring_tree(2, 2).graph.node_count == 3
        assert monitoring_tree(1, 2).graph.node_count == 1

    @pytest.mark.parametrize("m,d_max", [(1, 2), (2, 2), (5, 3), (7, 3), (7, 4), (48, 7), (48, 3), (13, 5)])
    def test_matches_single_server_bound(self, m, d_max):
        inst = monitoring_tree(m, d_max)
        expected = bound_single_server(m, None, d_max).bound
        assert inst.graph.node_count == expected
        assert phi1(inst) == expected
        # the encodings are the testing matrix itself, a plain tuple of columns
        assert inst.encodings == testing_matrix(inst.paths, inst.graph.node_count)

    def test_paths_share_root_and_respect_cap(self):
        for m, d_max in [(7, 4), (7, 3), (12, 4), (48, 3)]:
            inst = monitoring_tree(m, d_max)
            assert inst.paths.m == m
            assert all(p[-1] == 0 for p in inst.paths)
            assert max(inst.paths.lengths()) <= d_max

    def test_union_of_paths_is_a_tree(self):
        for m, d_max in [(7, 4), (7, 3), (20, 5)]:
            inst = monitoring_tree(m, d_max)
            assert len(inst.graph.edges) == inst.graph.node_count - 1
            assert check_consistency(inst.paths).consistent

    def test_per_path_identifiable_cap(self):
        # along one path of an m-leaf tree at most m nodes are identifiable
        for m in (2, 5, 7, 9):
            inst = monitoring_tree(m, 32)
            t = testing_matrix(inst.paths, inst.graph.node_count)
            _, ident = one_identifiable_set(t)
            for p in inst.paths:
                assert sum(1 for u in p if u in ident) <= m

    def test_full_binary_trees_have_zfb_nodes(self):
        for m in range(1, 30):
            assert monitoring_tree(m, 64).graph.node_count == z_fb(m)

    def test_rejects_bad_dmax(self):
        with pytest.raises(ValueError):
            monitoring_tree(4, 1)


class TestFatTree:
    def test_k4_counts(self):
        ft = fat_tree(4)
        assert ft.graph.node_count == 36
        assert (len(ft.core), len(ft.aggregation), len(ft.edge), len(ft.hosts)) == (4, 8, 8, 16)

    def test_k6_counts(self):
        ft = fat_tree(6)
        assert (len(ft.core), len(ft.aggregation), len(ft.edge), len(ft.hosts)) == (9, 18, 18, 54)
        assert ft.graph.node_count == 9 + 18 + 18 + 54

    def test_k2_counts(self):
        ft = fat_tree(2)
        assert (len(ft.core), len(ft.aggregation), len(ft.edge), len(ft.hosts)) == (1, 2, 2, 2)

    def test_all_pair_paths_guard(self):
        # k=18 has 1458 hosts and C(1458, 2) = 1,062,153 pairs, over the 2^20 guard
        with pytest.raises(ValueError, match=r"^fat-tree k=18 has 1062153 host pairs, more than 1048576"):
            fat_tree_all_pair_paths(fat_tree(18))
        assert fat_tree_all_pair_paths(fat_tree(4)).m == 120

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            fat_tree(3)

    def test_switch_port_budget(self):
        for k in (2, 4, 6):
            ft = fat_tree(k)
            nbrs = ft.graph.neighbours
            for sw in ft.aggregation + ft.edge:
                assert len(nbrs[sw]) == k
            for c in ft.core:
                assert len(nbrs[c]) == k

    def test_reference_route_inter_pod(self):
        ft = fat_tree(4)
        p = fat_tree_route(ft, "10.1.0.3", "10.3.1.3")
        assert [ft.address_of[u] for u in p] == [
            "10.1.0.3", "10.1.0.1", "10.1.3.1", "10.4.2.1", "10.3.3.1", "10.3.1.1", "10.3.1.3",
        ]

    def test_reference_route_spreads_cores(self):
        ft = fat_tree(4)
        p = fat_tree_route(ft, "10.1.1.3", "10.3.0.2")
        assert [ft.address_of[u] for u in p] == [
            "10.1.1.3", "10.1.1.1", "10.1.3.1", "10.4.2.2", "10.3.3.1", "10.3.0.1", "10.3.0.2",
        ]

    def test_same_edge_switch(self):
        ft = fat_tree(4)
        p = fat_tree_route(ft, "10.0.0.2", "10.0.0.3")
        assert [ft.address_of[u] for u in p] == ["10.0.0.2", "10.0.0.1", "10.0.0.3"]

    def test_intra_pod(self):
        ft = fat_tree(4)
        p = fat_tree_route(ft, "10.2.0.2", "10.2.1.2")
        addrs = [ft.address_of[u] for u in p]
        assert len(addrs) == 5
        assert addrs[0] == "10.2.0.2" and addrs[-1] == "10.2.1.2"

    def test_same_host_rejected(self):
        ft = fat_tree(4)
        with pytest.raises(ValueError):
            fat_tree_route(ft, "10.0.0.2", "10.0.0.2")

    @pytest.mark.parametrize(
        "which", ["first core", "last core", "aggregation", "edge", "node count", "-1"]
    )
    def test_non_host_endpoint_rejected(self, which):
        ft = fat_tree(4)
        node = {
            "first core": ft.core[0],
            "last core": ft.core[-1],
            "aggregation": ft.aggregation[0],
            "edge": ft.edge[-1],
            "node count": ft.graph.node_count,
            "-1": -1,
        }[which]
        for src, dst in [(node, ft.hosts[0]), (ft.hosts[-1], node)]:
            with pytest.raises(ValueError, match="both endpoints must be hosts"):
                fat_tree_route(ft, src, dst)

    def test_routes_are_graph_paths(self):
        ft = fat_tree(4)
        ps = fat_tree_all_pair_paths(ft)
        assert ps.m == 120
        assert validate_path_set(ft.graph, ps, require_simple=True) == []

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_all_pairs_match_single_routes(self, k):
        ft = fat_tree(k)
        hosts = ft.hosts
        pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1 :]]
        assert fat_tree_all_pair_paths(ft).paths == tuple(fat_tree_route(ft, a, b) for a, b in pairs)

    def test_half_consistent(self):
        ft = fat_tree(4)
        ps = fat_tree_all_pair_paths(ft)
        assert q_lower_bound(ps) <= 2
        assert verify_segmentation(ps, midpoint_cuts(ps), 2)
        t = testing_matrix(ps, ft.graph.node_count)
        for i in range(ps.m):
            assert max(column_run_counts(path_matrix(ps, t, i), ps.m)) <= 2

    # sha256 of the edge list and of the all-pairs path file, recorded before the
    # node-id layout was written as id functions
    @pytest.mark.parametrize(
        "k, edges_digest, paths_digest",
        [
            (
                6,
                "721d284751186994140660c18df4c4ca864a585bedea11fc980819e1f4ecfcbd",
                "1edbc048a51c085efa6b4c6990a4e9ff8d204a0685a9deb35486a5ff93be3596",
            ),
            (
                8,
                "d2bfa975f9c93fd16b6f51b0851fa6211714825308b2159d1a9327dce01f4c74",
                "3380c7b3a02f2fc8ef7cbf3598ffe53f155ad8b91215a41b0f823a24aa495e2c",
            ),
        ],
    )
    def test_full_size_files_unchanged(self, k, edges_digest, paths_digest):
        ft = fat_tree(k)
        edges = format_edge_list(ft.graph, ft.address_of)
        assert sha256(edges.encode()).hexdigest() == edges_digest
        paths = format_path_file(fat_tree_all_pair_paths(ft))
        assert sha256(paths.encode()).hexdigest() == paths_digest


@pytest.mark.parametrize(
    "make", [lambda: ica(4, Fraction(17, 4)), lambda: half_grid(4), lambda: monitoring_tree(7, 3)],
    ids=["ica(4, 17/4)", "half_grid(4)", "monitoring_tree(7, 3)"],
)
def test_instance_below_its_bound_refused(make, monkeypatch):
    # a testing matrix with node 0's column cleared identifies one node fewer
    # than the bound, and the generator refuses to return the instance
    def cleared(ps, n):
        return (0, *testing_matrix(ps, n)[1:])

    expected = make().meta["bound"]
    monkeypatch.setattr(tomobound.construct, "testing_matrix", cleared)
    with pytest.raises(ConstructionError, match=rf" identifies {expected - 1} nodes, its bound is {expected}$"):
        make()


@pytest.mark.parametrize(
    "make", [lambda: fat_tree(4), lambda: ica(4, Fraction(17, 4)), lambda: half_grid(5)],
    ids=["fat_tree(4)", "ica(4, 17/4)", "half_grid(5)"],
)
def test_generated_graphs_are_hashable(make):
    # a graph is topology only, so two builds of one instance hash equal
    g = make().graph
    assert hash(g) == hash(make().graph)
    assert {g: 1}[make().graph] == 1
