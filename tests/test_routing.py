import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    adjacency,
    random_connected_graph,
    reference_check_consistency,
    reference_q_lower_bound,
    reference_shortest_path_tree,
)
from tomobound.fixtures import load_instance
from tomobound.identifiability import column_run_counts, encoding_string, path_matrix, testing_matrix
from tomobound.model import PathSet, build_graph
from tomobound.routing import (
    check_consistency,
    consistent_shortest_paths,
    midpoint_cuts,
    q_lower_bound,
    shortest_path_tree,
    verify_segmentation,
    walk_to_root,
)


class TestCheckConsistency:
    def test_consistent_fixture(self):
        _, ps = load_instance("consistent10")
        report = check_consistency(ps)
        assert report.consistent
        assert report.violations == ()

    def test_inconsistent_fixture_pinpoints_divergence(self):
        g, ps = load_instance("inconsistent10")
        report = check_consistency(ps)
        assert not report.consistent
        t = testing_matrix(ps, g.node_count)
        by_encoding = {encoding_string(c, ps.m): j for j, c in enumerate(t)}
        named = {
            (v.path_i, v.path_j, frozenset((v.u, v.v))) for v in report.violations
        }
        expected = frozenset((by_encoding["1110"], by_encoding["1010"]))
        assert (0, 2, expected) in named

    def test_node_disjoint_paths(self):
        ps = PathSet.from_sequences([[0, 1], [2, 3], [4]])
        assert check_consistency(ps).consistent

    def test_single_shared_node_is_fine(self):
        ps = PathSet.from_sequences([[0, 1, 2], [3, 1, 4]])
        assert check_consistency(ps).consistent

    def test_opposite_direction_same_route(self):
        ps = PathSet.from_sequences([[0, 1, 2, 3], [3, 2, 1, 5]])
        assert check_consistency(ps).consistent

    def test_divergent_subpaths_detected(self):
        ps = PathSet.from_sequences([[0, 1, 2], [0, 3, 2]])
        report = check_consistency(ps)
        assert not report.consistent
        v = report.violations[0]
        assert (v.u, v.v) == (0, 2)
        assert v.sub_i == (0, 1, 2)
        assert v.sub_j == (0, 3, 2)

    def test_non_simple_rejected(self):
        with pytest.raises(ValueError, match="simple"):
            check_consistency(PathSet.from_sequences([[0, 1, 0]]))
        # both checks name the first path that repeats a node
        ps = PathSet.from_sequences([[0, 1], [2, 1, 2], [3, 3]])
        message = "^path 1 repeats a node; consistency is defined on simple paths$"
        for check in (check_consistency, q_lower_bound):
            with pytest.raises(ValueError, match=message):
                check(ps)

    def test_limit_below_one_rejected(self):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            check_consistency(PathSet.from_sequences([[0, 1]]), limit=0)

    def test_interleaved_shared_segment(self):
        # shared nodes must appear as one identical stretch; skipping a node
        # in between is a violation even with equal endpoints order
        ps = PathSet.from_sequences([[0, 1, 2, 3, 4], [5, 1, 2, 4, 6]])
        report = check_consistency(ps)
        assert not report.consistent


class TestSegmentation:
    def test_fat_tree_upper_node_cuts(self):
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths

        ft = fat_tree(4)
        ps = fat_tree_all_pair_paths(ft)
        assert verify_segmentation(ps, midpoint_cuts(ps), 2) is True

    def test_consistent_set_no_cuts_q1(self):
        _, ps = load_instance("consistent10")
        assert verify_segmentation(ps, ((),) * ps.m, 1) is True

    def test_inconsistent_set_no_cuts_q1(self):
        _, ps = load_instance("inconsistent10")
        assert verify_segmentation(ps, ((),) * ps.m, 1) is False

    def test_too_many_segments(self):
        ps = PathSet.from_sequences([[0, 1, 2, 3]])
        assert verify_segmentation(ps, ((1, 2),), 2) is False
        assert verify_segmentation(ps, ((1, 2),), 3) is True

    def test_malformed_cuts(self):
        ps = PathSet.from_sequences([[0, 1, 2]])
        with pytest.raises(ValueError, match="^q must be >= 1$"):
            verify_segmentation(ps, ((),), 0)
        with pytest.raises(ValueError, match="increasing"):
            verify_segmentation(ps, ((2, 1),), 3)
        with pytest.raises(ValueError, match="bounds"):
            verify_segmentation(ps, ((5,),), 3)
        with pytest.raises(ValueError, match="covers"):
            verify_segmentation(ps, (), 3)

    def test_cuts_validated_before_segments_counted(self):
        # the second path's bad cut is reported although the first path
        # already has more segments than q allows
        ps = PathSet.from_sequences([[0, 1, 2, 3], [4, 5]])
        with pytest.raises(ValueError, match="path 1: cut position out of bounds"):
            verify_segmentation(ps, ((1, 2), (2,)), 1)

    def test_no_cuts_matches_check_consistency(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_connected_graph(rng, max_n=15)
            nodes = list(range(g.node_count))
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(3)]
            ps = consistent_shortest_paths(g, pairs)
            assert verify_segmentation(ps, ((),) * ps.m, 1) is True

    def test_cut_node_shared_by_adjacent_segments(self):
        # cut at node 2, [0..4] splits into (0, 1, 2) and (2, 3, 4); route
        # 2-5-3 diverges from the second segment only if node 2 is in it
        ps = PathSet.from_sequences([[0, 1, 2, 3, 4], [2, 5, 3]])
        assert verify_segmentation(ps, ((2,), ()), 2) is False
        # route 1-5-3 diverges from the uncut path, but shares one node with each segment
        ps = PathSet.from_sequences([[0, 1, 2, 3, 4], [1, 5, 3]])
        assert verify_segmentation(ps, ((), ()), 2) is False
        assert verify_segmentation(ps, ((2,), ()), 2) is True


class TestQLowerBound:
    def test_consistent_fixture(self):
        _, ps = load_instance("consistent10")
        assert q_lower_bound(ps) == 1

    def test_fat_tree_at_most_two(self):
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths

        ps = fat_tree_all_pair_paths(fat_tree(4))
        assert q_lower_bound(ps) == 2

    def test_single_path(self):
        assert q_lower_bound(PathSet.from_sequences([[0, 1, 2]])) == 1

    def test_split_run(self):
        ps = PathSet.from_sequences([[0, 1, 2], [0, 2]])
        assert q_lower_bound(ps) == 2


def test_routing_memory_does_not_grow_with_the_largest_node_id():
    # routing reads the touched nodes' columns only; the dense layout over n,
    # and its refusal of an n too large for memory, belong to testing_matrix.
    # n = 2^62 is refused before any allocation, whatever the kernel's
    # overcommit policy, where a list of 2^40 entries would rely on it
    ps = PathSet(((0, 1, 2**40), (2**40, 1, 5)))
    report = check_consistency(ps)
    assert report.consistent and report.violations == ()
    assert q_lower_bound(ps) == 1
    with pytest.raises(ValueError, match=rf"^a testing matrix over n={2**62} nodes does not fit in memory$"):
        testing_matrix(ps, 2**62)


class TestFullSizeFatTree:
    """All-pairs fat-tree routes at the sizes `check` and `construct` meet."""

    def test_k8_q_lower_bound_and_midpoint_segmentation(self):
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths

        ps = fat_tree_all_pair_paths(fat_tree(8))
        assert q_lower_bound(ps) == 2
        assert verify_segmentation(ps, midpoint_cuts(ps), 2) is True

    def test_k6_full_violation_list(self):
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths

        violations = check_consistency(fat_tree_all_pair_paths(fat_tree(6))).violations
        assert len(violations) == 20_088
        # recorded with the node->paths index that the bitset screen replaced
        digest = hashlib.sha256("\n".join(map(str, violations)).encode()).hexdigest()
        assert digest == "a976099811c941852d8c7a0aac3458a0f8f6c818b95dd749d09ceb14027a9b9c"


def path_is_shortest(g, path):
    """BFS distance check: the returned path must be a shortest route."""
    from collections import deque

    src, dst = path[0], path[-1]
    adj = adjacency(g)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return len(path) - 1 == dist[dst]


class TestConsistentShortestPaths:
    def test_line_graph(self):
        g = build_graph([(0, 1), (1, 2)])
        ps = consistent_shortest_paths(g, [(0, 2)])
        assert ps.paths[0] == (0, 1, 2)

    def test_four_cycle(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)])
        ps = consistent_shortest_paths(g, [(0, 2), (1, 3)])
        assert check_consistency(ps).consistent
        for p in ps.paths:
            assert path_is_shortest(g, p)

    def test_two_route_trap(self):
        # two equal-length routes between 0 and 1; per-source predecessor
        # tie-breaking would route them differently from each side
        g = build_graph([(0, 2), (2, 5), (5, 1), (0, 3), (3, 4), (4, 1), (6, 0), (7, 1)])
        ps = consistent_shortest_paths(g, [(6, 1), (7, 0)])
        assert check_consistency(ps).consistent

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected_graph(rng, max_n=20)
            a, b = rng.sample(range(g.node_count), 2)
            fwd = consistent_shortest_paths(g, [(a, b)]).paths[0]
            rev = consistent_shortest_paths(g, [(b, a)]).paths[0]
            assert fwd == tuple(reversed(rev))

    def test_disconnected_pair(self):
        g = build_graph([(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="disconnected"):
            consistent_shortest_paths(g, [(0, 3)])

    def test_bad_pairs_rejected(self):
        g = build_graph([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="^no pairs given$"):
            consistent_shortest_paths(g, [])
        for pair, node in [((0, 3), 3), ((-1, 2), -1)]:
            with pytest.raises(ValueError, match=f"^node {node} out of range$"):
                consistent_shortest_paths(g, [(0, 2), pair])

    def test_isp_fixture_100_random_pairs(self):
        from tomobound.fixtures import load_graph

        g = load_graph("isp108")
        rng = random.Random(7)
        pairs = [tuple(rng.sample(range(g.node_count), 2)) for _ in range(100)]
        ps = consistent_shortest_paths(g, pairs)
        assert check_consistency(ps).consistent
        assert q_lower_bound(ps) == 1
        for p in ps.paths:
            assert path_is_shortest(g, p)

    def test_consistent_sets_have_single_runs(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_connected_graph(rng, max_n=25)
            pairs = [tuple(rng.sample(range(g.node_count), 2)) for _ in range(4)]
            ps = consistent_shortest_paths(g, pairs)
            t = testing_matrix(ps, g.node_count)
            for i in range(ps.m):
                assert max(column_run_counts(path_matrix(ps, t, i), ps.m)) <= 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_router_always_consistent_property(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_n=30)
    nodes = list(range(g.node_count))
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 6))]
    ps = consistent_shortest_paths(g, pairs)
    assert check_consistency(ps).consistent
    assert q_lower_bound(ps) == 1


@st.composite
def graphs(draw):
    """Small graphs, often disconnected, with isolated nodes and many equal-hop ties."""
    n = draw(st.integers(1, 16))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return build_graph(draw(st.lists(pairs, max_size=3 * n)), node_count=n)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_spt_matches_dijkstra_oracle(g):
    for src in range(g.node_count):
        parent = shortest_path_tree(g, src)
        assert list(parent.items()) == list(reference_shortest_path_tree(g, src).items())
        seen = set()
        for v, u in parent.items():
            assert u in seen or u == v == src
            seen.add(v)


def test_spt_reuses_one_graphs_table_on_a_grid():
    # a 30x30 grid has many equal-hop routes; every call after the first
    # reads the neighbour table that the first call built on this object
    w = 30
    g = build_graph(
        [(u, u + 1) for u in range(w * w) if (u + 1) % w]
        + [(u, u + w) for u in range(w * w - w)]
    )
    for src in range(0, w * w, 83):
        parent = shortest_path_tree(g, src)
        assert list(parent.items()) == list(reference_shortest_path_tree(g, src).items())


def test_neighbour_table_holds_ranks_on_a_large_grid():
    # the table once held 1 << rank per edge end: about 28 MiB at 100x100
    w = 100
    g = build_graph(
        [(u, u + 1) for u in range(w * w) if (u + 1) % w]
        + [(u, u + w) for u in range(w * w - w)]
    )
    tracemalloc.start()
    try:
        table = g.neighbours
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    edges = sorted(g.edges)
    ends = [0] * len(edges)
    for u, row in enumerate(table):
        for v, rank in row:
            assert type(rank) is int and 0 <= rank < len(edges)
            assert edges[rank] == (min(u, v), max(u, v))
            ends[rank] += 1
    assert ends == [2] * len(edges)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_spt_cut_at_max_hops_is_the_full_tree_restricted(g, data):
    src = data.draw(st.integers(0, g.node_count - 1))
    full = shortest_path_tree(g, src)
    hops = {v: len(walk_to_root(full, v)) - 1 for v in full}
    for max_hops in range(g.node_count + 1):
        cut = shortest_path_tree(g, src, max_hops)
        assert list(cut.items()) == [(v, u) for v, u in full.items() if hops[v] <= max_hops]


def test_spt_max_hops_zero_and_negative():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert shortest_path_tree(g, 1, 0) == {1: 1}
    assert list(shortest_path_tree(g, 1, 1).items()) == [(1, 1), (0, 1), (2, 1)]
    with pytest.raises(ValueError, match="max_hops must be >= 0, got max_hops=-1"):
        shortest_path_tree(g, 1, -1)


@pytest.mark.parametrize("src", [-1, 4])
def test_spt_rejects_source_out_of_range(src):
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=f"node {src} out of range"):
        shortest_path_tree(g, src)


def test_spt_table_does_not_leak_through_adjacency():
    g = build_graph([(0, 1), (1, 2), (0, 3), (3, 2)])
    before = shortest_path_tree(g, 0)
    # the table every tree reads is immutable, so no reader can change it
    assert all(type(row) is tuple for row in g.neighbours)
    assert [[v for v, _ in row] for row in g.neighbours] == [[1, 3], [0, 2], [1, 3], [0, 2]]
    assert list(shortest_path_tree(g, 0).items()) == list(before.items())


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_spt_hop_counts_match_networkx(g):
    nx = pytest.importorskip("networkx")
    ref = nx.Graph(g.edges)
    ref.add_nodes_from(range(g.node_count))
    for src in range(g.node_count):
        parent = shortest_path_tree(g, src)
        hops = {v: len(walk_to_root(parent, v)) - 1 for v in parent}
        assert hops == nx.single_source_shortest_path_length(ref, src)


@st.composite
def simple_path_sets(draw):
    """Small simple path sets over few nodes, so that paths share a lot.

    A path is often built from a stretch of an earlier one: kept as it is,
    reversed, split in two by a foreign node, with its halves swapped, or cut
    down to a single node, then padded with other nodes on both sides.
    """
    seqs: list[list[int]] = []
    for _ in range(draw(st.integers(1, 7))):
        if not seqs or draw(st.booleans()):
            seqs.append(draw(st.lists(st.integers(0, 9), min_size=1, max_size=7, unique=True)))
            continue
        base = draw(st.sampled_from(seqs))
        a = draw(st.integers(0, len(base) - 1))
        run = base[a : draw(st.integers(a, len(base) - 1)) + 1]
        rest = draw(st.permutations([u for u in range(12) if u not in run]))
        half = len(run) // 2
        how = draw(st.sampled_from(["keep", "reverse", "split", "swap", "single"]))
        if how == "reverse":
            run = run[::-1]
        elif how == "split":
            run = run[:half] + [rest.pop()] + run[half:]
        elif how == "swap":
            run = run[half:] + run[:half]
        elif how == "single":
            run = run[:1]
        before, after = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        seqs.append(rest[:before] + run + rest[before : before + after])
    return PathSet.from_sequences(seqs)


REVERSED_RUN = PathSet.from_sequences([[0, 1, 2, 3], [4, 3, 2, 1, 5]])
SPLIT_RUN = PathSet.from_sequences([[0, 1, 2, 3, 4], [5, 1, 2, 6, 3, 4]])
SINGLE_NODE = PathSet.from_sequences([[0, 1, 2], [3, 1, 4]])
# the shared nodes 1, 2, 3 are contiguous in both paths, in another order
REORDERED_RUN = PathSet.from_sequences([[0, 1, 2, 3], [5, 1, 3, 2, 6]])


@settings(max_examples=400, deadline=None)
@given(simple_path_sets())
@example(REVERSED_RUN)
@example(SPLIT_RUN)
@example(SINGLE_NODE)
@example(REORDERED_RUN)
def test_check_consistency_matches_pairwise_oracle(ps):
    ref = reference_check_consistency(ps)
    assert check_consistency(ps) == ref
    for limit in range(1, 6):
        report = check_consistency(ps, limit=limit)
        assert report.consistent == ref.consistent
        assert report.violations == ref.violations[:limit]


@settings(max_examples=400, deadline=None)
@given(simple_path_sets())
@example(REVERSED_RUN)
@example(SPLIT_RUN)
@example(SINGLE_NODE)
@example(REORDERED_RUN)
def test_q_lower_bound_matches_path_matrix_oracle(ps):
    assert q_lower_bound(ps) == reference_q_lower_bound(ps)


@settings(max_examples=300, deadline=None)
@given(simple_path_sets(), st.data())
def test_verify_segmentation_matches_oracle(ps, data):
    cuts = tuple(
        tuple(sorted(data.draw(st.sets(st.integers(0, len(p) - 1), max_size=3))))
        for p in ps.paths
    )
    q = data.draw(st.integers(1, 3))
    # split by hand: each cut node ends one segment and starts the next
    segments = []
    for p, path_cuts in zip(ps.paths, cuts):
        start = 0
        for c in path_cuts:
            segments.append(p[start : c + 1])
            start = c
        segments.append(p[start:])
    expected = all(len(c) < q for c in cuts) and (
        reference_check_consistency(PathSet(tuple(segments))).consistent
    )
    assert verify_segmentation(ps, cuts, q) is expected
