"""Routing-consistency verification and consistent shortest-path generation.

A path set is consistent when any two paths sharing two nodes follow the same
sub-path between them; paths are treated as undirected sequences, so a shared
sub-path traversed in opposite directions still counts as the same route.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

from ._record import record
from .identifiability import testing_matrix
from .model import Edge, Graph, PathSet, _norm_edge


@record
class ConsistencyViolation:
    """Two paths that route differently between a shared node pair."""

    path_i: int
    path_j: int
    u: int
    v: int
    sub_i: tuple[int, ...]
    sub_j: tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"paths {self.path_i} and {self.path_j} diverge between {self.u} and {self.v}: "
            f"{list(self.sub_i)} vs {list(self.sub_j)}"
        )


@record
class ConsistencyReport:
    consistent: bool
    violations: tuple[ConsistencyViolation, ...]


def _require_simple(ps: PathSet) -> None:
    for i, p in enumerate(ps.paths):
        if len(set(p)) != len(p):
            raise ValueError(f"path {i} repeats a node; consistency is defined on simple paths")


def _run_levels(cross: Sequence[int], nodes: tuple[int, ...]) -> list[int]:
    """Bit-sliced run counts along ``nodes``: levels[r] holds the paths in at
    least r + 1 entry masks c(u_a) & ~c(u_{a-1}), i.e. sharing that many runs."""
    levels: list[int] = []
    prev = 0
    for u in nodes:
        carry, prev = cross[u] & ~prev, cross[u]
        for r, level in enumerate(levels):
            levels[r], carry = level | carry, carry & level
            if not carry:
                break
        if carry:
            levels.append(carry)
    return levels


def check_consistency(ps: PathSet, limit: int | None = None) -> ConsistencyReport:
    """Every shared node pair of every path pair whose sub-paths differ, in
    (i, j, u, v) order, the second sub-path read from u to v; with ``limit``
    set, only the first ``limit`` of them.

    Two simple paths route alike exactly when their shared nodes are
    consecutive in the first and step by +1 throughout, or by -1 throughout,
    in the second (the run test); only pairs that fail it are compared. Path j
    fails it with path i exactly when bit j is in level 2 of i's run counts
    (two runs in i) or in c(u_{a-1}) & c(u_a) & ~step(u_{a-1}, u_a) for a step
    of i: with one run, the consecutive shared pairs are the steps of i whose
    ends j crosses, and distinct positions in j that step by 1 cannot turn
    back, so j passes iff it takes each such step; one shared node sets neither."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got limit={limit}")
    _require_simple(ps)
    # path bitsets, bit i for path i: node -> the paths that cross it (the
    # testing-matrix columns), and normalised step (u, v) -> the paths that
    # take u and v consecutively
    cross = testing_matrix(ps, ps.max_node_id() + 1)
    step: dict[Edge, int] = {}
    for i, p in enumerate(ps.paths):
        for e in map(_norm_edge, p, p[1:]):
            step[e] = step.get(e, 0) | 1 << i
    violations: list[ConsistencyViolation] = []
    for i, nodes in enumerate(ps.paths):
        failing = sum(_run_levels(cross, nodes)[1:2])  # level 2, if there is one
        for u, v in zip(nodes, nodes[1:]):
            failing |= cross[u] & cross[v] & ~step[_norm_edge(u, v)]
        failing >>= i + 1  # bit b is now path i + 1 + b
        while failing:
            j = i + (failing & -failing).bit_length()
            failing &= failing - 1
            at = {u: b for b, u in enumerate(ps.paths[j])}
            run = [a for a, u in enumerate(nodes) if u in at]
            at_j = [at[nodes[a]] for a in run]
            for a, b in combinations(range(len(run)), 2):
                sub_i = nodes[run[a] : run[b] + 1]
                lo, hi = sorted((at_j[a], at_j[b]))
                sub_j = ps.paths[j][lo : hi + 1][:: 1 if lo == at_j[a] else -1]
                if sub_i != sub_j:
                    violations.append(ConsistencyViolation(i, j, sub_i[0], sub_i[-1], sub_i, sub_j))
                    if len(violations) == limit:
                        return ConsistencyReport(consistent=False, violations=tuple(violations))
    return ConsistencyReport(consistent=not violations, violations=tuple(violations))


def midpoint_cuts(ps: PathSet) -> tuple[tuple[int, ...], ...]:
    """Cut every path of three or more nodes at its middle node."""
    return tuple((len(p) // 2,) if len(p) >= 3 else () for p in ps.paths)


def verify_segmentation(ps: PathSet, cuts: Sequence[Sequence[int]], q: int) -> bool:
    """True iff every path splits into at most q segments whose union is consistent.

    ``cuts[i]`` holds the strictly increasing cut positions of path i. A cut
    at position c ends one segment at node c and starts the next at the same
    node, so the cut node belongs to both adjacent segments (the fat-tree
    upper node is used this way), and c cuts make c + 1 segments.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if len(cuts) != ps.m:
        raise ValueError(f"segmentation covers {len(cuts)} paths, path set has {ps.m}")
    segments: list[tuple[int, ...]] = []
    for i, (p, path_cuts) in enumerate(zip(ps.paths, cuts)):
        if any(c < 0 or c >= len(p) for c in path_cuts):
            raise ValueError(f"path {i}: cut position out of bounds")
        if any(c2 <= c1 for c1, c2 in zip(path_cuts, path_cuts[1:])):
            raise ValueError(f"path {i}: cut positions must be strictly increasing")
        bounds = [0, *path_cuts, len(p) - 1]
        segments.extend(p[a : b + 1] for a, b in zip(bounds, bounds[1:]))
    if any(len(path_cuts) >= q for path_cuts in cuts):
        return False
    return check_consistency(PathSet(tuple(segments)), limit=1).consistent


def q_lower_bound(ps: PathSet) -> int:
    """Necessary q for any valid segmentation: the most maximal runs of nodes
    that one path shares with another (itself included), i.e. the deepest
    level of any path's bit-sliced run counts. Witness only; no search."""
    _require_simple(ps)
    cross = testing_matrix(ps, ps.max_node_id() + 1)
    return max(len(_run_levels(cross, p)) for p in ps.paths)


def shortest_path_tree(g: Graph, src: int, max_hops: int | None = None) -> dict[int, int]:
    """Parent map of the canonical shortest-path tree rooted at ``src``, cut
    after ``max_hops`` hop layers when that is given.

    A canonical path has the fewest hops and, among those, the smallest edge
    set, read as the integer with bit ``rank(e)`` set for each edge e in sorted
    edge order; distinct simple paths differ in an edge, so it is unique. Its
    sub-paths are canonical, which is the consistent-routing property: a
    shortest a-b route with a smaller integer, spliced into a shortest s-t path
    P through a and b, gives an s-t walk as short as P, hence a simple path,
    whose integer is smaller than P's. So the search runs breadth-first by hop
    layers, each node keeping its tree path's edge bitmask, and a node v first
    reached in layer d takes the layer d-1 neighbour u with the smallest
    ``mask(u) | 1 << rank(u, v)``, the bit formed from the rank that
    ``Graph.neighbours`` stores. The map lists every node reachable from
    ``src`` (within ``max_hops`` hops) after its parent, with ``src`` first as
    its own parent; a cut map is the full one restricted to those nodes.
    """
    if not 0 <= src < g.node_count:
        raise ValueError(f"node {src} out of range")
    if max_hops is not None and max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got max_hops={max_hops}")
    neighbours = g.neighbours
    parent: dict[int, int] = {src: src}
    depth = [g.node_count] * g.node_count  # hop layer once reached; above every layer till then
    depth[src] = hops = 0
    layer: dict[int, int] = {src: 0}  # node -> edge mask of its tree path
    while layer and hops != max_hops:
        hops += 1
        nxt: dict[int, int] = {}
        for u, mask in layer.items():
            for v, rank in neighbours[u]:
                d = depth[v]
                if d < hops:
                    continue
                key = mask | 1 << rank
                if d > hops or key < nxt[v]:
                    depth[v] = hops
                    nxt[v] = key
                    parent[v] = u
        layer = nxt
    return parent


def walk_to_root(parent: Mapping[int, int] | Sequence[int], node: int) -> list[int]:
    """Nodes from ``node`` up to the root of a parent map whose root is its own parent."""
    seq = [node]
    while parent[node] != node:
        node = parent[node]
        seq.append(node)
    return seq


def consistent_shortest_paths(g: Graph, pairs: Sequence[tuple[int, int]]) -> PathSet:
    """Canonical shortest paths for the given (src, dst) pairs.

    Ties between equal-hop routes are broken by a fixed order on edge sets, so
    the chosen path between any two nodes is unique and symmetric; the
    returned set always passes :func:`check_consistency`.
    """
    if not pairs:
        raise ValueError("no pairs given")
    trees: dict[int, dict[int, int]] = {}
    paths: list[tuple[int, ...]] = []
    for src, dst in pairs:
        for node in (src, dst):
            if not 0 <= node < g.node_count:
                raise ValueError(f"node {node} out of range")
        if src not in trees:
            trees[src] = shortest_path_tree(g, src)
        parent = trees[src]
        if dst not in parent:
            raise ValueError(f"nodes {src} and {dst} are disconnected")
        paths.append(tuple(reversed(walk_to_root(parent, dst))))
    return PathSet(tuple(paths))
