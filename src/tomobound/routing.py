"""Routing-consistency verification and consistent shortest-path generation.

A path set is consistent when any two paths sharing two nodes follow the same
sub-path between them; paths are treated as undirected sequences, so a shared
sub-path traversed in opposite directions still counts as the same route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .identifiability import column_run_counts, path_matrix, testing_matrix
from .model import Graph, MonitoringPath, PathSet, _norm_edge


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    violations: tuple[ConsistencyViolation, ...]


def _require_simple(ps: PathSet) -> None:
    for i, p in enumerate(ps.paths):
        if not p.is_simple:
            raise ValueError(f"path {i} repeats a node; consistency is defined on simple paths")


def check_consistency(ps: PathSet) -> ConsistencyReport:
    """Compare the sub-path between every shared node pair of every path pair.

    The u-to-v sub-path of the second path is reversed when it traverses v
    first. Every counterexample is reported, not just the first.
    """
    _require_simple(ps)
    positions = [{u: idx for idx, u in enumerate(p.nodes)} for p in ps.paths]
    violations: list[ConsistencyViolation] = []
    for i in range(ps.m):
        for j in range(i + 1, ps.m):
            shared = sorted(
                positions[i].keys() & positions[j].keys(), key=positions[i].__getitem__
            )
            for a in range(len(shared)):
                for b in range(a + 1, len(shared)):
                    u, v = shared[a], shared[b]
                    sub_i = ps.paths[i].nodes[positions[i][u] : positions[i][v] + 1]
                    pj_u, pj_v = positions[j][u], positions[j][v]
                    if pj_u <= pj_v:
                        sub_j = ps.paths[j].nodes[pj_u : pj_v + 1]
                    else:
                        sub_j = tuple(reversed(ps.paths[j].nodes[pj_v : pj_u + 1]))
                    if sub_i != sub_j:
                        violations.append(
                            ConsistencyViolation(i, j, u, v, sub_i, sub_j)
                        )
    return ConsistencyReport(consistent=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class Segmentation:
    """Per-path cut positions splitting each path into consecutive segments.

    A cut at position c ends one segment at node c and starts the next at the
    same node, so the cut node belongs to both adjacent segments (the fat-tree
    upper node is used this way).
    """

    cuts: tuple[tuple[int, ...], ...]

    @classmethod
    def no_cuts(cls, ps: PathSet) -> "Segmentation":
        return cls(cuts=tuple(() for _ in ps.paths))

    @classmethod
    def at_midpoints(cls, ps: PathSet) -> "Segmentation":
        """Cut every path of three or more nodes at its middle node."""
        return cls(
            cuts=tuple((len(p) // 2,) if len(p) >= 3 else () for p in ps.paths)
        )

    def validate(self, ps: PathSet) -> None:
        if len(self.cuts) != ps.m:
            raise ValueError(f"segmentation covers {len(self.cuts)} paths, path set has {ps.m}")
        for i, (p, cuts) in enumerate(zip(ps.paths, self.cuts)):
            if any(c < 0 or c >= len(p) for c in cuts):
                raise ValueError(f"path {i}: cut position out of bounds")
            if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
                raise ValueError(f"path {i}: cut positions must be strictly increasing")

    def segments_of(self, ps: PathSet, i: int) -> list[tuple[int, ...]]:
        nodes = ps.paths[i].nodes
        bounds = [0, *self.cuts[i], len(nodes) - 1]
        return [
            nodes[a : b + 1]
            for a, b in zip(bounds, bounds[1:])
            if b >= a
        ]


def verify_segmentation(ps: PathSet, seg: Segmentation, q: int) -> bool:
    """True iff every path splits into at most q segments whose union is consistent."""
    if q < 1:
        raise ValueError("q must be >= 1")
    seg.validate(ps)
    all_segments: list[tuple[int, ...]] = []
    for i in range(ps.m):
        segments = seg.segments_of(ps, i)
        if len(segments) > q:
            return False
        all_segments.extend(segments)
    segment_set = PathSet(tuple(MonitoringPath(s) for s in all_segments))
    return check_consistency(segment_set).consistent


def q_lower_bound(ps: PathSet) -> int:
    """Necessary q for any valid segmentation: the worst run count of ones over
    all path-matrix columns. Witness only; no segmentation search is attempted."""
    _require_simple(ps)
    n = ps.max_node_id() + 1
    t = testing_matrix(ps, n)
    worst = 1
    for i in range(ps.m):
        worst = max(worst, max(column_run_counts(path_matrix(ps, t, i))))
    return worst


def shortest_path_tree(g: Graph, src: int) -> dict[int, int]:
    """Parent map of the canonical shortest-path tree rooted at ``src``.

    A canonical path has the fewest hops and, among those, the smallest edge
    set, read as the integer with bit ``rank(e)`` set for each edge e in sorted
    edge order; distinct simple paths differ in an edge, so it is unique. Its
    sub-paths are canonical, which is the consistent-routing property: a
    shortest a-b route with a smaller integer, spliced into a shortest s-t path
    P through a and b, gives an s-t walk as short as P, hence a simple path,
    whose integer is smaller than P's. So the search runs breadth-first by hop
    layers, each node keeping its tree path's edge bitmask, and a node v first
    reached in layer d takes the layer d-1 neighbour u with the smallest
    ``mask(u) | bit(u, v)``. The map lists every node reachable from ``src``
    after its parent, with ``src`` first as its own parent.
    """
    bit = {e: 1 << rank for rank, e in enumerate(sorted(g.edges))}
    adj = g.adjacency()
    parent: dict[int, int] = {src: src}
    layer: dict[int, int] = {src: 0}  # node -> edge mask of its tree path
    while layer:
        nxt: dict[int, int] = {}
        for u, mask in layer.items():
            for v in adj[u]:
                if v in parent and v not in nxt:
                    continue
                key = mask | bit[_norm_edge(u, v)]
                if v not in nxt or key < nxt[v]:
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
    paths: list[MonitoringPath] = []
    for src, dst in pairs:
        for node in (src, dst):
            if not 0 <= node < g.node_count:
                raise ValueError(f"node {node} out of range")
        if src not in trees:
            trees[src] = shortest_path_tree(g, src)
        parent = trees[src]
        if dst not in parent:
            raise ValueError(f"nodes {src} and {dst} are disconnected")
        paths.append(MonitoringPath(tuple(reversed(walk_to_root(parent, dst)))))
    return PathSet(tuple(paths))
