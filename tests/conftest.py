"""Shared test helpers: independent brute-force oracles and random instances.

The oracles here deliberately re-derive results from first principles (direct
quantifier enumeration, literal formula evaluation) so library optimizations
are checked against something they do not share code with.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations

import tomobound.construct
import tomobound.identifiability
from tomobound.construct import ConstructionError
from tomobound.model import Graph, PathSet, PathViolation, _norm_edge, build_graph
from tomobound.routing import ConsistencyReport, ConsistencyViolation, _require_simple

# keep pytest from collecting the library function whose name starts with "test"
tomobound.identifiability.testing_matrix.__test__ = False


def adjacency(g: Graph) -> dict[int, list[int]]:
    """Fresh adjacency map with sorted neighbour lists, built from the edge set."""
    adj: dict[int, list[int]] = {u: [] for u in range(g.node_count)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def brute_force_k_identifiable(t: tuple[int, ...], v: int, k: int) -> bool:
    """Literal evaluation: for all F1, F2 with |Fj| <= k and F1 and F2 differing
    on v, the ORs of member encodings (the columns of ``t``) must differ."""
    subsets = [()]
    for size in range(1, k + 1):
        subsets.extend(combinations(range(len(t)), size))

    def sig(fs):
        out = 0
        for j in fs:
            out |= t[j]
        return out

    for f1 in subsets:
        for f2 in subsets:
            if (v in f1) == (v in f2):
                continue
            if sig(f1) == sig(f2):
                return False
    return True


def brute_force_k_identifiable_set(t: tuple[int, ...], k: int) -> set[int]:
    return {v for v in range(len(t)) if brute_force_k_identifiable(t, v, k)}


def reference_encoding_string(bits: int, m: int) -> str:
    """Bit by bit, path 0 leftmost: the loop ``encoding_string`` ran before it
    formatted the int in one call."""
    return "".join("1" if bits >> i & 1 else "0" for i in range(m))


def reference_testing_matrix(ps: PathSet, n: int) -> tuple[int, ...]:
    """OR ``1 << i`` into node u's column at every incidence of path i, checking
    each id as it is met: the loop ``testing_matrix`` ran before it built each
    column once."""
    cols = [0] * n
    for i, p in enumerate(ps.paths):
        for u in p:
            if u >= n:
                raise ValueError(f"path {i} references node {u} >= n={n}")
            cols[u] |= 1 << i
    return tuple(cols)


def reference_validate_path_set(g: Graph, ps: PathSet, require_simple: bool = False) -> list[PathViolation]:
    """Walk every path node by node and step by step, with no whole-set test
    in front: out-of-range ids first, then non-adjacent steps between
    in-range nodes, then (on request) each repeated node once."""
    out: list[PathViolation] = []
    for i, p in enumerate(ps.paths):
        reported: set[int] = set()
        for u in p:
            if u >= g.node_count and u not in reported:
                reported.add(u)
                out.append(PathViolation(i, "node-out-of-range", (u,)))
        for a in range(len(p) - 1):
            u, v = p[a], p[a + 1]
            if u < g.node_count and v < g.node_count and _norm_edge(u, v) not in g.edges:
                out.append(PathViolation(i, "non-adjacent-step", (u, v)))
        if require_simple:
            counts: dict[int, int] = {}
            for u in p:
                counts[u] = counts.get(u, 0) + 1
                if counts[u] == 2:
                    out.append(PathViolation(i, "repeated-node", (u,)))
    return out


def reference_one_identifiable_set(t: tuple[int, ...]) -> tuple[int, frozenset[int]]:
    """Count every column, zero ones included, then keep the nonzero columns
    seen exactly once: the loop ``one_identifiable_set`` ran before it skipped
    zero columns."""
    seen: dict[int, int] = {}
    for c in t:
        seen[c] = seen.get(c, 0) + 1
    ident = frozenset(j for j, c in enumerate(t) if c != 0 and seen[c] == 1)
    return len(ident), ident


def random_instance(rng: random.Random, max_n: int = 12, max_m: int = 4):
    """A random (graph, path set) pair: random walks over a random connected graph."""
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):  # random spanning tree keeps it connected
        edges.add((min(a, b), max(a, b)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    g = build_graph(sorted(edges), node_count=n)
    adj = adjacency(g)
    paths = []
    for _ in range(m):
        start = rng.randrange(n)
        seq = [start]
        seen = {start}
        length = rng.randint(1, max(1, n // 2))
        while len(seq) < length:
            steps = [w for w in adj[seq[-1]] if w not in seen]
            if not steps:
                break
            nxt = rng.choice(steps)
            seq.append(nxt)
            seen.add(nxt)
        paths.append(tuple(seq))
    return g, PathSet(tuple(paths))


def random_connected_graph(rng: random.Random, max_n: int = 40):
    n = rng.randint(2, max_n)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return build_graph(sorted(edges), node_count=n)


def _edge_costs(g: Graph) -> dict[tuple[int, int], int]:
    """Deterministic edge costs making every shortest path unique.

    Each edge costs hop_unit + 2^rank with hop_unit = 2^|E|, so path cost
    compares by hop count first and then by the edge set itself; two distinct
    simple paths always differ in some edge, hence in cost. Sub-paths of the
    unique cheapest path are themselves unique cheapest, which is exactly the
    consistent-routing property.
    """
    hop_unit = 1 << len(g.edges)
    return {e: hop_unit | (1 << rank) for rank, e in enumerate(sorted(g.edges))}


def reference_shortest_path_tree(g: Graph, src: int) -> dict[int, int]:
    """Weighted-Dijkstra oracle for ``routing.shortest_path_tree``: the hop
    count and the edge-set order are folded into one |E|-bit cost per edge.
    The map lists nodes in the order a plain breadth-first search over sorted
    neighbour lists meets them, the order the router's map promises."""
    costs = _edge_costs(g)
    adj = adjacency(g)
    dist: dict[int, int] = {src: 0}
    parent: dict[int, int] = {src: src}
    heap: list[tuple[int, int]] = [(0, src)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in adj[u]:
            nd = d + costs[_norm_edge(u, v)]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    order = [src]
    seen = {src}
    for u in order:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
    return {v: parent[v] for v in order}


def reference_arrange_top_layer(
    m: int, imax: int, residual: list[int], taken: set[int], target: int
) -> list[int]:
    """Emit ``target`` distinct crossing-(imax+1) encodings without exceeding
    any path's residual target length.

    Candidates at each step are ordered by largest residual profile, ties by
    path index, and the search backtracks on dead ends (greedy alone can trap
    itself, e.g. six paths of residual 2 where the lexicographic choice leaves
    only an already-used pair). The first solution in this order is returned,
    so the result is deterministic.
    """
    width = imax + 1
    picked: list[int] = []
    examined = 0

    def step() -> bool:
        nonlocal examined
        if len(picked) == target:
            return True
        eligible = [k for k in range(m) if residual[k] >= 1]
        if len(eligible) < width:
            return False
        candidates = []
        for subset in combinations(eligible, width):
            bits = 0
            for k in subset:
                bits |= 1 << k
            if bits in taken:
                continue
            profile = tuple(sorted((residual[k] for k in subset), reverse=True))
            candidates.append((tuple(-x for x in profile), subset, bits))
        candidates.sort()
        for _, subset, bits in candidates:
            examined += 1
            if examined > tomobound.construct._ENUMERATION_GUARD:
                raise ConstructionError(
                    "crossing-arrangement search space too large; "
                    "reduce m or the requested average length"
                )
            for k in subset:
                residual[k] -= 1
            taken.add(bits)
            picked.append(bits)
            if step():
                return True
            picked.pop()
            taken.discard(bits)
            for k in subset:
                residual[k] += 1
        return False

    if not step():
        raise ConstructionError(
            f"arrangement cannot place {target} distinct top-layer encodings "
            "within the per-path length targets"
        )
    return picked


def reference_candidate_order(
    m: int, width: int, residual: list[int], taken: set[int]
) -> list[tuple[int, ...]]:
    """The candidates of one top-layer search step as the search once built
    them: every width-subset of the paths with residual >= 1 that is not
    taken, stably sorted by residual profile, largest first, over the
    lexicographic combinations."""
    eligible = [k for k in range(m) if residual[k] >= 1]
    candidates = [
        s for s in combinations(eligible, width) if sum(1 << k for k in s) not in taken
    ]
    return sorted(candidates, key=lambda s: sorted(-residual[k] for k in s))


def reference_check_consistency(ps: PathSet) -> ConsistencyReport:
    """Compare the sub-path between every shared node pair of every path pair.

    The u-to-v sub-path of the second path is reversed when it traverses v
    first. Every counterexample is reported, not just the first.
    """
    _require_simple(ps)
    positions = [{u: idx for idx, u in enumerate(p)} for p in ps.paths]
    violations: list[ConsistencyViolation] = []
    for i in range(ps.m):
        for j in range(i + 1, ps.m):
            shared = sorted(
                positions[i].keys() & positions[j].keys(), key=positions[i].__getitem__
            )
            for a in range(len(shared)):
                for b in range(a + 1, len(shared)):
                    u, v = shared[a], shared[b]
                    sub_i = ps.paths[i][positions[i][u] : positions[i][v] + 1]
                    pj_u, pj_v = positions[j][u], positions[j][v]
                    if pj_u <= pj_v:
                        sub_j = ps.paths[j][pj_u : pj_v + 1]
                    else:
                        sub_j = tuple(reversed(ps.paths[j][pj_v : pj_u + 1]))
                    if sub_i != sub_j:
                        violations.append(
                            ConsistencyViolation(i, j, u, v, sub_i, sub_j)
                        )
    return ConsistencyReport(consistent=not violations, violations=tuple(violations))


def reference_q_lower_bound(ps: PathSet) -> int:
    """The most maximal runs of consecutive nodes that one path shares with
    any path (itself included), counted node by node down the first path; at
    least 1."""
    _require_simple(ps)
    worst = 1
    for p in ps.paths:
        for other in ps.paths:
            on = set(other)
            runs = 0
            prev = False
            for u in p:
                if u in on and not prev:
                    runs += 1
                prev = u in on
            worst = max(worst, runs)
    return worst
