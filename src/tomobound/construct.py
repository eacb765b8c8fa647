"""Generators for bound-achieving instances.

The incremental-crossing generator emits node encodings in increasing order of
crossing number until the arbitrary-routing bound is met, then turns them into
a topology by letting path i traverse every node whose encoding has bit i set
and linking consecutive path nodes. The other generators (staircase half-grid,
monitoring trees, fat-trees) realize the consistent-routing and client/server
bounds structurally.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, tee
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._record import record
from .bounds import Rational, Scenario, bound, bound_single_server
from .identifiability import encoding_string, one_identifiable_set, testing_matrix
from .model import MATRIX_BYTES_GUARD, Graph, PathSet, build_graph
from .routing import walk_to_root

_ENUMERATION_GUARD = 2_000_000  # candidates tried over a whole top-layer search
_PAIR_GUARD = 1 << 20  # host pairs fat_tree_all_pair_paths routes; k=16 has 523,776
_SIZE_GUARD = 1 << 21  # path nodes in all of an ica, half_grid or monitoring_tree instance


class ConstructionError(RuntimeError):
    """The generator could not realize the requested instance."""


@record
class ConstructedInstance:
    """A generated topology, its monitoring paths and their testing matrix as
    ``encodings``. ``labels[i]`` names node i, for generators that name nodes."""

    graph: Graph
    paths: PathSet
    encodings: tuple[int, ...]
    meta: Mapping[str, object]
    labels: tuple[str, ...] = ()

    def encoding_strings(self) -> tuple[str, ...]:
        m = self.paths.m
        return tuple(encoding_string(b, m) for b in self.encodings)


def _mask(indices: Iterable[int]) -> int:
    """Encoding with exactly the given bits set."""
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def path_completion(
    members: frozenset[tuple[int, ...]], m: int, d: Sequence[int]
) -> frozenset[tuple[int, ...]]:
    """Fix up overlength paths by swapping one encoding for a heavier one.

    Each member is an encoding as the sorted indices of the paths through its
    node. With S the set of paths whose load sits one short of its target
    length, pick an encoding b' that avoids all of S, drawn from the members
    with |S| fewer paths than the heaviest layer, and replace it by b' with
    the S paths added. The swap exists whenever the members include the
    complete layers below the heaviest one; the eligible member first in
    ascending path-index (combination) order is swapped, so the choice is
    deterministic.
    """
    loads = Counter(chain.from_iterable(members))
    short = [k for k in range(m) if loads[k] == d[k] - 1]
    if not short:
        return members
    over = [k for k in range(m) if loads[k] > d[k]]
    if over:
        raise ConstructionError(f"paths {over} already exceed their target lengths")
    top = max(map(len, members))
    want = top + 1 - len(short)
    if want < 1:
        raise ConstructionError(
            f"{len(short)} overlength paths cannot be completed from crossing-{top} members"
        )
    avoid = set(short)
    eligible = [b for b in members if len(b) == want and avoid.isdisjoint(b)]
    if not eligible:
        raise ConstructionError("no eligible encoding found for path completion")
    candidate = min(eligible)
    # the swap has top + 1 paths, more than any member, so it is new
    return (members - {candidate}) | {tuple(sorted((*candidate, *short)))}


def _candidate_steps(
    m: int, width: int, taken: set[tuple[int, ...]]
) -> Callable[[Sequence[int]], Iterator[tuple[int, ...]]]:
    """Candidate source for one top-layer search: ``candidates(residual)``
    yields each width-subset of the paths with residual >= 1 that is not in
    ``taken``, largest residual profile first, ties by path index.

    The paths fall into classes by residual value, largest first. A subset's
    profile is fixed by how many paths it takes from each class, so count
    vectors in descending lexicographic order give the profiles from largest
    down; within one vector the subsets come in path-index order. ``residual``
    is read when ``candidates`` is called, ``taken`` as each subset is
    yielded: the search restores ``taken`` before it resumes a step. The memo
    is two ``functools.cache``s, each of ``itertools.tee`` origins that no
    reader advances: ``plan`` keeps each residual vector's groups, made as a
    step first reaches them, and ``group`` each group's subsets. A step reads
    copies, which share what was generated so far.
    """

    @cache
    def group(parts: tuple) -> Iterator[tuple[int, ...]]:
        subsets = combinations(*parts[0]) if len(parts) == 1 else _quota_subsets(parts)
        return tee(subsets, 1)[0]

    @cache
    def plan(residual: tuple[int, ...]) -> Iterator[Iterator[tuple[int, ...]]]:
        values = sorted({r for r in residual if r >= 1}, reverse=True)
        classes = [tuple(k for k in range(m) if residual[k] == v) for v in values]
        # count vectors class by class, largest count first, keeping only the
        # prefixes that the later classes can still fill
        vectors: list[tuple[int, ...]] = [()] if classes else []
        rest = sum(map(len, classes))
        for members in classes:
            rest -= len(members)
            vectors = [
                v + (c,)
                for v in vectors
                for c in range(min(len(members), width - sum(v)), -1, -1)
                if width - sum(v) - c <= rest
            ]
        return tee((group(tuple((members, c) for members, c in zip(classes, v) if c)) for v in vectors), 1)[0]

    def candidates(residual: Sequence[int]) -> Iterator[tuple[int, ...]]:
        groups = plan(tuple(residual)).__copy__()
        return (s for g in groups for s in g.__copy__() if s not in taken)

    return candidates


def _quota_subsets(parts: Sequence[tuple[tuple[int, ...], int]]) -> Iterator[tuple[int, ...]]:
    """Subsets taking ``count`` paths from each ``(members, count)`` class, in
    path-index order: a lexicographic walk over the merged classes that takes
    each path while its class still needs one, and on the way back leaves out
    the last taken path whose class has enough paths after it."""
    pool = sorted((k, j) for j, (members, _) in enumerate(parts) for k in members)
    left = [0] * len(pool)  # left[p]: paths of pool[p]'s class at p or later
    counts = [0] * len(parts)
    for p in range(len(pool) - 1, -1, -1):
        counts[pool[p][1]] += 1
        left[p] = counts[pool[p][1]]
    need = [count for _, count in parts]
    width = sum(need)
    chosen: list[int] = []
    p = 0
    while True:
        while len(chosen) < width:
            j = pool[p][1]
            if need[j]:
                need[j] -= 1
                chosen.append(p)
            p += 1
        yield tuple(pool[q][0] for q in chosen)
        while chosen:
            q = chosen.pop()
            j = pool[q][1]
            need[j] += 1
            if need[j] < left[q]:
                p = q + 1
                break
        else:
            return


def _arrange_top_layer(
    m: int, imax: int, residual: list[int], taken: set[tuple[int, ...]], target: int
) -> None:
    """Add ``target`` distinct crossing-(imax+1) encodings to ``taken`` without
    exceeding any path's residual target length.

    Candidates at each step are ordered by largest residual profile, ties by
    path index, and the search backtracks on dead ends (greedy alone can trap
    itself, e.g. six paths of residual 2 where the lexicographic choice leaves
    only an already-used pair). The first solution in this order is taken, so
    the result is deterministic. The search is depth-first over an explicit
    stack holding, per placed encoding, the iterator over its step's
    candidates. Each iterator generates its candidates lazily in that order
    (see :func:`_candidate_steps`), so a step costs only the candidates it
    consumes, not all C(eligible, imax+1) subsets.
    """
    candidates = _candidate_steps(m, imax + 1, taken)
    picked: list[tuple[int, ...]] = []
    pending: list[Iterator[tuple[int, ...]]] = []
    examined = 0
    while len(picked) < target:
        pending.append(candidates(residual))
        while (found := next(pending[-1], None)) is None:
            pending.pop()
            if not pending:
                raise ConstructionError(
                    f"arrangement cannot place {target} distinct top-layer encodings "
                    "within the per-path length targets"
                )
            undone = picked.pop()
            taken.discard(undone)
            for k in undone:
                residual[k] += 1
        examined += 1
        if examined > _ENUMERATION_GUARD:
            raise ConstructionError(
                "crossing-arrangement search space too large; "
                "reduce m or the requested average length"
            )
        for k in found:
            residual[k] -= 1
        taken.add(found)
        picked.append(found)


def _check_size(what: str, nodes: int, m: int = 0, n: int = 0) -> None:
    """Refuse, before any work, an instance whose paths hold more than
    _SIZE_GUARD nodes in all, or whose n encodings of m characters each, as
    the sidecar writes them, come to more than MATRIX_BYTES_GUARD characters.
    The second also bounds the testing matrix, whose n rows of ceil(m/8)
    bytes take at most n*m bytes."""
    if nodes > _SIZE_GUARD:
        raise ValueError(f"{what} has {nodes} path nodes, more than {_SIZE_GUARD} to build")
    if n * m > MATRIX_BYTES_GUARD:
        raise ValueError(f"{what} has {n} encodings of {m} characters, {n * m} in all, more than {MATRIX_BYTES_GUARD}")


def _instance(
    seqs: Sequence[Sequence[int]],
    meta: Mapping[str, object],
    labels: tuple[str, ...] = (),
) -> ConstructedInstance:
    """Instance over the given node sequences: the graph links consecutive path
    nodes, and each node's encoding is its testing-matrix column. A
    ConstructionError is raised unless the instance identifies exactly
    ``meta["bound"]`` nodes, the bound its generator meets."""
    path_set = PathSet.from_sequences(seqs)
    n = path_set.max_node_id() + 1
    steps = [step for p in path_set.paths for step in zip(p, p[1:])]
    graph = build_graph(steps, node_count=n)
    encodings = testing_matrix(path_set, n)
    if (phi1 := one_identifiable_set(encodings)[0]) != meta["bound"]:
        raise ConstructionError(f"{meta['kind']} identifies {phi1} nodes, its bound is {meta['bound']}")
    return ConstructedInstance(
        graph=graph, paths=path_set, encodings=encodings, meta=meta, labels=labels
    )


def ica(m: int, dbar: Rational) -> ConstructedInstance:
    """Incremental crossing arrangement: a topology meeting the arbitrary-routing
    bound exactly, with m paths of average length dbar.

    Complete crossing layers are taken up to the largest layer the budget
    admits, the remaining budget is spent greedily on the next layer, and a
    final completion swap settles paths left one node short of their target.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    dbar = Fraction(dbar)
    if dbar < 1:
        raise ValueError("average path length must be >= 1")
    what, nodes = f"ica m={m} dbar={dbar}", int(m * dbar)
    _check_size(what, nodes)
    if dbar > (1 << (m - 1)):
        raise ValueError(
            f"average length {dbar} > 2^(m-1) = {1 << (m - 1)}: "
            "longer paths would be forced to revisit duplicate encodings, "
            "so the bound cannot be met tightly"
        )
    budget = bound(Scenario.ARBITRARY_AVG, m, None, dbar)
    nmax, imax, psi = budget.n_max, budget.i_max, budget.bound
    _check_size(what, nodes, m, psi)  # the instance has psi nodes

    floor_d = int(dbar)
    m1 = int(m * (dbar - floor_d))
    lengths = [floor_d + 1 if i < m1 else floor_d for i in range(m)]

    taken: set[tuple[int, ...]] = set()
    for k in range(1, imax + 1):
        taken.update(combinations(range(m), k))
    per_path_base = sum(comb(m - 1, k - 1) for k in range(1, imax + 1))
    residual = [lengths[k] - per_path_base for k in range(m)]
    if any(r < 0 for r in residual):
        raise ConstructionError("complete layers already exceed a path's target length")

    target = psi - sum(comb(m, k) for k in range(1, imax + 1))
    if imax < m and target > 0:
        _arrange_top_layer(m, imax, residual, taken, target)
    elif target > 0:
        raise ConstructionError("budget demands encodings beyond the all-paths layer")

    before = frozenset(taken)
    members = path_completion(before, m, lengths)
    # crossing number first, then the path indices
    ordered = sorted(members, key=lambda b: (len(b), b))
    seqs: list[list[int]] = [[] for _ in range(m)]
    for j, b in enumerate(ordered):
        for i in b:
            seqs[i].append(j)
    loads = tuple(map(len, seqs))
    if list(loads) != lengths:
        raise ConstructionError(
            f"arrangement finished with per-path loads {loads}, wanted {lengths}"
        )
    meta: dict[str, object] = {
        "kind": "ica",
        "m": m,
        "dbar": str(dbar),
        "lengths": tuple(lengths),
        "n_max": nmax,
        "i_max": imax,
        "bound": psi,
        "path_completion": members != before,
    }
    if members != before:
        meta["replaced"] = (
            encoding_string(_mask(next(iter(before - members))), m),
            encoding_string(_mask(next(iter(members - before))), m),
        )
    return _instance(seqs, meta, tuple(encoding_string(_mask(b), m) for b in ordered))


# ---------------------------------------------------------------------------
# Half-grid
# ---------------------------------------------------------------------------


def _half_grid_ids(m: int) -> dict[tuple[int, int], int]:
    """Node ids for the half-grid: key (i, j) with i < j is the node shared by
    paths i and j, key (i, i) the private node of path i (0-based paths)."""
    ids: dict[tuple[int, int], int] = {}
    next_id = 0
    for i in range(m):
        for j in range(i + 1, m):
            ids[(i, j)] = next_id
            next_id += 1
        ids[(i, i)] = next_id
        next_id += 1
    return ids


def half_grid(m: int) -> ConstructedInstance:
    """Staircase topology with one node per path pair and per path: m(m+1)/2
    nodes, every path of length m, consistent routing, all nodes identifiable.

    Path i starts at its private node and then meets the other paths in
    descending index order, which stacks the shared nodes into the staircase.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # the consistent-routing bound with every path of length m, which is
    # m(m+1)/2; its theorem needs m >= 2, and one path over one node identifies it
    expected = bound(Scenario.CONSISTENT_AVG, m, None, d=m).bound if m > 1 else 1
    _check_size(f"half-grid m={m}", m * m, m, expected)
    ids = _half_grid_ids(m)
    seqs = []
    for i in range(m):
        seq = [ids[(i, i)]]
        for j in range(m - 1, -1, -1):
            if j == i:
                continue
            seq.append(ids[(min(i, j), max(i, j))])
        seqs.append(seq)
    # ids hands out node ids in insertion order
    labels = tuple(f"p{i + 1}" if i == j else f"p{i + 1}*p{j + 1}" for i, j in ids)
    meta = {"kind": "half-grid", "m": m, "dbar": str(m), "bound": expected}
    return _instance(seqs, meta, labels)


# ---------------------------------------------------------------------------
# Monitoring trees (single server)
# ---------------------------------------------------------------------------


def _grow_full_binary(parent: list[int], root: int, leaves: int) -> list[int]:
    """Attach a minimum-depth full binary tree with the given leaf count under
    ``root``; returns the leaf node ids. Splitting ceil/floor keeps the depth
    at ceil(log2 leaves)."""
    if leaves == 1:
        return [root]
    left = (leaves + 1) // 2
    right = leaves - left
    out = []
    for count in (left, right):
        child = len(parent)
        parent.append(root)
        out.extend(_grow_full_binary(parent, child, count))
    return out


def monitoring_tree(m: int, d_max: int) -> ConstructedInstance:
    """Root-anchored tree of m leaf-to-root paths maximizing identifiable nodes
    under the path-length cap; matches the single-server bound exactly.

    When the cap allows, this is a full binary tree with m leaves; otherwise a
    common root joins floor(m / 2^(d_max-2)) perfect subtrees of maximal depth
    plus one smaller full subtree for the leftover leaves.
    """
    expected = bound_single_server(m, None, d_max).bound
    depth = (m - 1).bit_length() + 1  # of a minimum-depth full binary tree with m leaves
    cap_ok = d_max >= depth
    _check_size(f"monitoring-tree m={m} d_max={d_max}", m * min(d_max, depth), m, expected)
    parent: list[int] = [0]  # node 0 is the root, its own parent
    if cap_ok:
        leaves = _grow_full_binary(parent, 0, m)
    else:
        width = 1 << (d_max - 2)
        leaves = []
        for first in range(0, m, width):  # a sub-root per width leaves, the last one per the rest
            sub = len(parent)
            parent.append(0)
            leaves.extend(_grow_full_binary(parent, sub, min(width, m - first)))
    meta = {"kind": "monitoring-tree", "m": m, "d_max": d_max, "bound": expected}
    return _instance([walk_to_root(parent, leaf) for leaf in leaves], meta)


# ---------------------------------------------------------------------------
# Fat-trees
# ---------------------------------------------------------------------------


@record
class FatTree:
    """Three-layer fat-tree of k-port switches with the usual pod addressing:
    edge/aggregation switches are 10.pod.switch.1, cores 10.k.j.i, hosts
    10.pod.switch.{2..k/2+1}.

    Node ids, which ``construct fat-tree`` writes, follow one layout: first the
    (k/2)^2 cores row by row (10.k.1.1, 10.k.1.2, ...), then pod by pod its k/2
    aggregation switches (switch k/2..k-1), its k/2 edge switches (switch
    0..k/2-1) and its (k/2)^2 hosts, edge switch by edge switch.
    """

    k: int
    graph: Graph
    core: tuple[int, ...]
    aggregation: tuple[int, ...]
    edge: tuple[int, ...]
    hosts: tuple[int, ...]
    address_of: tuple[str, ...]  # node id -> address
    ids: Mapping[str, int]  # address -> node id

    def node_for(self, which: int | str) -> int:
        if isinstance(which, int):
            return which
        if not isinstance(which, str) or which not in self.ids:
            raise ValueError(f"{which!r} is neither a node id nor a fat-tree address")
        return self.ids[which]


def _core_id(k: int, j: int, i: int) -> int:
    """Id of core 10.k.j.i, for j and i in 1..k/2."""
    return (j - 1) * (k // 2) + i - 1


def _pod_base(k: int, pod: int) -> int:
    """Id of the first switch of a pod: each pod holds k switches and (k/2)^2 hosts."""
    half = k // 2
    return half * half + pod * (k + half * half)


def _switch_id(k: int, pod: int, sw: int) -> int:
    """Id of switch sw of a pod: aggregation for sw >= k/2, edge below."""
    # edge and aggregation switches share the address form 10.pod.switch.1
    return _pod_base(k, pod) + (sw + k // 2) % k


def _host_id(k: int, pod: int, sw: int, h: int) -> int:
    """Id of host 10.pod.sw.h, for h in 2..k/2+1."""
    return _pod_base(k, pod) + k + sw * (k // 2) + h - 2


def _host_address(k: int, node: int) -> tuple[int, int, int]:
    """(pod, sw, h) of the host with id ``node``, the inverse of :func:`_host_id`."""
    half = k // 2
    pod, offset = divmod(node - half * half, k + half * half)
    if not (0 <= pod < k and offset >= k):
        raise ValueError("both endpoints must be hosts")
    sw, h = divmod(offset - k, half)
    return pod, sw, h + 2


def fat_tree(k: int) -> FatTree:
    """Build the k-ary three-layer fat-tree: k pods of k/2 edge and k/2
    aggregation switches, (k/2)^2 cores, and k/2 hosts per edge switch."""
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    half = k // 2
    labels: dict[int, str] = {}
    for j in range(1, half + 1):
        for i in range(1, half + 1):
            labels[_core_id(k, j, i)] = f"10.{k}.{j}.{i}"
    for pod in range(k):
        for sw in [*range(half, k), *range(half)]:
            labels[_switch_id(k, pod, sw)] = f"10.{pod}.{sw}.1"
        for sw in range(half):
            for h in range(2, half + 2):
                labels[_host_id(k, pod, sw, h)] = f"10.{pod}.{sw}.{h}"

    edges: list[tuple[int, int]] = []
    for pod in range(k):
        for sw in range(half):
            for a in range(half, k):
                edges.append((_switch_id(k, pod, sw), _switch_id(k, pod, a)))
            for h in range(2, half + 2):
                edges.append((_switch_id(k, pod, sw), _host_id(k, pod, sw, h)))
        for a in range(half, k):
            j = a - half + 1  # aggregation row: connects to cores 10.k.j.*
            for i in range(1, half + 1):
                edges.append((_switch_id(k, pod, a), _core_id(k, j, i)))
    graph = build_graph(edges, node_count=len(labels))
    pods = [range(_pod_base(k, pod), _pod_base(k, pod + 1)) for pod in range(k)]
    return FatTree(
        k=k,
        graph=graph,
        core=tuple(range(half * half)),
        aggregation=tuple(node for ids in pods for node in ids[:half]),
        edge=tuple(node for ids in pods for node in ids[half:k]),
        hosts=tuple(node for ids in pods for node in ids[k:]),
        address_of=tuple(labels[node] for node in range(len(labels))),
        ids={addr: node for node, addr in labels.items()},
    )


def fat_tree_route(ft: FatTree, src: int | str, dst: int | str) -> tuple[int, ...]:
    """Shortest host-to-host route under two-level suffix forwarding.

    On the way up, each switch picks its uplink from the destination host's
    last address byte offset by the switch's own position, which spreads
    traffic over aggregation and core switches exactly as the fat-tree's
    two-level routing tables do; the downward part of the route is forced by
    the topology.
    """
    s = ft.node_for(src)
    t = ft.node_for(dst)
    s_addr = _host_address(ft.k, s)
    t_addr = _host_address(ft.k, t)
    if s == t:
        raise ValueError("source and destination hosts coincide")
    return _route(ft.k, s, s_addr, t, t_addr)


def _route(
    k: int, s: int, s_addr: tuple[int, int, int], t: int, t_addr: tuple[int, int, int]
) -> tuple[int, ...]:
    """Node ids of :func:`fat_tree_route`'s route between distinct hosts s and
    t, given their :func:`_host_address` results."""
    half = k // 2
    sp, se, _ = s_addr
    tp, te, th = t_addr
    if sp == tp and se == te:
        return (s, _switch_id(k, sp, se), t)
    a_byte = half + (th - 2 + se) % half
    up = (s, _switch_id(k, sp, se), _switch_id(k, sp, a_byte))
    down = (_switch_id(k, tp, te), t)
    if sp == tp:
        return up + down
    core_i = 1 + (th - 2 + a_byte) % half
    core_j = a_byte - half + 1
    return up + (_core_id(k, core_j, core_i), _switch_id(k, tp, a_byte)) + down


def fat_tree_all_pair_paths(ft: FatTree) -> PathSet:
    """Routes for every unordered host pair, in ascending (src, dst) id order."""
    k, n_hosts = ft.k, len(ft.hosts)
    if (pairs := n_hosts * (n_hosts - 1) // 2) > _PAIR_GUARD:
        raise ValueError(f"fat-tree k={k} has {pairs} host pairs, more than {_PAIR_GUARD} to route")
    hosts = [(h, _host_address(k, h)) for h in ft.hosts]
    return PathSet(
        tuple(
            _route(k, s, s_addr, t, t_addr)
            for idx, (s, s_addr) in enumerate(hosts)
            for t, t_addr in hosts[idx + 1 :]
        )
    )
