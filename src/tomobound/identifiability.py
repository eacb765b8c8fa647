"""Testing matrices, node encodings, and failure identifiability.

Encodings are bit vectors keyed by path index in path-set order: bit ``i`` of
a node's encoding is set iff path ``i`` traverses the node. A node traversed
twice by a non-simple path still contributes a single 1 (the testing matrix is
incidence, not multiplicity). Internally an encoding is an ``int`` whose bit
``i`` (value ``1 << i``) stands for path ``i``; the string form ``"1010"``
writes path 1 leftmost, matching the usual display of such vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .model import PathSet

DEFAULT_WORK_CAP = 10**7


class OracleTooLargeError(RuntimeError):
    """The exhaustive k-identifiability enumeration would exceed the work cap."""


def encoding_string(bits: int, m: int) -> str:
    """The length-m string form of an encoding, the first path leftmost."""
    return "".join("1" if bits >> i & 1 else "0" for i in range(m))


@dataclass(frozen=True)
class TestingMatrix:
    """m x n Boolean incidence of paths over nodes, stored column-wise.

    ``columns[j]`` is node j's encoding as an int over path bits; row ``i`` is
    recoverable as the set of nodes whose column has bit ``i`` set.
    """

    m: int
    n: int
    columns: tuple[int, ...]


def testing_matrix(ps: PathSet, n: int) -> TestingMatrix:
    """Exact path-over-node incidence; duplicate node mentions within a path collapse."""
    cols = [0] * n
    for i, p in enumerate(ps.paths):
        for u in p.nodes:
            if u >= n:
                raise ValueError(f"path {i} references node {u} >= n={n}")
            cols[u] |= 1 << i
    return TestingMatrix(m=ps.m, n=n, columns=tuple(cols))


def one_identifiable_set(t: TestingMatrix) -> tuple[int, frozenset[int]]:
    """Nodes whose encoding is nonzero and unique among all columns, with their count."""
    seen: dict[int, int] = {}
    for c in t.columns:
        seen[c] = seen.get(c, 0) + 1
    ident = frozenset(
        j for j, c in enumerate(t.columns) if c != 0 and seen[c] == 1
    )
    return len(ident), ident


def _guard_oracle_size(n: int, k: int, work_cap: int) -> None:
    """Refuse when the enumeration would visit more than ``work_cap`` failure sets."""
    subsets = sum(comb(n, i) for i in range(1, k + 1))
    if subsets > work_cap:
        raise OracleTooLargeError(
            f"oracle too large: {subsets} failure sets (sum of C({n},i) for i=1..{k}) "
            f"exceed work cap {work_cap}"
        )


def k_identifiable_set(
    t: TestingMatrix, k: int, work_cap: int = DEFAULT_WORK_CAP
) -> tuple[int, frozenset[int]]:
    """Nodes that are k-identifiable, with their count, by exhaustive enumeration.

    Node v is k-identifiable iff any two failure sets of size <= k that differ
    on v produce different sets of failed paths. Every failure set F with
    |F| <= k is enumerated, grouping the OR of member encodings (the
    incident-path signature). Node v fails the test iff some signature is
    reachable both with v failed and with v working, i.e. v lies in the union
    but not the intersection of that signature's failure sets.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _guard_oracle_size(t.n, k, work_cap)
    all_nodes = (1 << t.n) - 1
    union_of: dict[int, int] = {0: 0}
    inter_of: dict[int, int] = {0: 0}  # F = empty set has signature 0 and no members
    for size in range(1, k + 1):
        for subset in combinations(range(t.n), size):
            sig = 0
            mask = 0
            for j in subset:
                sig |= t.columns[j]
                mask |= 1 << j
            if sig in union_of:
                union_of[sig] |= mask
                inter_of[sig] &= mask
            else:
                union_of[sig] = mask
                inter_of[sig] = mask
    bad = 0
    for sig, union in union_of.items():
        bad |= union & ~inter_of[sig]
    good = all_nodes & ~bad
    ident = frozenset(j for j in range(t.n) if good >> j & 1)
    return len(ident), ident


@dataclass(frozen=True)
class PathMatrix:
    """Rows are the encodings of the nodes along one path, in traversal order."""

    path_index: int
    m: int
    rows: tuple[int, ...]


def path_matrix(ps: PathSet, t: TestingMatrix, i: int) -> PathMatrix:
    """Path matrix of path ``i``; its own column is all ones by construction."""
    if not 0 <= i < ps.m:
        raise ValueError(f"path index {i} out of range for m={ps.m}")
    rows = tuple(t.columns[u] for u in ps.paths[i].nodes)
    return PathMatrix(path_index=i, m=t.m, rows=rows)


def column_run_counts(pm: PathMatrix) -> tuple[int, ...]:
    """Per column, the number of maximal runs of consecutive ones down the rows."""
    counts = []
    for k in range(pm.m):
        runs = 0
        prev = 0
        for r in pm.rows:
            bit = r >> k & 1
            if bit and not prev:
                runs += 1
            prev = bit
        counts.append(runs)
    return tuple(counts)
