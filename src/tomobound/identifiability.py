"""Testing matrices, node encodings, and failure identifiability.

Encodings are bit vectors keyed by path index in path-set order: bit ``i`` of
a node's encoding is set iff path ``i`` traverses the node. A node traversed
twice by a non-simple path still contributes a single 1 (the testing matrix is
incidence, not multiplicity). Internally an encoding is an ``int`` whose bit
``i`` (value ``1 << i``) stands for path ``i``; the string form ``"1010"``
writes path 1 leftmost, matching the usual display of such vectors.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import comb

from .model import PathSet

DEFAULT_WORK_CAP = 10**7


class OracleTooLargeError(RuntimeError):
    """The exhaustive k-identifiability enumeration would exceed the work cap."""


def encoding_string(bits: int, m: int) -> str:
    """The length-m string form of an encoding, the first path leftmost."""
    return format(bits, f"0{m}b")[::-1]


def testing_matrix(ps: PathSet, n: int) -> tuple[int, ...]:
    """The m x n Boolean incidence of paths over nodes as its n columns: entry
    j is node j's encoding; duplicate node mentions within a path collapse.

    The one dense layout of ``ps.columns``, which are built once per path set
    under their size guard; an untouched node's column is 0. A path that
    crosses a node outside ``0..n-1`` is named before the columns are built.
    """
    if ps.max_node_id() >= n:
        i, u = next((i, u) for i, p in enumerate(ps.paths) for u in p if u >= n)
        raise ValueError(f"path {i} references node {u} >= n={n}")
    try:
        cols = [0] * n
    except (MemoryError, OverflowError):  # raised before any allocation at such sizes
        raise ValueError(f"a testing matrix over n={n} nodes does not fit in memory") from None
    for u, c in ps.columns.items():
        cols[u] = c
    return tuple(cols)


def one_identifiable_set(columns: tuple[int, ...]) -> tuple[int, frozenset[int]]:
    """Nodes whose encoding is nonzero and unique among all columns, with their count."""
    cols = list(compress(columns, columns))  # only nonzero columns can qualify
    node_of = dict(zip(cols, compress(range(len(columns)), columns)))
    ident = frozenset(node_of[c] for c, seen in Counter(cols).items() if seen == 1)
    return len(ident), ident


def k_identifiable_set(
    columns: tuple[int, ...], k: int, work_cap: int = DEFAULT_WORK_CAP
) -> tuple[int, frozenset[int]]:
    """Nodes that are k-identifiable, with their count, by exhaustive enumeration.

    Node v is k-identifiable iff any two failure sets of size <= k that differ
    on v produce different sets of failed paths. Every failure set F with
    |F| <= k is visited once, as a visited set plus one node of higher id, so
    its signature (the OR of its members' encodings, its incident paths) costs
    one OR. Node v fails the test iff some signature is reached both with v
    failed and with v working, i.e. v lies in the union but not the
    intersection of that signature's failure sets; a set that differs from its
    signature's running intersection marks exactly such nodes. A walk that
    fills memory raises ``OracleTooLargeError``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(columns)
    k = min(k, n)  # no failure set has more than n nodes
    subsets = sum(comb(n, i) for i in range(1, k + 1))
    if subsets > work_cap:
        raise OracleTooLargeError(
            f"oracle too large: {subsets} failure sets (sum of C({n},i) for i=1..{k}) "
            f"exceed work cap {work_cap}"
        )
    inter_of = {0: 0}  # signature -> intersection of its failure sets; F = {} has no members
    bad = 0
    stack = [(0, 0, 0, k)]  # (lowest id to add, signature, members, nodes left) of visited sets
    try:
        while stack:
            low, sig, mask, left = stack.pop()
            left -= 1
            for j in range(low, n):
                sig_j, mask_j = sig | columns[j], mask | 1 << j
                inter = inter_of.setdefault(sig_j, mask_j)
                bad |= inter ^ mask_j
                inter_of[sig_j] = inter & mask_j
                if left:
                    stack.append((j + 1, sig_j, mask_j, left))
    except MemoryError:
        raise OracleTooLargeError(
            f"oracle too large: {len(inter_of)} failure-set signatures filled memory"
        ) from None
    ident = frozenset(j for j in range(n) if not bad >> j & 1)
    return len(ident), ident


def path_matrix(ps: PathSet, columns: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Path ``i``'s matrix: its nodes' encodings in order; its own column is all ones."""
    if not 0 <= i < ps.m:
        raise ValueError(f"path index {i} out of range for m={ps.m}")
    return tuple(columns[u] for u in ps.paths[i])


def column_run_counts(rows: tuple[int, ...], m: int) -> tuple[int, ...]:
    """For each of the m columns, the number of maximal runs of ones down the rows."""
    counts = []
    for k in range(m):
        runs = 0
        prev = 0
        for r in rows:
            bit = r >> k & 1
            if bit and not prev:
                runs += 1
            prev = bit
        counts.append(runs)
    return tuple(counts)
