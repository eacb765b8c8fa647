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
from itertools import compress, count
from typing import Iterator

from .model import PathSet


class OracleTooLargeError(RuntimeError):
    """The k-identifiability cover search scanned more candidate nodes than its work cap."""


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


def _ones(x: int) -> Iterator[int]:
    """The indices of the set bits of ``x >= 0``, lowest first."""
    s, i = bin(x)[:1:-1], -1
    while (i := s.find("1", i + 1)) >= 0:
        yield i


def k_identifiable_set(
    columns: tuple[int, ...], k: int, work_cap: int = 10**7
) -> tuple[int, frozenset[int]]:
    """Nodes that are k-identifiable, with their count, by a cover test per node.

    A *cover* of v is a set of other nodes whose paths include v's, P_v. A
    1-identifiable v is not k-identifiable iff some cover has <= k-1 nodes, or
    some k-node cover F2 leaves paths P(F2) - P_v that <= k-1 nodes u != v with
    P_u within P(F2) can cover (Ma et al., IMC 2014). Scanning over
    ``work_cap`` candidate nodes raises ``OracleTooLargeError``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cols = sorted(set(compress(columns, columns)), key=int.bit_length, reverse=True)  # equal ones are interchangeable
    rows = [0] * (cols[0].bit_length() if cols else 0)  # path -> its nodes, as indices into cols
    for j, c in enumerate(cols):  # widest first, so the rows take no more bits than cols
        for i in _ones(c):
            rows[i] |= 1 << j
    scans = count(1)

    def covers(left: int, union: int, depth: int, others: int, outside: int) -> Iterator[int]:
        """``union | P(F)`` for covers F of paths ``left`` by <= ``depth`` of ``others``, none on ``outside``."""
        stack = [(left, union, depth)]
        while stack:
            left, union, depth = stack.pop()
            if not left:
                yield union
            elif depth:
                cand = others
                for i in _ones(left):  # the last node lies on every uncovered path, others on the lowest
                    cand &= rows[i]
                    if depth > 1 or not cand:
                        break
                for u in _ones(cand):
                    if next(scans) > work_cap:
                        raise OracleTooLargeError(f"oracle too large: over {work_cap} candidate nodes scanned")
                    if not (c := cols[u]) & outside:
                        stack.append((left & ~c, union | c, depth - 1))

    def identifiable(j: int) -> bool:
        p_v, others = cols[j], ~(1 << j)
        # a cover F2 of <= k-1 nodes fails the paths of F2 + {v}; the second search finds
        # that too, but later. Then v and <= k-1 nodes within P(F2) must not match a k-node F2
        if any(covers(p_v, 0, k - 1, others, 0)):
            return False
        return not any(any(covers(s & ~p_v, p_v, k - 1, others, ~s)) for s in covers(p_v, 0, k, others, 0))

    index = {c: j for j, c in enumerate(cols)}
    ident = frozenset(v for v in one_identifiable_set(columns)[1] if identifiable(index[columns[v]]))
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
