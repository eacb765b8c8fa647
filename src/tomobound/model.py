"""Core domain types: undirected graphs, path sets, and their file formats.

Node ids are dense integers ``0..n-1``, so testing-matrix columns stay stable
across runs. A monitoring path is a tuple of node ids in traversal order, and
a :class:`PathSet` holds the paths in their order. A graph is topology only;
the generators that name their nodes keep the names, and the edge-list writer
takes them as comments.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from ._record import record

Edge = tuple[int, int]

# The most bytes a testing matrix may take; fat-tree k=16 over all host pairs
# (m = 523,776 over 1,344 nodes) takes about 88 MB.
MATRIX_BYTES_GUARD = 1 << 27


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


@record
class Graph:
    """Undirected graph. Edges are stored normalized as ``(min, max)`` pairs."""

    node_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        # the edges first, so that a negative id is named before the node
        # count that build_graph derived from it
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop rejected: ({u}, {v})")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) is not normalized")
            if u < 0:
                raise ValueError(f"negative node id in pair ({u}, {v})")
            if v >= self.node_count:
                raise ValueError(f"edge ({u}, {v}) references a node >= node_count={self.node_count}")
        if self.node_count < 0:
            raise ValueError("node_count must be nonnegative")

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node u, the pairs ``(v, rank)`` of its edges sorted by v, rank being
        the edge's position in sorted edge order. A tree search forms the
        edge's bit ``1 << rank`` where it needs it, so the table stays O(|E|)
        words; an isolated node's row is ``()``. Built on first use and kept
        on this graph object; the fields, equality and hash ignore it."""
        try:
            rows: list = [()] * self.node_count
        except (MemoryError, OverflowError):  # raised before any allocation at such sizes
            n = self.node_count
            raise ValueError(f"a neighbour table over n={n} nodes does not fit in memory") from None
        ranked = sorted(self.edges)
        for u in set().union(*ranked):
            rows[u] = []
        for rank, (u, v) in enumerate(ranked):
            rows[u].append((v, rank))
            rows[v].append((u, rank))
        # sorted by neighbour already: u's edges (w, u) with w < u come first
        # in rank order, then its edges (u, w) with w > u, ranked by w
        return tuple(map(tuple, rows))


def build_graph(edge_list: Iterable[tuple[int, int]], node_count: int | None = None) -> Graph:
    """Build a :class:`Graph` from node-id pairs, deduplicating undirected edges.

    ``node_count`` defaults to ``1 + max referenced id`` and may only be
    overridden upward. :class:`Graph` rejects self-loops and negative ids,
    naming the normalised pair.
    """
    edges = {(u, v) if u < v else (v, u) for u, v in edge_list}
    max_id = max((v for _, v in edges), default=-1)
    n = max_id + 1
    if node_count is not None:
        if node_count < n:
            raise ValueError(f"node_count override {node_count} smaller than largest id {max_id}")
        n = node_count
    return Graph(node_count=n, edges=frozenset(edges))


@record
class PathSet:
    """A nonempty collection of monitoring paths; path order is part of the contract.

    A path is a nonempty tuple of node ids in traversal order, its length
    counted in nodes.
    """

    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a path set must contain at least one path (m >= 1)")
        if not all(self.paths):
            raise ValueError("a monitoring path must contain at least one node")
        if min(map(min, self.paths)) < 0:
            raise ValueError("negative node id in path")

    @classmethod
    def from_sequences(cls, seqs: Iterable[Sequence[int]]) -> "PathSet":
        return cls(tuple(map(tuple, seqs)))

    @property
    def m(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.paths))

    def max_node_id(self) -> int:
        return max(map(max, self.paths))

    @cached_property
    def columns(self) -> dict[int, int]:
        """The testing matrix's nonzero columns: each node a path touches maps
        to its encoding, bit i set when path i crosses the node; a path that
        repeats a node sets its bit once. ``testing_matrix`` lays them out
        over n nodes.

        Each touched node gets one ``bytearray`` of ceil(m/8) bytes, path i
        setting bit ``i & 7`` of byte ``i >> 3``; each such row becomes its
        column's int once at the end. For total path length L over t touched
        nodes that is O(L + t*m/8), where OR-ing ``1 << i`` into growing ints
        would copy up to m bits at every incidence. A matrix over
        ``MATRIX_BYTES_GUARD`` bytes is refused before the rows are allocated.
        Built on first use and kept on this path set, as ``Graph.neighbours`` is."""
        touched = set().union(*self.paths)
        width = (self.m + 7) >> 3
        if (size := len(touched) * width) > MATRIX_BYTES_GUARD:
            raise ValueError(
                f"a testing matrix of {self.m} paths over {len(touched)} nodes takes {size} bytes, "
                f"more than {MATRIX_BYTES_GUARD}"
            )
        rows = {u: bytearray(width) for u in touched}
        for i, p in enumerate(self.paths):
            byte, bit = i >> 3, 1 << (i & 7)
            for u in p:
                rows[u][byte] |= bit
        return {u: int.from_bytes(row, "little") for u, row in rows.items()}

    @cached_property
    def first_repeating_path(self) -> int | None:
        """The index of the first path that repeats a node, None when every path
        is simple. Found on first use and kept on this path set."""
        return next((i for i, p in enumerate(self.paths) if len(set(p)) != len(p)), None)

    def all_simple(self) -> bool:
        return self.first_repeating_path is None


@record
class PathViolation:
    """One defect found while validating a path set against a graph."""

    path_index: int
    kind: str  # "node-out-of-range" | "non-adjacent-step" | "repeated-node"
    nodes: tuple[int, ...]

    def __str__(self) -> str:
        where = ", ".join(str(u) for u in self.nodes)
        return f"path {self.path_index}: {self.kind} ({where})"


def validate_path_set(g: Graph, ps: PathSet, require_simple: bool = False) -> list[PathViolation]:
    """Check every path against ``g``; violations are returned as data, never raised.

    The whole set is tested first: the largest id against ``g.node_count``,
    and the distinct steps, normalised, against ``g.edges``. That costs one
    C-level pass over the steps plus O(distinct steps), so a valid set of
    total length L takes O(L) with no Python call per step. Only when the
    test fails are the paths walked one by one, O(L) Python steps, to list
    the violations in path order.
    """
    steps: set[Edge] = set()
    for p in ps.paths:
        steps.update(zip(p, p[1:]))
    if (
        ps.max_node_id() < g.node_count
        and {_norm_edge(u, v) for u, v in steps} <= g.edges
        and (not require_simple or ps.all_simple())
    ):
        return []
    out: list[PathViolation] = []
    for i, p in enumerate(ps.paths):
        for u in dict.fromkeys(p):
            if u >= g.node_count:
                out.append(PathViolation(i, "node-out-of-range", (u,)))
        for u, v in zip(p, p[1:]):
            if u >= g.node_count or v >= g.node_count:
                continue
            if _norm_edge(u, v) not in g.edges:
                out.append(PathViolation(i, "non-adjacent-step", (u, v)))
        if require_simple and len(set(p)) != len(p):
            seen: set[int] = set()
            dups: list[int] = []
            for u in p:
                if u in seen and u not in dups:
                    dups.append(u)
                seen.add(u)
            for u in dups:
                out.append(PathViolation(i, "repeated-node", (u,)))
    return out


def links_as_nodes(g: Graph, ps: PathSet) -> tuple[Graph, PathSet]:
    """Subdivide every edge with a logical node so link failures become node
    failures, and route ``ps`` through those nodes.

    The edge of rank r in sorted edge order becomes node ``n + r``, so the
    graph has ``n + |E|`` nodes and ``2|E|`` edges; each path step (u, v)
    gains the node of its edge between u and v.
    """
    link_of = {e: g.node_count + rank for rank, e in enumerate(sorted(g.edges))}
    paths = []
    for i, p in enumerate(ps.paths):
        seq: list[int] = [p[0]]
        for u, v in zip(p, p[1:]):
            w = link_of.get(_norm_edge(u, v))
            if w is None:
                raise ValueError(f"path {i}: step ({u}, {v}) is not an edge of the original graph")
            seq.append(w)
            seq.append(v)
        paths.append(tuple(seq))
    # w exceeds every original id, so (u, w) and (v, w) are normalised
    edges = frozenset((x, w) for (u, v), w in link_of.items() for x in (u, v))
    return Graph(node_count=g.node_count + len(link_of), edges=edges), PathSet(tuple(paths))


# ---------------------------------------------------------------------------
# File formats.
#
# Edge-list file: one "u v" pair per line, whitespace separated, '#' comments,
# optional "nodes N" header line; the writer can name nodes in "# node i name"
# comments, which the reader skips. Path file: one path per line, node ids
# separated by whitespace. Both UTF-8 with LF or CRLF line endings.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.source = source
        self.lineno = lineno


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_edge_list(text: str, source: str = "<edge-list>") -> Graph:
    edges: list[tuple[int, int]] = []
    node_count: int | None = None
    header_lineno = 0
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "nodes":
            # isdecimal, unlike isdigit, refuses what int() refuses, such as '²'
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(source, lineno, f"malformed header {line!r}, expected 'nodes N'")
            if node_count is not None:
                raise ParseError(source, lineno, f"second header {line!r}, the first is on line {header_lineno}")
            node_count = int(tokens[1])
            header_lineno = lineno
            continue
        if len(tokens) != 2:
            raise ParseError(source, lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(source, lineno, f"non-integer node id in {line!r}") from None
        if u == v:
            raise ParseError(source, lineno, f"self-loop rejected: ({u}, {v})")
        if u < 0 or v < 0:
            raise ParseError(source, lineno, f"negative node id in pair ({u}, {v})")
        edges.append((u, v))
    if node_count is not None:
        max_id = max(map(max, edges), default=-1)
        if node_count <= max_id:
            raise ParseError(source, header_lineno, f"'nodes {node_count}' leaves out node {max_id}")
    return build_graph(edges, node_count=node_count)


def parse_path_file(text: str, source: str = "<path-file>") -> PathSet:
    paths: list[tuple[int, ...]] = []
    for lineno, line in _content_lines(text):
        try:
            nodes = tuple(map(int, line.split()))
        except ValueError:
            for token in line.split():  # only to name the token int() refuses
                try:
                    int(token)
                except ValueError:
                    raise ParseError(source, lineno, f"unresolvable node token {token!r}") from None
            raise
        if min(nodes) < 0:
            raise ParseError(source, lineno, "negative node id")
        paths.append(nodes)
    if not paths:
        raise ParseError(source, 0, "no paths found")
    return PathSet(tuple(paths))


def format_edge_list(g: Graph, labels: Sequence[str] = ()) -> str:
    """Edge-list text; ``labels[i]``, when given, names node i in a comment line."""
    lines = [f"nodes {g.node_count}"]
    lines.extend(f"# node {i} {name}" for i, name in enumerate(labels))
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def format_path_file(ps: PathSet) -> str:
    return "\n".join(" ".join(map(str, p)) for p in ps.paths) + "\n"


def load_graph(path: str | Path) -> Graph:
    p = Path(path)
    return parse_edge_list(p.read_text(encoding="utf-8"), source=str(p))


def load_paths(path: str | Path) -> PathSet:
    p = Path(path)
    return parse_path_file(p.read_text(encoding="utf-8"), source=str(p))


def save_graph(g: Graph, path: str | Path, labels: Sequence[str] = ()) -> None:
    Path(path).write_text(format_edge_list(g, labels), encoding="utf-8")


def save_paths(ps: PathSet, path: str | Path) -> None:
    Path(path).write_text(format_path_file(ps), encoding="utf-8")
