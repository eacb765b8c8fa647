"""Core domain types: undirected graphs, monitoring paths, and their file formats.

Node ids are dense integers ``0..n-1``, so testing-matrix columns stay stable
across runs. A graph is topology only; the generators that name their nodes
keep the names, and the edge-list writer takes them as comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected graph. Edges are stored normalized as ``(min, max)`` pairs."""

    node_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.node_count < 0:
            raise ValueError("node_count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) is not normalized")
            if not (0 <= u and v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) references a node >= node_count={self.node_count}")

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node u, the sorted pairs ``(v, 1 << rank)`` of its edges, rank
        being the edge's position in sorted edge order. Built on first use and
        kept on this graph object; the fields, equality and hash ignore it."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for rank, (u, v) in enumerate(sorted(self.edges)):
            bit = 1 << rank
            rows[u].append((v, bit))
            rows[v].append((u, bit))
        return tuple(tuple(sorted(row)) for row in rows)


def build_graph(edge_list: Iterable[tuple[int, int]], node_count: int | None = None) -> Graph:
    """Build a :class:`Graph` from node-id pairs, deduplicating undirected edges.

    ``node_count`` defaults to ``1 + max referenced id`` and may only be
    overridden upward. Self-loops are rejected with the offending pair.
    """
    edges = set()
    max_id = -1
    for u, v in edge_list:
        if u < 0 or v < 0:
            raise ValueError(f"negative node id in pair ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop rejected: ({u}, {v})")
        edges.add(_norm_edge(u, v))
        max_id = max(max_id, u, v)
    n = max_id + 1
    if node_count is not None:
        if node_count < n:
            raise ValueError(f"node_count override {node_count} smaller than largest id {max_id}")
        n = node_count
    return Graph(node_count=n, edges=frozenset(edges))


def links_to_logical_nodes(g: Graph) -> tuple[Graph, dict[Edge, int]]:
    """Subdivide every edge with a logical node so link failures become node failures.

    Returns the transformed graph and a map from each original edge to its new
    node id. The result has ``n + |E|`` nodes and ``2|E|`` edges.
    """
    link_of: dict[Edge, int] = {}
    new_edges: list[tuple[int, int]] = []
    for rank, (u, v) in enumerate(sorted(g.edges)):
        w = g.node_count + rank
        link_of[(u, v)] = w
        new_edges.append((u, w))
        new_edges.append((w, v))
    return (
        Graph(
            node_count=g.node_count + len(g.edges),
            edges=frozenset(_norm_edge(u, v) for u, v in new_edges),
        ),
        link_of,
    )


@dataclass(frozen=True)
class MonitoringPath:
    """Ordered node sequence of one monitoring path (length counted in nodes)."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a monitoring path must contain at least one node")
        if any(u < 0 for u in self.nodes):
            raise ValueError("negative node id in path")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    @property
    def is_simple(self) -> bool:
        return len(set(self.nodes)) == len(self.nodes)


@dataclass(frozen=True)
class PathSet:
    """A nonempty collection of monitoring paths; path order is part of the contract."""

    paths: tuple[MonitoringPath, ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a path set must contain at least one path (m >= 1)")

    @classmethod
    def from_sequences(cls, seqs: Iterable[Sequence[int]]) -> "PathSet":
        return cls(tuple(MonitoringPath(tuple(s)) for s in seqs))

    @property
    def m(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i: int) -> MonitoringPath:
        return self.paths[i]

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.paths)

    def max_node_id(self) -> int:
        return max(max(p.nodes) for p in self.paths)

    def all_simple(self) -> bool:
        return all(p.is_simple for p in self.paths)


@dataclass(frozen=True)
class PathViolation:
    """One defect found while validating a path set against a graph."""

    path_index: int
    kind: str  # "node-out-of-range" | "non-adjacent-step" | "repeated-node"
    nodes: tuple[int, ...]

    def __str__(self) -> str:
        where = ", ".join(str(u) for u in self.nodes)
        return f"path {self.path_index}: {self.kind} ({where})"


def validate_path_set(g: Graph, ps: PathSet, require_simple: bool = False) -> list[PathViolation]:
    """Check every path against ``g``; violations are returned as data, never raised."""
    out: list[PathViolation] = []
    for i, p in enumerate(ps.paths):
        for u in dict.fromkeys(p.nodes):
            if u >= g.node_count:
                out.append(PathViolation(i, "node-out-of-range", (u,)))
        for u, v in zip(p.nodes, p.nodes[1:]):
            if u >= g.node_count or v >= g.node_count:
                continue
            if not g.has_edge(u, v):
                out.append(PathViolation(i, "non-adjacent-step", (u, v)))
        if require_simple and not p.is_simple:
            seen: set[int] = set()
            dups: list[int] = []
            for u in p.nodes:
                if u in seen and u not in dups:
                    dups.append(u)
                seen.add(u)
            for u in dups:
                out.append(PathViolation(i, "repeated-node", (u,)))
    return out


def expand_paths_through_links(ps: PathSet, link_of: Mapping[Edge, int]) -> PathSet:
    """Rewrite paths over a link-subdivided graph by inserting each step's logical node."""
    new_paths = []
    for i, p in enumerate(ps.paths):
        seq: list[int] = [p.nodes[0]]
        for u, v in zip(p.nodes, p.nodes[1:]):
            w = link_of.get(_norm_edge(u, v))
            if w is None:
                raise ValueError(f"path {i}: step ({u}, {v}) is not an edge of the original graph")
            seq.append(w)
            seq.append(v)
        new_paths.append(MonitoringPath(tuple(seq)))
    return PathSet(tuple(new_paths))


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
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "nodes":
            # isdecimal, unlike isdigit, refuses what int() refuses, such as '²'
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(source, lineno, f"malformed header {line!r}, expected 'nodes N'")
            node_count = int(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(source, lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(source, lineno, f"non-integer node id in {line!r}") from None
        if u == v:
            raise ParseError(source, lineno, f"self-loop rejected: ({u}, {v})")
        edges.append((u, v))
    try:
        return build_graph(edges, node_count=node_count)
    except ValueError as exc:
        raise ParseError(source, 0, str(exc)) from None


def parse_path_file(text: str, source: str = "<path-file>") -> PathSet:
    paths: list[MonitoringPath] = []
    for lineno, line in _content_lines(text):
        nodes: list[int] = []
        for token in line.split():
            try:
                nodes.append(int(token))
            except ValueError:
                raise ParseError(source, lineno, f"unresolvable node token {token!r}") from None
        if any(u < 0 for u in nodes):
            raise ParseError(source, lineno, "negative node id")
        paths.append(MonitoringPath(tuple(nodes)))
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
    return "\n".join(" ".join(str(u) for u in p.nodes) for p in ps.paths) + "\n"


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
