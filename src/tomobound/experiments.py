"""Seeded, reproducible experiment harness behind the CLI.

Each experiment produces a long-format table (m, d, scenario, metric, value)
that serializes byte-identically for a given spec and seed. Randomness comes
from one named generator seeded per run.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

from . import fixtures
from ._record import record
from .bounds import SCENARIO_INPUTS, Scenario, bound, bound_single_server, check_printable
from .construct import fat_tree, fat_tree_all_pair_paths, fat_tree_route, ica
from .identifiability import one_identifiable_set, testing_matrix
from .model import Graph, PathSet, load_graph, read_text
from .routing import midpoint_cuts, q_lower_bound, shortest_path_tree, verify_segmentation, walk_to_root


@record
class ExperimentSpec:
    """Parameter grid and provenance for one experiment run."""

    name: str
    m_values: tuple[int, ...] = ()
    d_values: tuple[Fraction, ...] = ()
    scenarios: tuple[str, ...] = ()
    q_values: tuple[int, ...] = ()
    n: int | None = None
    trials: int = 1
    seed: int = 0
    topology: str | None = None  # file path, or a bundled graph name
    d_max: int | None = None
    server: int | None = None
    k: int = 4
    pairs_file: str | None = None

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}; have {tuple(EXPERIMENTS)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:  # random.Random seeds with abs(seed), so -7 would run as 7
            raise ValueError(f"seed must be >= 0, got seed={self.seed}")
        for m in self.m_values:
            if m < 1:
                raise ValueError(f"m must be >= 1, got m={m}")


@record
class ResultTable:
    """Long-format rows; header and row order are stable for byte-identical output."""

    name: str
    seed: int
    rows: tuple[tuple[object, ...], ...]  # (m, d, scenario, metric, value)

    HEADER = ("m", "d", "scenario", "metric", "value")

    def _check_printable(self) -> None:
        """Raise a ValueError naming any number too long to print, with its row."""
        for row in self.rows:
            for name, x in zip(self.HEADER, row):
                if isinstance(x, (int, Fraction)):
                    check_printable(f"{name} of the {row[2]} {row[3]} row", x)

    def to_csv(self) -> str:
        self._check_printable()
        buf = io.StringIO()
        buf.write(f"# experiment={self.name} seed={self.seed}\n")
        buf.write(",".join(self.HEADER) + "\n")
        for row in self.rows:
            buf.write(",".join(str(x) for x in row) + "\n")
        return buf.getvalue()

    def to_json(self) -> str:
        self._check_printable()
        return json.dumps(
            {
                "experiment": self.name,
                "seed": self.seed,
                "header": list(self.HEADER),
                "rows": [[str(x) if isinstance(x, Fraction) else x for x in row] for row in self.rows],
            },
            indent=1,
        ) + "\n"


def _load_topology(spec: ExperimentSpec) -> Graph:
    name = spec.topology or "isp108"
    if name in fixtures.GRAPHS_ONLY or name in fixtures.INSTANCES:
        return fixtures.load_graph(name)
    return load_graph(name)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    rows = EXPERIMENTS[spec.name][0](spec)
    return ResultTable(name=spec.name, seed=spec.seed, rows=tuple(rows))


# what a scenario's bound reads beyond m, n and d that no experiment flag gives
_UNSWEPT = {"m_s": "the per-server client counts m_s", "s": "the server count S"}


def _bound_sweep(spec: ExperimentSpec) -> list[tuple]:
    if not spec.m_values or not spec.d_values or not spec.scenarios:
        raise ValueError("bound_sweep needs m_values, d_values and scenarios")
    extras = [SCENARIO_INPUTS[Scenario(sc)][1] for sc in spec.scenarios]
    for sc, extra in zip(spec.scenarios, extras):
        if extra in _UNSWEPT:
            raise ValueError(
                f"bound_sweep cannot sweep {sc}: it needs {_UNSWEPT[extra]}, which no experiment "
                "flag gives; evaluate it with the bound command"
            )
    reads_q = [extra == "q" for extra in extras]
    if spec.q_values and not any(reads_q):
        raise ValueError(f"no swept scenario reads q: {', '.join(spec.scenarios)}")
    rows = []
    for d in spec.d_values:
        for m in spec.m_values:
            for sc, q_read in zip(spec.scenarios, reads_q):
                if q_read:
                    for q in spec.q_values or (1,):
                        r = bound(sc, m, spec.n, d=d, q=q)
                        rows.append((m, d, f"{sc}(q={q})", "bound", r.bound))
                else:
                    r = bound(sc, m, spec.n, d=d)
                    rows.append((m, d, sc, "bound", r.bound))
    return rows


def _random_placement(spec: ExperimentSpec) -> list[tuple]:
    """Random clients on access (degree-1) nodes, routed to a random server.

    Per trial one server is drawn from the non-dangling nodes (or fixed via the
    spec), m clients are drawn from the dangling nodes -- all nodes when none
    dangle -- restricted to the d_max radius when one is given. Trials that
    cannot seat m clients are skipped and counted. Each m row's single-server
    bound is computed before its trials, so a bad d_max fails before any work.
    """
    if not spec.m_values:
        raise ValueError("random_placement needs m_values")
    g = _load_topology(spec)
    if g.node_count == 0:
        raise ValueError(f"topology {spec.topology} has no nodes to place a server or clients on")
    if spec.server is not None and not 0 <= spec.server < g.node_count:
        raise ValueError(f"server {spec.server} is not a node of the {g.node_count}-node topology")
    rng = random.Random(spec.seed)
    degree = [len(row) for row in g.neighbours]
    dangling = [u for u in range(g.node_count) if degree[u] == 1]
    eligible_base = set(dangling or range(g.node_count))
    servers = [u for u in range(g.node_count) if degree[u] > 1] or list(range(g.node_count))
    d_label = spec.d_max if spec.d_max is not None else ""
    rows = []
    for m in spec.m_values:
        ub = None if spec.d_max is None else bound_single_server(m, g.node_count, spec.d_max).bound
        best = -1
        used = 0
        skipped = 0
        worst_len = 0
        for _ in range(spec.trials):
            server = spec.server if spec.server is not None else rng.choice(servers)
            parent = shortest_path_tree(g, server, None if spec.d_max is None else spec.d_max - 1)
            eligible = eligible_base.intersection(parent)
            eligible.discard(server)
            if len(eligible) < m:
                skipped += 1
                continue
            clients = rng.sample(sorted(eligible), m)
            ps = PathSet.from_sequences(walk_to_root(parent, c) for c in clients)
            t = testing_matrix(ps, g.node_count)
            phi1 = one_identifiable_set(t)[0]
            best = max(best, phi1)
            worst_len = max(worst_len, max(ps.lengths()))
            used += 1
        rows.append((m, d_label, "random-placement", "phi1_max", best if used else ""))
        rows.append((m, d_label, "random-placement", "trials_used", used))
        rows.append((m, d_label, "random-placement", "trials_skipped", skipped))
        rows.append((m, d_label, "random-placement", "max_path_len", worst_len))
        if ub is not None:
            rows.append((m, d_label, "single-server", "bound", ub))
    return rows


def _read_pairs(path: str) -> list[tuple]:
    """Host pairs from a JSON file of the form {"pairs": [[src, dst], ...]}."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise ValueError(f'{path}: expected a JSON object with a "pairs" list')
    for i, pair in enumerate(data["pairs"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{path}: pair {i} is {json.dumps(pair)}, expected [src, dst]")
    return [tuple(p) for p in data["pairs"]]


def _fat_tree_id(spec: ExperimentSpec) -> list[tuple]:
    ft = fat_tree(spec.k)
    n = ft.graph.node_count
    if spec.pairs_file:
        pairs = _read_pairs(spec.pairs_file)
    else:
        k, pairs = fixtures.fat_tree_cover_pairs()
        if k != spec.k:
            raise ValueError(f"bundled cover is for k={k}, experiment requested k={spec.k}")
    ps = PathSet(tuple(fat_tree_route(ft, a, b) for a, b in pairs))
    t = testing_matrix(ps, n)
    phi1 = one_identifiable_set(t)[0]
    d = max(ps.lengths())
    rows = [
        (ps.m, d, "fat-tree", "nodes", n),
        (ps.m, d, "fat-tree", "phi1", phi1),
        (ps.m, d, "fat-tree", "q_lower_bound", q_lower_bound(ps)),
    ]
    all_pairs = fat_tree_all_pair_paths(ft)
    rows.append(
        (
            all_pairs.m,
            max(all_pairs.lengths()),
            "fat-tree",
            "all_pairs_half_consistent",
            int(verify_segmentation(all_pairs, midpoint_cuts(all_pairs), 2)),
        )
    )
    return rows


def _tightness(spec: ExperimentSpec) -> list[tuple]:
    if not spec.m_values or not spec.d_values:
        raise ValueError("tightness needs m_values and d_values")
    rows = []
    for m in spec.m_values:
        for d in spec.d_values:
            if d > (1 << (m - 1)) or (m * d).denominator != 1:
                continue
            inst = ica(m, d)
            phi1 = one_identifiable_set(inst.encodings)[0]
            rows.append((m, d, "ica", "phi1", phi1))
            rows.append((m, d, "ica", "bound", inst.meta["bound"]))
    return rows


# name -> (the runner that makes its rows, the spec fields it reads besides name and seed), in CLI order
EXPERIMENTS = {
    "bound_sweep": (_bound_sweep, ("m_values", "d_values", "scenarios", "q_values", "n")),
    "random_placement": (_random_placement, ("m_values", "trials", "topology", "d_max", "server")),
    "fat_tree_id": (_fat_tree_id, ("k", "pairs_file")),
    "tightness": (_tightness, ("m_values", "d_values")),
}
