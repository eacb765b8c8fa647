"""Command-line interface: bound evaluation, instance checking, construction,
and the experiment harness.

Exit codes: 0 success, 1 the checked instance has path-validation violations,
2 usage or parameter errors (the message names the violated precondition).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .bounds import Scenario, bound
from .construct import (
    ConstructionError,
    fat_tree,
    fat_tree_all_pair_paths,
    half_grid,
    ica,
    monitoring_tree,
)
from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment
from .identifiability import (
    DEFAULT_WORK_CAP,
    OracleTooLargeError,
    k_identifiable_set,
    one_identifiable_set,
    testing_matrix,
)
from .model import (
    ParseError,
    links_as_nodes,
    load_graph,
    load_paths,
    save_graph,
    save_paths,
    validate_path_set,
)
from .routing import check_consistency, q_lower_bound

USAGE_ERROR = 2
CHECK_VIOLATIONS = 1


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_range(text: str) -> tuple[int, ...]:
    """Accept '4', '1..24', or '4,8,12'."""
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        if lo > hi:
            raise argparse.ArgumentTypeError(f"reversed range {text!r}: {lo} > {hi}")
        if lo < 1:
            raise argparse.ArgumentTypeError(f"range {text!r} starts below 1")
        try:
            return tuple(range(lo, hi + 1))
        except (MemoryError, OverflowError):  # raised before any allocation at such sizes
            raise argparse.ArgumentTypeError(f"range {text!r} does not fit in memory") from None
    return _int_list(text)


def _work_cap() -> int:
    raw = os.environ.get("TOMOBOUND_WORK_CAP")
    try:
        return int(raw) if raw else DEFAULT_WORK_CAP
    except ValueError:
        raise ValueError(f"TOMOBOUND_WORK_CAP must be an integer, got {raw!r}") from None


_SCENARIO_ALIASES = {
    # convenience names resolved by which length flag is present
    "arbitrary": (Scenario.ARBITRARY_AVG, Scenario.ARBITRARY_MAX),
    "consistent": (Scenario.CONSISTENT_AVG, Scenario.CONSISTENT_MAX),
    "partial": (Scenario.PARTIAL_CONSISTENT, Scenario.PARTIAL_CONSISTENT),
}


def _resolve_scenario(name: str, have_dbar: bool, have_dmax: bool) -> Scenario:
    scenario = None if name in _SCENARIO_ALIASES else Scenario(name)
    if have_dbar and have_dmax:
        raise ValueError(f"scenario {name!r}: give either --dbar or --dmax, not both")
    if scenario is not None:
        return scenario
    by_avg, by_max = _SCENARIO_ALIASES[name]
    if have_dmax:
        return by_max
    if have_dbar:
        return by_avg
    raise ValueError(f"scenario {name!r} requires --dbar or --dmax")


def cmd_bound(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario, args.dbar is not None, args.dmax is not None)
    d = args.dbar if args.dbar is not None else args.dmax
    result = bound(
        scenario,
        m=args.m,
        n=args.n,
        d=d,
        q=args.q,
        m_s=args.ms,
        s=args.servers,
    )
    print(json.dumps(result.as_json_dict(), indent=1))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    paths = load_paths(args.paths)
    if args.links_as_nodes:
        graph, paths = links_as_nodes(graph, paths)
    violations = validate_path_set(graph, paths, require_simple=args.require_simple)
    report: dict = {
        "nodes": graph.node_count,
        "paths": paths.m,
        "path_lengths": list(paths.lengths()),
        "path_violations": [str(v) for v in violations],
    }
    if not any(v.kind == "node-out-of-range" for v in violations):
        t = testing_matrix(paths, graph.node_count)
        phi1, ident = one_identifiable_set(t)
        report["phi1"] = phi1
        report["identifiable"] = sorted(ident)
        report["per_path_distinct_encodings"] = [len({t[u] for u in p}) for p in paths]
        if paths.all_simple():
            consistency = check_consistency(paths, limit=20)
            report["consistent"] = consistency.consistent
            report["consistency_violations"] = [str(v) for v in consistency.violations]
            report["q_lower_bound"] = q_lower_bound(paths)
        else:
            report["consistent"] = None
            report["consistency_violations"] = ["paths are not simple; consistency not defined"]
        if args.k is not None:
            report["k"] = args.k
            report["phi_k"] = k_identifiable_set(t, args.k, work_cap=_work_cap())[0]
    print(json.dumps(report, indent=1))
    return CHECK_VIOLATIONS if violations else 0


# kind -> (generator over the parsed arguments, the flag it requires besides --m)
_GENERATORS = {
    "ica": (lambda args: ica(args.m, args.dbar), "dbar"),
    "half-grid": (lambda args: half_grid(args.m), None),
    "monitoring-tree": (lambda args: monitoring_tree(args.m, args.dmax), "dmax"),
}


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind in _GENERATORS:
        generate, flag = _GENERATORS[args.kind]
        if flag is not None and getattr(args, flag) is None:
            raise ValueError(f"construct {args.kind} requires --{flag}")
        inst = generate(args)
        graph, paths, labels = inst.graph, inst.paths, inst.labels
        expected_phi1 = int(inst.meta["bound"])  # type: ignore[arg-type]
        sidecar: dict = {
            "meta": {k: (list(v) if isinstance(v, tuple) else v) for k, v in inst.meta.items()},
            "encodings": {str(i): s for i, s in enumerate(inst.encoding_strings())},
        }
    else:  # fat-tree: emit the all-host-pair routed instance
        ft = fat_tree(args.k)
        graph, labels = ft.graph, ft.address_of
        paths = fat_tree_all_pair_paths(ft)
        t = testing_matrix(paths, graph.node_count)
        expected_phi1 = one_identifiable_set(t)[0]
        sidecar = {
            "meta": {"kind": "fat-tree", "k": args.k, "nodes": graph.node_count, "phi1": expected_phi1},
            "addresses": {str(i): a for i, a in enumerate(ft.address_of)},
            "roles": {
                "core": list(ft.core),
                "aggregation": list(ft.aggregation),
                "edge": list(ft.edge),
                "hosts": list(ft.hosts),
            },
        }

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = args.kind.replace("-", "_")
    graph_file = out / f"{stem}.edges"
    paths_file = out / f"{stem}.paths"
    save_graph(graph, graph_file, labels)
    save_paths(paths, paths_file)
    (out / f"{stem}.json").write_text(json.dumps(sidecar, indent=1) + "\n", encoding="utf-8")

    # self-check: re-ingest the emitted files and re-verify identifiability
    graph2 = load_graph(graph_file)
    paths2 = load_paths(paths_file)
    if validate_path_set(graph2, paths2):
        raise ConstructionError("self-check failed: emitted paths do not fit the emitted graph")
    t = testing_matrix(paths2, graph2.node_count)
    phi1 = one_identifiable_set(t)[0]
    if phi1 != expected_phi1:
        raise ConstructionError(f"self-check failed: phi1={phi1}, expected {expected_phi1}")
    print(
        json.dumps(
            {"written": str(out), "nodes": graph2.node_count, "paths": paths2.m, "phi1": phi1}
        )
    )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        name=args.name,
        m_values=args.m or (),
        d_values=tuple(args.d or ()),
        scenarios=tuple(args.scenario or ()),
        q_values=args.q or (),
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        topology=args.topology,
        d_max=args.dmax,
        server=args.server,
        k=args.k,
        pairs_file=args.pairs,
    )
    table = run_experiment(spec)
    csv_text = table.to_csv()
    if args.json_out:
        Path(args.json_out).write_text(table.to_json(), encoding="utf-8")
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(json.dumps({"written": args.out, "rows": len(table.rows)}))
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomobound",
        description="Identifiability bounds and monitoring-path design for Boolean network tomography",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate a scenario bound, printing a JSON result")
    b.add_argument("--scenario", required=True,
                   help="arbitrary | consistent | partial (picks avg/max from the length flag), "
                        "or a full tag like consistent-avg, arbitrary-unbounded, single-server, "
                        "multi-fixed, multi-flexible")
    b.add_argument("--m", type=int, required=True, help="number of monitoring paths / clients")
    b.add_argument("--n", type=int, required=True, help="number of network nodes")
    b.add_argument("--dbar", type=_fraction, help="average path length (rational, e.g. 8.75 or 82/7)")
    b.add_argument("--dmax", type=int, help="maximum path length")
    b.add_argument("--q", type=int, help="segments per path for partial consistency")
    b.add_argument("--ms", type=_int_list, help="per-server client counts, e.g. 3,3")
    b.add_argument("--servers", type=int, help="server count S for flexible assignment")
    b.set_defaults(func=cmd_bound)

    c = sub.add_parser("check", help="identifiability and consistency report for files")
    c.add_argument("graph", help="edge-list file")
    c.add_argument("paths", help="path file")
    c.add_argument("--k", type=int, help="also count k-identifiable nodes (exhaustive)")
    c.add_argument("--require-simple", action="store_true", help="flag repeated nodes within a path")
    c.add_argument("--links-as-nodes", action="store_true",
                   help="model links through logical nodes before checking")
    c.set_defaults(func=cmd_check)

    g = sub.add_parser("construct", help="generate a bound-achieving instance")
    g.add_argument("kind", choices=[*_GENERATORS, "fat-tree"])
    g.add_argument("--m", type=int, default=4)
    g.add_argument("--dbar", type=_fraction)
    g.add_argument("--dmax", type=int)
    g.add_argument("--k", type=int, default=4, help="fat-tree arity")
    g.add_argument("--out", default="out", help="output directory")
    g.set_defaults(func=cmd_construct)

    e = sub.add_parser("experiment", help="run a seeded experiment, emitting CSV")
    e.add_argument("--name", required=True, choices=EXPERIMENTS)
    e.add_argument("--m", type=_int_range, help="path counts, e.g. 1..24 or 4,8,16")
    e.add_argument("--d", type=lambda s: tuple(_fraction(x) for x in s.split(",")),
                   help="path lengths, e.g. 12 or 5,15,25")
    e.add_argument("--scenario", action="append", help="repeatable scenario tag")
    e.add_argument("--q", type=_int_range, help="q values for partial consistency")
    e.add_argument("--n", type=int, help="node budget for bound sweeps")
    e.add_argument("--trials", type=int, default=1)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--topology", help="edge-list file or bundled name (default isp108)")
    e.add_argument("--dmax", type=int, help="maximum path length (radius filter / bound input)")
    e.add_argument("--server", type=int, help="fix the server node")
    e.add_argument("--k", type=int, default=4, help="fat-tree arity")
    e.add_argument("--pairs", help="JSON file with fat-tree host pairs")
    e.add_argument("--out", help="CSV output file (stdout when omitted)")
    e.add_argument("--json-out", help="also write a JSON copy")
    e.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse reads the '-2..3' of '--m -2..3' as an option
        if argv[i - 1].startswith("--") and re.match(r"-\d+\.\.", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OracleTooLargeError, ConstructionError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
