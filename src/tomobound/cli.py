"""Command-line interface: bound evaluation, instance checking, construction,
and the experiment harness.

Exit codes: 0 success, 1 the checked instance has path-validation violations,
2 usage or parameter errors (the message names the violated precondition).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

from .bounds import SCENARIO_INPUTS, Scenario, bound, check_printable
from .construct import (
    ConstructedInstance,
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
        check_printable("the number", text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
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


def _given_flags(what: str, args: argparse.Namespace, flags: tuple[str, ...], reads: set | dict) -> dict:
    """The given ones of ``flags`` (those not None) by name; a ValueError names
    the first that ``what`` does not read, before any file is read or written."""
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    if unread := [flag for flag in given if flag not in reads]:
        raise ValueError(f"{what} does not read --{unread[0]}")
    return given


# what bounds.SCENARIO_INPUTS reads -> the bound flag that gives it
_BOUND_FLAGS = {"avg": "dbar", "max": "dmax", "q": "q", "m_s": "ms", "s": "servers"}


def cmd_bound(args: argparse.Namespace) -> int:
    name, d = args.scenario, args.dbar if args.dbar is not None else args.dmax
    if args.dbar is not None and args.dmax is not None:
        raise ValueError(f"scenario {name!r}: give either --dbar or --dmax, not both")
    if name in ("arbitrary", "consistent"):  # the length flag picks -avg or -max
        if d is None:
            raise ValueError(f"scenario {name!r} requires --dbar or --dmax")
        name += "-avg" if args.dmax is None else "-max"
    scenario = Scenario("partial-consistent" if name == "partial" else name)
    reads = {_BOUND_FLAGS.get(given) for given in SCENARIO_INPUTS[scenario]}
    _given_flags(f"scenario {scenario.value}", args, tuple(_BOUND_FLAGS.values()), reads)
    result = bound(scenario, m=args.m, n=args.n, d=d, q=args.q, m_s=args.ms, s=args.servers)
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


def _files(inst: ConstructedInstance) -> tuple:
    """What construct writes: graph, paths, node labels, phi1, the sidecar. The
    generator has checked that phi1 meets the instance's bound."""
    sidecar = {"meta": inst.meta, "encodings": dict(enumerate(inst.encoding_strings()))}
    return inst.graph, inst.paths, inst.labels, inst.meta["bound"], sidecar


def _fat_tree_files(k: int) -> tuple:
    """The same for the fat-tree over all host pairs; its sidecar gives node addresses and roles."""
    ft = fat_tree(k)
    paths = fat_tree_all_pair_paths(ft)
    phi1 = one_identifiable_set(testing_matrix(paths, ft.graph.node_count))[0]
    return ft.graph, paths, ft.address_of, phi1, {
        "meta": {"kind": "fat-tree", "k": k, "nodes": ft.graph.node_count, "phi1": phi1},
        "addresses": dict(enumerate(ft.address_of)),
        "roles": {role: getattr(ft, role) for role in ("core", "aggregation", "edge", "hosts")},
    }


# kind -> (what construct writes, built from the flags it reads; each such flag's default, None if required)
_GENERATORS = {
    "ica": (lambda m, dbar: _files(ica(m, dbar)), {"m": 4, "dbar": None}),
    "half-grid": (lambda m: _files(half_grid(m)), {"m": 4}),
    "monitoring-tree": (lambda m, dmax: _files(monitoring_tree(m, dmax)), {"m": 4, "dmax": None}),
    "fat-tree": (_fat_tree_files, {"k": 4}),
}


def cmd_construct(args: argparse.Namespace) -> int:
    build, reads = _GENERATORS[args.kind]
    flags = {**reads, **_given_flags(f"construct {args.kind}", args, ("m", "dbar", "dmax", "k"), reads)}
    for flag, value in flags.items():
        if value is None:
            raise ValueError(f"construct {args.kind} requires --{flag}")
    graph, paths, labels, phi1, sidecar = build(**flags)

    stem = Path(args.out) / args.kind.replace("-", "_")
    stem.parent.mkdir(parents=True, exist_ok=True)
    save_graph(graph, stem.with_suffix(".edges"), labels)
    save_paths(paths, stem.with_suffix(".paths"))
    with stem.with_suffix(".json").open("w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=1)  # chunk by chunk: the whole text can take several times the encodings
        f.write("\n")

    # self-check: the emitted files read back as the built graph and paths, which fit it
    if (load_graph(stem.with_suffix(".edges")), load_paths(stem.with_suffix(".paths"))) != (graph, paths):
        raise ConstructionError("self-check failed: emitted files do not read back as the built instance")
    if validate_path_set(graph, paths):
        raise ConstructionError("self-check failed: emitted paths do not fit the emitted graph")
    summary = {"written": str(stem.parent), "nodes": graph.node_count, "paths": paths.m, "phi1": phi1}
    print(json.dumps(summary))
    return 0


# experiment flag -> the ExperimentSpec field it sets
_SPEC_FIELDS = dict(
    m="m_values", d="d_values", scenario="scenarios", q="q_values", n="n", trials="trials", seed="seed",
    topology="topology", dmax="d_max", server="server", k="k", pairs="pairs_file",
)


def cmd_experiment(args: argparse.Namespace) -> int:
    reads = {flag for flag, field in _SPEC_FIELDS.items() if field in ("seed", *EXPERIMENTS[args.name][1])}
    given = _given_flags(f"experiment {args.name}", args, tuple(_SPEC_FIELDS), reads)
    # --scenario collects a list, and the spec holds a tuple
    spec = ExperimentSpec(
        args.name, **{_SPEC_FIELDS[f]: tuple(v) if f == "scenario" else v for f, v in given.items()}
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
                   help="arbitrary | consistent (picks avg/max from the length flag), partial "
                        "(partial-consistent), or a full tag like consistent-avg, "
                        "arbitrary-unbounded, single-server, multi-fixed, multi-flexible")
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
    g.add_argument("kind", choices=_GENERATORS)
    g.add_argument("--m", type=int)
    g.add_argument("--dbar", type=_fraction)
    g.add_argument("--dmax", type=int)
    g.add_argument("--k", type=int, help="fat-tree arity")
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
    e.add_argument("--trials", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--topology", help="edge-list file or bundled name (default isp108)")
    e.add_argument("--dmax", type=int, help="maximum path length (radius filter / bound input)")
    e.add_argument("--server", type=int, help="fix the server node")
    e.add_argument("--k", type=int, help="fat-tree arity")
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


def entry() -> NoReturn:
    """The program entry of ``python -m tomobound.cli`` and the ``tomobound``
    script: exit with ``main()``'s code.

    CPython's shutdown runs garbage collections over every object the process
    still holds. ``gc.freeze()``, once the run has written all its output,
    moves those objects to the collector's permanent generation, which those
    collections skip. ``main()`` does not freeze: tests and tracers call it
    in-process, where a freeze would keep a long-lived process's garbage
    cycles for good."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
