"""tomobound benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --smoke      # tiny size, for tests
    python3 perfbench/run.py --record-digests               # rewrite digests.json

Each op runs the ``tomobound`` CLI from ``src/`` in fresh child processes, one
at a time: a closed loop with one client and no threads. The run first sets up
the workload's inputs afresh before every op, and starts set-ups and ops until
the next pair would end past ``--seconds``. Op ``i`` gets the seed
``--seed + 1000 * i``, so a run averages over many seeds. Every op's outputs
are checked. With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` traced and untraced
ops alternate and the result holds the per-layer metrics. The last line of
stdout is the result as JSON. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

OP_TIMEOUT_S = 60
# Op i of a run gets the seed --seed + OP_SEED_STRIDE * i; in a traced run the
# traced op and the untraced op after it share one.
OP_SEED_STRIDE = 1000

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Op:
    wall_s: float
    peak_rss_mib: float
    error: str | None
    traced: bool
    stdouts: list[bytes] = field(default_factory=list)
    span_lists: list = field(default_factory=list)


def _child_env() -> dict[str, str]:
    # Children see the same settings whatever the caller's: the package from
    # src/, bytecode caching on, and the program's default work cap.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "TOMOBOUND_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list[str], env: dict[str, str], stdout_path: Path) -> tuple[float, int, float, bytes]:
    """Run one child to completion: wall seconds, exit code, max RSS in MiB, stderr."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, err_path.read_bytes()


def set_up(workload: workloads.Workload, in_dir: Path) -> float:
    """Generate the workload's inputs in a child process; returns its wall seconds."""
    shutil.rmtree(in_dir, ignore_errors=True)
    in_dir.parent.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "workloads.py"), workload.name, workload.size, str(in_dir)]
    wall, code, _, err = _spawn(argv, _child_env(), in_dir.with_suffix(".setup.out"))
    if code != 0:
        raise RuntimeError(f"set-up of {workload.name} failed:\n{err.decode(errors='replace')}")
    return wall


def run_op(workload, seed, in_dir, out_dir, traced, digests) -> Op:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = _child_env()
    wall, peak, stdouts, span_lists = 0.0, 0.0, [], []
    for i, args in enumerate(workload.commands(seed, in_dir, out_dir)):
        stdout_path = out_dir.parent / f"op{i}.out"
        if traced:
            spans_path = out_dir.parent / f"op{i}.spans.json"
            argv = [sys.executable, str(HERE / "spans.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "tomobound.cli", *args]
        seconds, code, rss, err = _spawn(argv, env, stdout_path)
        wall += seconds
        peak = max(peak, rss)
        if code != 0:
            detail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return Op(wall, peak, f"exit code {code} from {args[0]}: {detail[0]}", traced)
        stdouts.append(stdout_path.read_bytes().replace(str(out_dir).encode(), b"<out>"))
        if traced:
            span_lists.append(json.loads(spans_path.read_text(encoding="utf-8")))
    try:
        workload.check(seed, stdouts, out_dir, digests)
        error = None
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        error = f"output check: {exc!r}"
    return Op(wall, peak, error, traced, stdouts, span_lists)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[list[float], list[Op]]:
    """Set up before every op, until the next set-up and op would end past ``seconds``.

    Spreading the set-ups through the run, not doing them all at its start,
    lets their median see the same swings of machine speed as the ops'."""
    digests = workloads.load_digests()
    in_dir, out_dir = work / "inputs", work / "op" / "out"
    setups: list[float] = []
    ops: list[Op] = []
    start = time.perf_counter()
    while True:
        setups.append(set_up(workload, in_dir))
        index = len(ops) // 2 if trace else len(ops)
        op_seed = seed + OP_SEED_STRIDE * index
        ops.append(run_op(workload, op_seed, in_dir, out_dir, trace and len(ops) % 2 == 0, digests))
        if ops[-1].error:
            print(f"op {len(ops)} (seed {op_seed}) failed: {ops[-1].error}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        enough = not trace or len(ops) >= 2  # a traced run needs one op of each kind
        step = statistics.median(setups) + statistics.median(o.wall_s for o in ops)
        if enough and elapsed + step > seconds:
            return setups, ops


def end_to_end_metrics(setups: list[float], ops: list[Op]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(o.wall_s for o in ops),
        "peak_rss_mib": max(o.peak_rss_mib for o in ops),
    }


def per_layer_metrics(ops: list[Op]) -> dict[str, float]:
    traced = [o for o in ops if o.traced and not o.error]
    plain = [o for o in ops if not o.traced and not o.error]
    if not traced or not plain:
        raise RuntimeError("a traced run needs at least one passing traced op and one untraced op")
    per_op = []
    for op in traced:
        values, covered = spans.summarize(op.span_lists)
        values["trace.coverage"] = covered / op.wall_s
        per_op.append(values)
    metrics = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}
    metrics["trace.overhead_s"] = statistics.median(o.wall_s for o in traced) - statistics.median(
        o.wall_s for o in plain
    )
    return metrics


def metric_units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, *_ in (*spans.PER_LAYER, *spans.DERIVED)}
    return dict(END_TO_END)


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = workloads.get(workload_name, tiny)
    work = WORK / f"{workload_name}-{os.getpid()}"
    try:
        setups, ops = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = sum(1 for o in ops if o.error)
    values = per_layer_metrics(ops) if trace else end_to_end_metrics(setups, ops)
    units = metric_units(trace)
    print(f"# {workload_name} ({workload.size}), seed {seed}, {len(ops)} ops, {len(setups)} set-ups")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {failed / len(ops):.6g} ({failed} of {len(ops)} ops)")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def record_digests() -> None:
    """Record every workload's output digests at DEFAULT_SEED, both sizes.

    Run this only at a commit whose outputs are known to be right."""
    recorded = {}
    for name in workloads.NAMES:
        for tiny in (True, False):
            workload = workloads.get(name, tiny)
            work = WORK / f"record-{os.getpid()}"
            out_dir = work / "op" / "out"
            try:
                set_up(workload, work / "inputs")
                op = run_op(workload, workloads.DEFAULT_SEED, work / "inputs", out_dir, False, {})
                if op.error:
                    raise RuntimeError(f"{name} ({workload.size}): {op.error}")
                key = workload.digest_key(workloads.DEFAULT_SEED)
                recorded[key] = workload.digest_outputs(op.stdouts, out_dir)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and a single op (two traced)")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tomobound" / "cli.py").is_file():
        print(f"error: no tomobound package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = 0.0 if args.smoke else args.seconds
    try:
        result = run(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
