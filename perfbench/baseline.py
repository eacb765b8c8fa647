"""Run the benchmark over several seeds and record each metric's median and spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload gets ten end-to-end runs, on seeds 1..10, and then one traced run
at seed 1, each as long as BENCHMARK.json's ``run_seconds``. The spread of a
metric is (Q3 - Q1) / median over the runs, with the quartiles from
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
RUNS = 10


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report = {"runs": RUNS, "seconds": SECONDS, "workloads": {}}
    for name in workloads.NAMES:
        results = [run_once(name, seed, 0) for seed in range(1, RUNS + 1)]
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                m: summarize([r["metrics"][m]["value"] for r in results]) for m in results[0]["metrics"]
            },
            "per_layer_seed1": {
                m: v["value"] for m, v in run_once(name, 1, 1)["metrics"].items()
            },
        }
        report["workloads"][name] = entry
        spreads = ", ".join(f"{m} {s['median']:.4g} ±{s['spread']:.3f}" for m, s in entry["end_to_end"].items())
        print(f"{name}: failed {sum(entry['failed'])}/{sum(entry['attempted'])}; {spreads}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
