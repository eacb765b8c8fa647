"""Span recorder for the benchmark's traced run, and its per-layer metrics.

The recorder wraps the public functions in ``TARGETS`` in every ``tomobound``
module namespace that binds them. ``cli``, ``experiments`` and ``routing``
import these functions by name, so patching only the defining module would
miss their calls. Each call records a span ``[name, start, end, parent,
counts]`` in memory; ``parent`` is the index of the enclosing span or -1.
Every patched name is restored on exit, also on error.

Run as a script to trace one CLI run and write its spans as JSON:

    python3 perfbench/spans.py <spans.json> <tomobound CLI arguments...>
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from importlib import import_module

TARGETS = {
    "cli": ("main",),
    "model": ("load_graph", "load_paths", "validate_path_set", "save_graph", "save_paths"),
    "identifiability": ("column_run_counts", "path_matrix", "testing_matrix", "one_identifiable_set"),
    "routing": ("check_consistency", "q_lower_bound", "shortest_path_tree"),
    "construct": ("ica", "fat_tree", "fat_tree_all_pair_paths", "fat_tree_route"),
    "experiments": ("run_experiment",),
    "bounds": ("bound_single_server",),
}

# Work counts taken from a call's bound arguments and its result, computed
# here rather than read from the program.
COUNTERS = {
    "model.load_graph": lambda a, r: {"model.bytes_read": os.path.getsize(a["path"])},
    "model.load_paths": lambda a, r: {"model.bytes_read": os.path.getsize(a["path"])},
    "model.save_graph": lambda a, r: {"model.bytes_written": os.path.getsize(a["path"])},
    "model.save_paths": lambda a, r: {"model.bytes_written": os.path.getsize(a["path"])},
    "routing.check_consistency": lambda a, r: {
        "routing.path_pairs": a["ps"].m * (a["ps"].m - 1) // 2,
        "routing.consistency_violations": len(r.violations),
    },
    "construct.ica": lambda a, r: {"construct.ica.nodes": r.graph.node_count},
    "experiments.run_experiment": lambda a, r: {
        "experiments.trials": a["spec"].trials * len(a["spec"].m_values)
    },
}

# Per-layer metrics: (name, unit, better, kind, source). kind is "s" for the
# summed duration of the source's spans, "self_s" for that minus the time its
# child spans cover, "calls" for its span count and "count" for a counter.
PER_LAYER = (
    ("cli.main.self_s", "s", "lower", "self_s", "cli.main"),
    *((f"model.{f}.s", "s", "lower", "s", f"model.{f}") for f in TARGETS["model"]),
    ("model.bytes_read", "bytes", "lower", "count", "model.bytes_read"),
    ("model.bytes_written", "bytes", "lower", "count", "model.bytes_written"),
    *((f"identifiability.{f}.s", "s", "lower", "s", f"identifiability.{f}") for f in TARGETS["identifiability"]),
    ("identifiability.path_matrix.calls", "count", "lower", "calls", "identifiability.path_matrix"),
    *((f"routing.{f}.s", "s", "lower", "s", f"routing.{f}") for f in TARGETS["routing"]),
    ("routing.spt_builds", "count", "lower", "calls", "routing.shortest_path_tree"),
    ("routing.path_pairs", "count", "lower", "count", "routing.path_pairs"),
    ("routing.consistency_violations", "count", "lower", "count", "routing.consistency_violations"),
    *((f"construct.{f}.s", "s", "lower", "s", f"construct.{f}") for f in TARGETS["construct"] if f != "fat_tree_route"),
    ("construct.ica.nodes", "count", "higher", "count", "construct.ica.nodes"),
    ("construct.fat_tree_route.calls", "count", "lower", "calls", "construct.fat_tree_route"),
    ("experiments.run_experiment.self_s", "s", "lower", "self_s", "experiments.run_experiment"),
    ("experiments.trials", "count", "higher", "count", "experiments.trials"),
    ("bounds.bound_single_server.s", "s", "lower", "s", "bounds.bound_single_server"),
)

# Metrics derived from the above or from op wall times; run.py computes them.
DERIVED = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


class Recorder:
    """Context manager that wraps ``TARGETS`` and collects spans in ``self.spans``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        import tomobound.cli  # noqa: F401  (loads every module that binds a target)

        try:
            modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "tomobound"]
            for layer, names in TARGETS.items():
                defining = import_module(f"tomobound.{layer}")
                for name in names:
                    original = getattr(defining, name)
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def summarize(span_lists: list[list[list]]) -> tuple[dict[str, float], float]:
    """Per-layer values of one op from the spans of its child processes,
    and the seconds its root spans cover."""
    seconds: Counter = Counter()
    self_seconds: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    covered = 0.0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, span_counts in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
            if span_counts:
                counts.update(span_counts)
        for (name, start, end, _, _), inner in zip(spans, child_time):
            seconds[name] += end - start
            self_seconds[name] += end - start - inner
            calls[name] += 1
    sources = {"s": seconds, "self_s": self_seconds, "calls": calls, "count": counts}
    values = {name: float(sources[kind][source]) for name, _, _, kind, source in PER_LAYER}
    return values, covered


def _main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import tomobound.cli

    recorder = Recorder()
    try:
        with recorder:
            code = tomobound.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(recorder.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
