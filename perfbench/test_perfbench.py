"""The benchmark's own tests: every workload end to end at its tiny size.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tmp_path():
    """A scratch directory inside the checkout, as the benchmark itself uses."""
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        run.WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOAD_TYPES
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in (*spans.PER_LAYER, *spans.DERIVED)
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_prints_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--smoke", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_ops_print_the_same(name, tmp_path):
    workload = workloads.get(name, tiny=True)
    digests = workloads.load_digests()
    run.set_up(workload, tmp_path / "inputs")
    plain = run.run_op(workload, workloads.DEFAULT_SEED, tmp_path / "inputs", tmp_path / "a" / "out", False, digests)
    traced = run.run_op(workload, workloads.DEFAULT_SEED, tmp_path / "inputs", tmp_path / "b" / "out", True, digests)
    assert plain.error is None and traced.error is None
    assert plain.stdouts == traced.stdouts
    assert all(span_list for span_list in traced.span_lists)


def _tomobound_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "tomobound"
        for attr, value in vars(module).items()
    }


def test_recorder_restores_every_name_also_on_error(capsys):
    import tomobound.cli

    before = _tomobound_bindings()
    with spans.Recorder() as recorder:
        assert tomobound.cli.main(["bound", "--scenario", "single-server", "--m", "4", "--dmax", "3", "--n", "20"]) == 0
        assert _tomobound_bindings() != before
    assert [s[0] for s in recorder.spans] == ["cli.main", "bounds.bound_single_server"]
    assert _tomobound_bindings() == before
    with pytest.raises(RuntimeError, match="boom"):
        with spans.Recorder():
            raise RuntimeError("boom")
    assert _tomobound_bindings() == before
    capsys.readouterr()


def test_summarize_splits_self_time_from_child_spans():
    span_list = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["routing.check_consistency", 1.0, 4.0, 0, {"routing.path_pairs": 6}],
        ["identifiability.path_matrix", 5.0, 6.0, 0, None],
        ["identifiability.path_matrix", 6.0, 8.0, 0, None],
    ]
    values, covered = spans.summarize([span_list])
    assert covered == 10.0
    assert values["cli.main.self_s"] == 4.0
    assert values["routing.check_consistency.s"] == 3.0
    assert values["identifiability.path_matrix.s"] == 3.0
    assert values["identifiability.path_matrix.calls"] == 2.0
    assert values["routing.path_pairs"] == 6.0
    assert values["construct.ica.s"] == 0.0


def test_checker_rejects_a_wrong_report(tmp_path):
    workload = workloads.get("check-fattree", tiny=True)
    report = {
        "nodes": 36, "phi1": 35, "path_violations": [], "consistent": False,
        "q_lower_bound": 2, "consistency_violations": ["x"] * 20,
    }
    with pytest.raises(ValueError, match="phi1"):
        workload.check(workloads.DEFAULT_SEED, [json.dumps(report).encode()], tmp_path, {})
    report["phi1"] = 36
    workload.check(workloads.DEFAULT_SEED, [json.dumps(report).encode()], tmp_path, {})
    digests = {"check-fattree/tiny": {"stdout": ["0" * 64], "files": {}}}
    with pytest.raises(ValueError, match="digests"):
        workload.check(workloads.DEFAULT_SEED, [json.dumps(report).encode()], tmp_path, digests)


def test_placement_checker_holds_phi1_to_the_bound(tmp_path):
    workload = workloads.get("placement-grid", tiny=True)
    header = "# experiment=random_placement seed=5\nm,d,scenario,metric,value\n"
    rows = "".join(
        f"{m},8,random-placement,phi1_max,{phi1}\n{m},8,random-placement,trials_used,2\n"
        f"{m},8,random-placement,trials_skipped,0\n{m},8,single-server,bound,3\n"
        for m, phi1 in ((2, 3), (4, 4))
    )
    with pytest.raises(ValueError, match=r"m=4: phi1_max 4 is outside \[0, single-server bound 3\]"):
        workload.check(5, [(header + rows).encode()], tmp_path, {})
    workload.check(5, [(header + rows.replace("phi1_max,4", "phi1_max,3")).encode()], tmp_path, {})
    # a program that skipped every trial must not pass
    skipped_all = rows.replace("phi1_max,3", "phi1_max,").replace("phi1_max,4", "phi1_max,")
    skipped_all = skipped_all.replace("trials_used,2", "trials_used,0").replace("trials_skipped,0", "trials_skipped,2")
    with pytest.raises(ValueError, match="m=2: trials_used"):
        workload.check(5, [(header + skipped_all).encode()], tmp_path, {})
    # nor one that skips one trial and counts it
    one_skipped = rows.replace("trials_skipped,0", "trials_skipped,1", 1)
    with pytest.raises(ValueError, match="m=2: trials_skipped"):
        workload.check(5, [(header + one_skipped).encode()], tmp_path, {})


def test_a_malformed_report_fails_the_op_not_the_run(tmp_path, monkeypatch):
    workload = workloads.get("check-fattree", tiny=True)
    run.set_up(workload, tmp_path / "inputs")
    monkeypatch.setattr(workload, "check_outputs", lambda *_: json.loads("null")["phi1"])
    op = run.run_op(workload, workloads.DEFAULT_SEED, tmp_path / "inputs", tmp_path / "op" / "out", False, {})
    assert op.error is not None and "TypeError" in op.error


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-fattree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
