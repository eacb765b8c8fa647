import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tomobound
from conftest import reference_check_consistency, reference_q_lower_bound
from tomobound.bounds import Scenario
from tomobound.cli import entry, main
from tomobound.identifiability import testing_matrix
from tomobound.model import Graph, PathSet, format_edge_list, format_path_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBoundCommand:
    def test_consistent_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--scenario", "consistent", "--m", "8", "--dbar", "8.75", "--n", "100"
        )
        assert code == 0
        data = json.loads(out)
        assert data["bound"] == 38
        assert data["scenario"] == "consistent-avg"
        assert data["d"] == "35/4"

    def test_single_server_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--scenario", "single-server", "--m", "48", "--dmax", "7", "--n", "95"
        )
        assert code == 0
        assert json.loads(out)["bound"] == 95

    def test_unbounded_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--scenario", "arbitrary-unbounded", "--m", "3", "--n", "100"
        )
        assert code == 0
        assert json.loads(out)["bound"] == 7

    def test_rational_dbar(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--scenario", "consistent", "--m", "7", "--dbar", "82/7", "--n", "39"
        )
        assert code == 0
        assert json.loads(out)["bound"] == 39

    def test_multi_fixed(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--scenario", "multi-fixed", "--m", "6", "--dbar", "20",
            "--n", "108", "--ms", "3,3",
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_max"] == 52
        assert data["bound"] == 26

    def test_multi_fixed_idle_server_rejected(self, capsys):
        # with the idle servers the bound read 2, yet the two paths [5, 1] and
        # [0, 1] of one server identify 3 nodes
        code, out, err = run_cli(
            capsys, "bound", "--scenario", "multi-fixed", "--m", "2", "--dbar", "2",
            "--n", "6", "--ms", "2,0,0",
        )
        assert code == 2
        assert out == ""
        assert err == "error: every per-server client count must be >= 1, got m_s=[2, 0, 0]\n"

    def test_parameter_error_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--scenario", "consistent", "--m", "4", "--dbar", "10/3", "--n", "9"
        )
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--dbar", "abc", "not a rational number: 'abc'"),
         ("--ms", "3,x", "expected comma-separated integers, got '3,x'")],
        ids=["dbar", "ms"],
    )
    def test_unreadable_flag_value_named(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--scenario", "multi-fixed", "--m", "6", "--n", "108", flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument {flag}: {message}\n")

    @pytest.mark.parametrize(
        "scenario, flags",
        [("consistent", ["--dbar", "4"]), ("single-server", ["--dmax", "4"]), ("arbitrary-unbounded", [])],
    )
    def test_negative_n_rejected(self, capsys, scenario, flags):
        code, out, err = run_cli(
            capsys, "bound", "--scenario", scenario, "--m", "4", *flags, "--n", "-5"
        )
        assert code == 2
        assert out == ""
        assert err == "error: n must be >= 0, got n=-5\n"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python turns ints of any length into text",
    )
    @pytest.mark.parametrize("field", ["d", "n_max"])
    def test_too_long_to_print_names_the_field(self, capsys, field):
        limit = sys.get_int_max_str_digits()
        if field == "d":
            m, dbar = "20000", f"1e{limit + 100}"
        else:  # m and dbar print, m*d does not
            half = limit // 2 + 1
            m, dbar = "1" + "0" * half, f"1e{half}"
        code, out, err = run_cli(capsys, "bound", "--scenario", "consistent", "--m", m, "--dbar", dbar, "--n", "5")
        assert code == 2
        assert out == ""
        assert err == f"error: {field} has more than {limit} decimal digits, too many to print\n"

    def test_dbar_dmax_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--scenario", "consistent", "--m", "4",
            "--dbar", "3", "--dmax", "3", "--n", "9",
        )
        assert code == 2
        assert "not both" in err

    @pytest.mark.parametrize("scenario", [s.value for s in Scenario])
    def test_dbar_dmax_conflict_full_tag(self, capsys, scenario):
        code, out, err = run_cli(
            capsys, "bound", "--scenario", scenario, "--m", "3",
            "--dbar", "3", "--dmax", "4", "--n", "50",
        )
        assert (code, out) == (2, "")
        assert err == f"error: scenario {scenario!r}: give either --dbar or --dmax, not both\n"

    @pytest.mark.parametrize("flag", ["--dbar", "--dmax", "--q", "--ms", "--servers"])
    @pytest.mark.parametrize("name", [*(s.value for s in Scenario), "arbitrary", "consistent", "partial"])
    def test_each_scenario_reads_only_its_flags(self, capsys, name, flag):
        # each set of flags that completes a scenario's input, spelled out here
        # rather than read from bounds.SCENARIO_INPUTS
        complete = {
            "arbitrary-avg": ["--dbar"], "arbitrary-max": ["--dmax"], "arbitrary-unbounded": [""],
            "consistent-avg": ["--dbar"], "consistent-max": ["--dmax"],
            "partial-consistent": ["--dbar --q"], "single-server": ["--dmax"],
            "multi-fixed": ["--dbar --ms"], "multi-flexible": ["--dbar --servers"],
            "arbitrary": ["--dbar", "--dmax"], "consistent": ["--dbar", "--dmax"], "partial": ["--dbar --q"],
        }[name]
        value = {"--dbar": "3", "--dmax": "3", "--q": "2", "--ms": "2,2", "--servers": "2"}
        reading = [flags.split() for flags in complete if flag in flags.split()]
        lengths = ("--dbar", "--dmax") if flag in ("--dbar", "--dmax") else ()  # one length at a time
        flags = reading[0] if reading else [*(f for f in complete[0].split() if f not in lengths), flag]
        argv = [arg for f in flags for arg in (f, value[f])]
        code, out, err = run_cli(capsys, "bound", "--scenario", name, "--m", "4", "--n", "50", *argv)
        if reading:
            assert (code, err) == (0, "")
            key, shown = {"--dbar": ("d_kind", "avg"), "--dmax": ("d_kind", "max"), "--q": ("q", 2),
                          "--ms": ("clients_per_server", [2, 2]), "--servers": ("servers", 2)}[flag]
            assert json.loads(out)[key] == shown
        else:
            # the short names resolve with the --dbar of their first flag set
            tag = {"arbitrary": "arbitrary-avg", "consistent": "consistent-avg",
                   "partial": "partial-consistent"}.get(name, name)
            assert (code, out) == (2, "")
            assert err == f"error: scenario {tag} does not read {flag}\n"


class TestCheckCommand:
    def test_half_grid_round_trip(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "construct", "half-grid", "--m", "8", "--out", str(tmp_path))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "check", str(tmp_path / "half_grid.edges"), str(tmp_path / "half_grid.paths")
        )
        assert code == 0
        data = json.loads(out)
        assert data["phi1"] == 36
        assert data["consistent"] is True

    def test_bundled_inconsistent_instance(self, tmp_path, capsys):
        from tomobound.fixtures import load_instance
        from tomobound.model import save_graph, save_paths

        g, ps = load_instance("inconsistent10")
        save_graph(g, tmp_path / "g.edges")
        save_paths(ps, tmp_path / "p.paths")
        code, out, _ = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert code == 0
        data = json.loads(out)
        assert data["phi1"] == 10
        assert data["consistent"] is False
        assert data["consistency_violations"]

    def test_phi_k(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n")
        (tmp_path / "p.paths").write_text("0 1\n2 1\n")
        code, out, _ = run_cli(
            capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"), "--k", "2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["phi1"] == 3
        assert data["phi_k"] == 0

    def test_k_far_above_n_answers_as_k_n(self, tmp_path, capsys):
        # no failure set has more than n = 10 nodes; --k 10**9 must not loop to 10**9
        from tomobound.fixtures import load_instance
        from tomobound.model import save_graph, save_paths

        g, ps = load_instance("consistent10")
        save_graph(g, tmp_path / "g.edges")
        save_paths(ps, tmp_path / "p.paths")
        files = [str(tmp_path / "g.edges"), str(tmp_path / "p.paths")]
        code, out, _ = run_cli(capsys, "check", *files, "--k", "10")
        assert code == 0
        at_n = json.loads(out)
        code, out, _ = run_cli(capsys, "check", *files, "--k", "1000000000")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 1000000000  # the report keeps the requested k
        assert data["phi_k"] == at_n["phi_k"]

    def test_bundled_39_instance(self, tmp_path, capsys):
        from tomobound.fixtures import load_instance
        from tomobound.model import save_graph, save_paths

        g, ps = load_instance("seven_path39")
        save_graph(g, tmp_path / "g.edges")
        save_paths(ps, tmp_path / "p.paths")
        code, out, _ = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert code == 0
        data = json.loads(out)
        assert data["phi1"] == 39
        assert data["consistent"] is True

    def test_prints_the_first_20_violations(self, tmp_path, capsys):
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths
        from tomobound.model import save_graph, save_paths

        ft = fat_tree(4)
        ps = fat_tree_all_pair_paths(ft)
        save_graph(ft.graph, tmp_path / "g.edges")
        save_paths(ps, tmp_path / "p.paths")
        code, out, _ = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert code == 0
        data = json.loads(out)
        ref = reference_check_consistency(ps)
        assert len(ref.violations) > 20
        assert data["consistent"] is False
        assert data["consistency_violations"] == [str(v) for v in ref.violations[:20]]
        assert data["q_lower_bound"] == reference_q_lower_bound(ps)

    def test_non_simple_paths_leave_consistency_undefined(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "p.paths").write_text("0 1 2 1\n2 3\n")
        code, out, err = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        report = {
            "nodes": 4, "paths": 2, "path_lengths": [4, 2], "path_violations": [],
            "phi1": 2, "identifiable": [2, 3], "per_path_distinct_encodings": [2, 2],
            "consistent": None, "consistency_violations": ["paths are not simple; consistency not defined"],
        }
        assert (code, out, err) == (0, json.dumps(report, indent=1) + "\n", "")

    def test_builds_one_testing_matrix(self, tmp_path, capsys, monkeypatch):
        # check_consistency and q_lower_bound read the columns that check built
        from tomobound.construct import fat_tree, fat_tree_all_pair_paths
        from tomobound.model import save_graph, save_paths

        ft = fat_tree(4)
        save_graph(ft.graph, tmp_path / "g.edges")
        save_paths(fat_tree_all_pair_paths(ft), tmp_path / "p.paths")
        calls = []

        def counting(*args):
            calls.append(args)
            return testing_matrix(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("tomobound") and getattr(module, "testing_matrix", None) is testing_matrix:
                monkeypatch.setattr(module, "testing_matrix", counting)
        code, out, _ = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert (code, json.loads(out)["q_lower_bound"]) == (0, 2)
        assert len(calls) == 1

    def test_work_cap_env_override(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "g.edges").write_text("nodes 30\n" + "".join(f"{i} {i+1}\n" for i in range(29)))
        (tmp_path / "p.paths").write_text(" ".join(str(i) for i in range(30)) + "\n")
        monkeypatch.setenv("TOMOBOUND_WORK_CAP", "10")
        code, _, err = run_cli(
            capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"), "--k", "3"
        )
        assert code == 2
        assert "oracle too large" in err

    def test_oracle_out_of_memory_exits_2(self, tmp_path, capsys):
        # fat-tree k=6 at --k 4 visits 3.9M failure sets, under the default work cap; their
        # signatures outgrow this 300 MB address-space limit, set in a child process
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")
        assert main(["construct", "fat-tree", "--k", "6", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        limit = 300 * 2**20
        run = subprocess.run(
            [sys.executable, "-m", "tomobound.cli", "check",
             str(tmp_path / "fat_tree.edges"), str(tmp_path / "fat_tree.paths"), "--k", "4"],
            env={**os.environ, "PYTHONPATH": str(Path(tomobound.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stdout) == (2, "")
        assert re.fullmatch(r"error: oracle too large: \d+ failure-set signatures filled memory\n", run.stderr)

    def test_work_cap_env_not_an_integer(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "g.edges").write_text("0 1\n")
        (tmp_path / "p.paths").write_text("0 1\n")
        monkeypatch.setenv("TOMOBOUND_WORK_CAP", "abc")
        code, _, err = run_cli(
            capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"), "--k", "1"
        )
        assert code == 2
        assert "TOMOBOUND_WORK_CAP" in err and "'abc'" in err

    def test_violations_exit_1(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("0 1\n")
        (tmp_path / "p.paths").write_text("0 1\n1 3\n")
        code, out, _ = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert code == 1
        assert json.loads(out)["path_violations"]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("0 1 junk extra\n")
        (tmp_path / "p.paths").write_text("0\n")
        code, _, err = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert code == 2
        assert ":1" in err

    @pytest.mark.parametrize(
        "edges, paths, where, message",
        [
            ("0 1\n", "0 1\n1 --1\n", "p.paths:2", "unresolvable node token '--1'"),
            ("0 1\n", "0 \u00b2\n", "p.paths:1", "unresolvable node token '\u00b2'"),
            ("nodes \u00b2\n0 1\n", "0 1\n", "g.edges:1", "malformed header 'nodes \u00b2'"),
            ("0 1\n1 -2\n", "0 1\n", "g.edges:2", "negative node id in pair (1, -2)"),
            ("# c\nnodes 2\n0 1\n1 2\n", "0 1\n", "g.edges:2", "'nodes 2' leaves out node 2"),
        ],
        ids=["path --1", "path superscript", "header superscript", "edge negative id", "header below an id"],
    )
    def test_bad_integer_token_names_file_and_line(self, tmp_path, capsys, edges, paths, where, message):
        (tmp_path / "g.edges").write_text(edges, encoding="utf-8")
        (tmp_path / "p.paths").write_text(paths, encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {tmp_path / where}: {message}")

    @pytest.mark.parametrize("count", [2**62, 2**63])
    def test_header_too_large_for_memory_exits_2(self, tmp_path, capsys, count):
        # the testing matrix's list is refused before anything is allocated:
        # MemoryError at 2^62 entries, OverflowError at 2^63
        (tmp_path / "g.edges").write_text(f"nodes {count}\n0 1\n")
        (tmp_path / "p.paths").write_text("0 1\n")
        code, out, err = run_cli(capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"))
        assert code == 2
        assert out == ""
        assert err == f"error: a testing matrix over n={count} nodes does not fit in memory\n"

    def test_links_as_nodes(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n")
        (tmp_path / "p.paths").write_text("0 1 2\n")
        code, out, _ = run_cli(
            capsys,
            "check",
            str(tmp_path / "g.edges"),
            str(tmp_path / "p.paths"),
            "--links-as-nodes",
        )
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == 5
        assert data["path_lengths"] == [5]

    def test_links_as_nodes_bad_step_names_the_path(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text("0 1\n")
        (tmp_path / "p.paths").write_text("0 1\n0 2\n")
        code, out, err = run_cli(
            capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"), "--links-as-nodes"
        )
        assert code == 2
        assert out == ""
        assert err == "error: path 1: step (0, 2) is not an edge of the original graph\n"


class TestProgramEntry:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["bound", "--scenario", "arbitrary-unbounded", "--m", "3", "--n", "100"], 0),
            (["check", "{dir}/g.edges", "{dir}/p.paths"], 1),
            (["bound", "--scenario", "single-server", "--m", "8", "--dbar", "3", "--n", "50"], 2),
            (["bound", "--m", "3"], 2),
        ],
        ids=["success", "violations", "parameter-error", "usage-error"],
    )
    def test_child_exits_with_main_code(self, tmp_path, capsys, argv, code):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n")
        (tmp_path / "p.paths").write_text("0 2\n")
        argv = [arg.format(dir=tmp_path) for arg in argv]
        run = subprocess.run(
            [sys.executable, "-m", "tomobound.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(Path(tomobound.__file__).parents[1])},
            capture_output=True, text=True, timeout=60,
        )
        try:
            in_process = main(argv)
        except SystemExit as exc:  # argparse's usage error
            in_process = exc.code
        assert (run.returncode, run.stdout, run.stderr) == (code, *capsys.readouterr())
        assert in_process == code

    def test_main_leaves_the_collector_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(["bound", "--scenario", "arbitrary-unbounded", "--m", "3", "--n", "100"]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize(
        "argv, code",
        [(["bound", "--scenario", "arbitrary-unbounded", "--m", "3", "--n", "100"], 0), (["bound"], 2)],
        ids=["success", "usage-error"],
    )
    def test_entry_freezes_the_collector_after_main(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["tomobound", *argv])
        before = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as exc:
                entry()
            assert exc.value.code == code
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()


class TestConstructCommand:
    def test_ica_self_check(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "ica", "--m", "4", "--dbar", "3", "--out", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["phi1"] == 8
        sidecar = json.loads((tmp_path / "ica.json").read_text())
        assert len(sidecar["encodings"]) == 8

    def test_ica_example_b(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "ica", "--m", "4", "--dbar", "4.25", "--out", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["phi1"] == 10

    def test_fat_tree(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "fat-tree", "--k", "4", "--out", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == 36
        sidecar = json.loads((tmp_path / "fat_tree.json").read_text())
        assert len(sidecar["addresses"]) == 36

    def test_fat_tree_builds_one_testing_matrix(self, tmp_path, capsys, monkeypatch):
        # the self-check reads the files back and compares them with the built
        # instance; it builds no second testing matrix to count phi1 again
        calls = []

        def counting(*args):
            calls.append(args)
            return testing_matrix(*args)

        for module in ("tomobound.cli", "tomobound.construct"):
            monkeypatch.setattr(f"{module}.testing_matrix", counting)
        code, out, _ = run_cli(capsys, "construct", "fat-tree", "--k", "4", "--out", str(tmp_path))
        assert (code, json.loads(out)["phi1"]) == (0, 36)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [["ica", "--m", "4", "--dbar", "3"], ["half-grid", "--m", "4"], ["fat-tree", "--k", "4"]],
        ids=["ica", "half-grid", "fat-tree"],
    )
    def test_self_check_refuses_reordered_paths(self, tmp_path, capsys, monkeypatch, argv):
        # the path file written with its first two paths swapped: it fits the
        # graph and its phi1 is the same, but it is not the path set that was built
        def swapped(ps):
            first, second, *rest = ps.paths
            return format_path_file(PathSet((second, first, *rest)))

        monkeypatch.setattr("tomobound.model.format_path_file", swapped)
        code, out, err = run_cli(capsys, "construct", *argv, "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: self-check failed: emitted files do not read back as the built instance\n"

    def test_self_check_refuses_another_node_count(self, tmp_path, capsys, monkeypatch):
        # the edge list written with one isolated node more: the paths still fit
        # it and identify as many nodes, but the graph is not the one that was built
        def one_more_node(g, labels=()):
            return format_edge_list(Graph(g.node_count + 1, g.edges), labels)

        monkeypatch.setattr("tomobound.model.format_edge_list", one_more_node)
        argv = ["monitoring-tree", "--m", "7", "--dmax", "3", "--out", str(tmp_path)]
        code, out, err = run_cli(capsys, "construct", *argv)
        assert (code, out) == (2, "")
        assert err == "error: self-check failed: emitted files do not read back as the built instance\n"

    def test_fat_tree_too_many_pairs(self, tmp_path, capsys, monkeypatch):
        # the guard lowered below k=4's 120 host pairs, so that no run routes millions
        monkeypatch.setattr("tomobound.construct._PAIR_GUARD", 119)
        code, out, err = run_cli(capsys, "construct", "fat-tree", "--k", "4", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: fat-tree k=4 has 120 host pairs, more than 119 to route\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--m", "--dbar", "--dmax", "--k"])
    @pytest.mark.parametrize("kind", ["ica", "half-grid", "monitoring-tree", "fat-tree"])
    def test_each_kind_reads_only_its_flags(self, tmp_path, capsys, kind, flag):
        # each kind's complete flag set, spelled out here rather than read from cli._GENERATORS;
        # --k 4 is the default arity, so a flag given at its default value is refused too
        complete = {"ica": ["--m", "--dbar"], "half-grid": ["--m"], "monitoring-tree": ["--m", "--dmax"],
                    "fat-tree": ["--k"]}[kind]
        value = {"--m": "5", "--dbar": "3", "--dmax": "3", "--k": "4"}
        flags = complete if flag in complete else [*complete, flag]
        out_dir = tmp_path / "out"
        argv = [arg for f in flags for arg in (f, value[f])]
        code, out, err = run_cli(capsys, "construct", kind, *argv, "--out", str(out_dir))
        if flag in complete:
            assert (code, err) == (0, "")
            meta = json.loads((out_dir / f"{kind.replace('-', '_')}.json").read_text())["meta"]
            key = {"--m": "m", "--dbar": "dbar", "--dmax": "d_max", "--k": "k"}[flag]
            assert str(meta[key]) == value[flag]
        else:
            assert (code, out) == (2, "")
            assert err == f"error: construct {kind} does not read {flag}\n"
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, what, nodes",
        [
            (["ica", "--m", "4", "--dbar", "3"], "ica m=4 dbar=3", 12),
            (["half-grid", "--m", "4"], "half-grid m=4", 16),
            # at most d_max = 3 nodes on each of the 7 paths
            (["monitoring-tree", "--m", "7", "--dmax", "3"], "monitoring-tree m=7 d_max=3", 21),
        ],
        ids=["ica", "half-grid", "monitoring-tree"],
    )
    def test_size_guard(self, tmp_path, capsys, monkeypatch, argv, what, nodes):
        # the guard lowered to just below the instance, then set to it
        monkeypatch.setattr("tomobound.construct._SIZE_GUARD", nodes - 1)
        code, out, err = run_cli(capsys, "construct", *argv, "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == f"error: {what} has {nodes} path nodes, more than {nodes - 1} to build\n"
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr("tomobound.construct._SIZE_GUARD", nodes)
        assert run_cli(capsys, "construct", *argv, "--out", str(tmp_path / "out"))[0] == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["ica", "--m", "30", "--dbar", "100000"],
                "ica m=30 dbar=100000 has 3000000 path nodes, more than 2097152 to build",
            ),
            (
                ["half-grid", "--m", "100000"],
                "half-grid m=100000 has 10000000000 path nodes, more than 2097152 to build",
            ),
            (
                ["monitoring-tree", "--m", "100000000", "--dmax", "40"],
                "monitoring-tree m=100000000 d_max=40 has 2800000000 path nodes, more than 2097152 to build",
            ),
            # these pass the path-node guard, and their sidecars would spell out n encodings
            # of m characters each; the first two would also take over 2^27 bytes of testing
            # matrix, and ran out of memory in testing_matrix and in build_graph
            (
                ["monitoring-tree", "--m", "110000", "--dmax", "40"],
                "monitoring-tree m=110000 d_max=40 has 219999 encodings of 110000 characters, "
                "24199890000 in all, more than 134217728",
            ),
            (
                ["half-grid", "--m", "1448"],
                "half-grid m=1448 has 1049076 encodings of 1448 characters, 1519062048 in all, more than 134217728",
            ),
            (
                ["monitoring-tree", "--m", "20000", "--dmax", "40"],
                "monitoring-tree m=20000 d_max=40 has 39999 encodings of 20000 characters, "
                "799980000 in all, more than 134217728",
            ),
            (
                ["half-grid", "--m", "900"],
                "half-grid m=900 has 405450 encodings of 900 characters, 364905000 in all, more than 134217728",
            ),
        ],
        ids=[
            "ica", "half-grid", "monitoring-tree",
            "monitoring-tree-matrix", "half-grid-matrix", "monitoring-tree-sidecar", "half-grid-sidecar",
        ],
    )
    def test_too_large_refused_before_any_work(self, tmp_path, argv, message):
        # each ran out of memory under this 600 MB address-space limit before its guard; in a
        # child process, the limit also keeps a broken guard from taking the machine's memory
        resource = pytest.importorskip("resource")
        limit = 600 * 2**20
        run = subprocess.run(
            [sys.executable, "-m", "tomobound.cli", "construct", *argv, "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(Path(tomobound.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            capture_output=True, text=True, timeout=60,
        )
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_monitoring_tree(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "monitoring-tree", "--m", "7", "--dmax", "3", "--out", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["nodes"] == 11

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "construct", "ica", "--m", "3", "--dbar", "100", "--out", str(tmp_path)
        )
        assert code == 2
        assert "2" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["monitoring-tree", "--m", "1", "--dmax", "0"], "d_max must be >= 1"),
            (
                ["monitoring-tree", "--m", "4", "--dmax", "1"],
                "d_max must be >= 2 when m > 1 (a root-to-leaf path needs two nodes)",
            ),
            (
                ["ica", "--m", "4", "--dbar", "10/3"],
                "m*d = 40/3 is not an integer; the encoding budget N_max must be integral",
            ),
        ],
    )
    def test_parameter_errors_name_the_parameter(self, tmp_path, capsys, argv, message):
        code, out, err = run_cli(capsys, "construct", *argv, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_ica_with_deep_top_layer(self, tmp_path, capsys):
        # 1677 encodings, 1102 of them placed by the top-layer search
        code, out, _ = run_cli(
            capsys, "construct", "ica", "--m", "15", "--dbar", "400", "--out", str(tmp_path)
        )
        assert code == 0
        data = json.loads(out)
        assert data["nodes"] == data["phi1"] == 1677


class TestExperimentCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--name", "tightness", "--m", "2..3", "--d", "1,2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# experiment=tightness seed=0")
        assert lines[1] == "m,d,scenario,metric,value"

    @pytest.mark.parametrize("flag", ["--m", "--d", "--scenario", "--q", "--n", "--trials", "--seed",
                                      "--topology", "--dmax", "--server", "--k", "--pairs"])
    @pytest.mark.parametrize("name", ["bound_sweep", "random_placement", "fat_tree_id", "tightness"])
    def test_each_experiment_reads_only_its_flags(self, tmp_path, capsys, name, flag):
        # each experiment's complete flag sets, spelled out here rather than read from
        # experiments.EXPERIMENTS; every experiment reads --seed
        complete = {
            "bound_sweep": ["--m --d --scenario", "--m --d --scenario --q --n --seed"],
            "random_placement": ["--m", "--m --trials --seed --topology --dmax --server"],
            "fat_tree_id": ["", "--k --pairs --seed"],
            "tightness": ["--m --d", "--m --d --seed"],
        }[name]
        pairs = tmp_path / "pairs.json"
        pairs.write_text('{"pairs": [["10.0.0.2", "10.1.0.2"]]}')
        # --trials 1 is the default; the files of --topology and --pairs exist only where they are read
        value = {"--m": "2", "--d": "3", "--scenario": "partial-consistent", "--q": "2", "--n": "50",
                 "--trials": "1", "--seed": "3", "--topology": "nope", "--dmax": "4", "--server": "3",
                 "--k": "4", "--pairs": "missing.json"}
        reading = [flags.split() for flags in complete if flag in flags.split()]
        flags = reading[0] if reading else [*complete[0].split(), flag]
        if reading:
            value.update({"--topology": "isp108", "--pairs": str(pairs)})
        target = tmp_path / "out.csv"
        argv = [arg for f in flags for arg in (f, value[f])]
        code, out, err = run_cli(capsys, "experiment", "--name", name, *argv, "--out", str(target))
        if reading:
            assert (code, err) == (0, "")
            seed = value["--seed"] if "--seed" in flags else "0"
            assert target.read_text().startswith(f"# experiment={name} seed={seed}\n")
        else:
            assert (code, out) == (2, "")
            assert err == f"error: experiment {name} does not read {flag}\n"
            assert not target.exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "experiment", "--name", "random_placement", "--m", "4,8",
            "--trials", "10", "--seed", "7", "--dmax", "4",
        ]
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("server", ["999", "-1"])
    def test_server_outside_topology_exits_2(self, capsys, server):
        code, out, err = run_cli(
            capsys, "experiment", "--name", "random_placement", "--m", "4", "--server", server
        )
        assert code == 2
        assert out == ""
        assert err == f"error: server {server} is not a node of the 108-node topology\n"

    @pytest.mark.parametrize("edges", ["nodes 0\n", "# only a comment\n"], ids=["header", "comments"])
    def test_topology_without_nodes_exits_2(self, tmp_path, capsys, edges):
        (tmp_path / "g.edges").write_text(edges)
        code, out, err = run_cli(
            capsys, "experiment", "--name", "random_placement", "--m", "2",
            "--topology", str(tmp_path / "g.edges"),
        )
        assert (code, out) == (2, "")
        assert err == f"error: topology {tmp_path / 'g.edges'} has no nodes to place a server or clients on\n"

    @pytest.mark.parametrize("count", [2**62, 2**63])
    def test_header_too_large_for_neighbour_table_exits_2(self, tmp_path, capsys, count):
        # as for the testing matrix, the table's list is refused before anything is allocated
        (tmp_path / "g.edges").write_text(f"nodes {count}\n0 1\n1 2\n")
        code, out, err = run_cli(
            capsys, "experiment", "--name", "random_placement", "--m", "2",
            "--topology", str(tmp_path / "g.edges"),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: a neighbour table over n={count} nodes does not fit in memory\n"

    @pytest.mark.parametrize(
        "scenario, needs",
        [("multi-fixed", "the per-server client counts m_s"), ("multi-flexible", "the server count S")],
    )
    def test_bound_sweep_refuses_server_scenarios(self, tmp_path, capsys, scenario, needs):
        # no experiment flag gives what these bounds read besides m, n and d
        code, out, err = run_cli(
            capsys, "experiment", "--name", "bound_sweep", "--m", "4", "--d", "5",
            "--scenario", "arbitrary-avg", "--scenario", scenario, "--out", str(tmp_path / "t.csv"),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: bound_sweep cannot sweep {scenario}: it needs {needs}, which no experiment "
            "flag gives; evaluate it with the bound command\n"
        )
        assert not (tmp_path / "t.csv").exists()

    def test_m_below_one_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "--name", "tightness", "--m", "0", "--d", "1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: m must be >= 1, got m=0\n"

    @pytest.mark.parametrize("form", [["--m", "-2..3"], ["--m=-2..3"]], ids=["space", "equals"])
    def test_negative_range_named(self, capsys, form):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--name", "bound_sweep", *form, "--d", "1"])
        assert exc.value.code == 2
        assert "argument --m: range '-2..3' starts below 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--m", "--q"])
    @pytest.mark.parametrize("hi", [2**62, 10**30], ids=["2^62", "10^30"])
    def test_range_too_large_for_memory_named(self, capsys, flag, hi):
        # Python refuses both tuples before it allocates anything
        text = f"1..{hi}"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--name", "bound_sweep", "--m", "1", "--d", "1", flag, text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: range '{text}' does not fit in memory" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python turns ints of any length into text",
    )
    @pytest.mark.parametrize("column", ["d", "value"])
    def test_too_long_to_print_names_column_and_row(self, tmp_path, capsys, column):
        limit = sys.get_int_max_str_digits()
        if column == "d":
            argv = ["--m", "3", "--d", f"1e{limit + 700}", "--scenario", "arbitrary-avg"]
            row = "arbitrary-avg bound"
        else:  # the bound 2^m - 1 has more than `limit` digits
            argv = ["--m", str(4 * limit), "--d", "1", "--scenario", "arbitrary-unbounded"]
            row = "arbitrary-unbounded bound"
        code, out, err = run_cli(
            capsys, "experiment", "--name", "bound_sweep", *argv, "--json-out", str(tmp_path / "t.json")
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {column} of the {row} row has more than {limit} decimal digits, too many to print\n"
        )

    def test_reversed_range_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--name", "tightness", "--m", "5..1", "--d", "2"])
        assert exc.value.code == 2
        assert "reversed range '5..1'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, defect",
        [
            ('{"nopairs": []}', 'expected a JSON object with a "pairs" list'),
            ("[1, 2]", 'expected a JSON object with a "pairs" list'),
            ('{"pairs": [[1]]}', "pair 0 is [1], expected [src, dst]"),
            ("pairs", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["no-pairs-key", "not-an-object", "short-pair", "not-json"],
    )
    def test_bad_pairs_file_exits_2(self, tmp_path, capsys, content, defect):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(content)
        code, _, err = run_cli(capsys, "experiment", "--name", "fat_tree_id", "--pairs", str(pairs))
        assert code == 2
        assert err == f"error: {pairs}: {defect}\n"

    def test_unknown_fat_tree_address_exits_2(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text('{"pairs": [["10.9.9.9", "10.0.0.2"]]}')
        code, out, err = run_cli(
            capsys, "experiment", "--name", "fat_tree_id", "--k", "4", "--pairs", str(pairs)
        )
        assert (code, out) == (2, "")
        assert err == "error: '10.9.9.9' is neither a node id nor a fat-tree address\n"

    def test_written_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "experiment", "--name", "fat_tree_id", "--out", str(target)
        )
        assert code == 0
        assert target.exists()
        assert "phi1" in target.read_text()

    def test_json_out_without_out(self, tmp_path, capsys):
        args = ["experiment", "--name", "tightness", "--m", "2..3", "--d", "1,2"]
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, *args, "--json-out", str(target))
        assert code == 0
        assert out == plain  # the CSV still goes to stdout
        data = json.loads(target.read_text())
        assert data["experiment"] == "tightness"
        assert len(data["rows"]) == len(plain.splitlines()) - 2


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python reads ints of any length from text",
)
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bound", "--scenario", "arbitrary", "--m", "3", "--n", "10", "--dbar"], "--dbar"),
        (["experiment", "--name", "bound_sweep", "--m", "3", "--d"], "--d"),
    ],
    ids=["bound-dbar", "experiment-d"],
)
def test_number_past_the_digit_limit_named(capsys, argv, flag):
    # Fraction cannot read one more digit than the limit; the error names the
    # limit and does not echo the number back
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "1" + "0" * limit])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument {flag}: the number has more than {limit} decimal digits, too many to print\n")
    assert "0" * 100 not in err
