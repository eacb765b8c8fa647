import json
import sys

import pytest

from conftest import reference_check_consistency, reference_q_lower_bound
from tomobound.bounds import Scenario
from tomobound.cli import main


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

    def test_work_cap_env_override(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "g.edges").write_text("nodes 30\n" + "".join(f"{i} {i+1}\n" for i in range(29)))
        (tmp_path / "p.paths").write_text(" ".join(str(i) for i in range(30)) + "\n")
        monkeypatch.setenv("TOMOBOUND_WORK_CAP", "10")
        code, _, err = run_cli(
            capsys, "check", str(tmp_path / "g.edges"), str(tmp_path / "p.paths"), "--k", "3"
        )
        assert code == 2
        assert "oracle too large" in err

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
        ],
        ids=["no-pairs-key", "not-an-object", "short-pair"],
    )
    def test_bad_pairs_file_exits_2(self, tmp_path, capsys, content, defect):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(content)
        code, _, err = run_cli(capsys, "experiment", "--name", "fat_tree_id", "--pairs", str(pairs))
        assert code == 2
        assert err == f"error: {pairs}: {defect}\n"

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
