import sys
from fractions import Fraction

import pytest

from tomobound import experiments
from tomobound.cli import main
from tomobound.bounds import bound, bound_single_server
from tomobound.experiments import ExperimentSpec, ResultTable, run_experiment
from tomobound.routing import shortest_path_tree


def rows_by(table: ResultTable, scenario: str, metric: str) -> dict[int, object]:
    return {
        row[0]: row[4]
        for row in table.rows
        if row[2] == scenario and row[3] == metric
    }


class TestBoundSweep:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_ar_cr_curves(self):
        spec = ExperimentSpec(
            name="bound_sweep",
            m_values=tuple(range(1, 25)),
            d_values=(Fraction(12),),
            scenarios=("arbitrary-max", "consistent-max"),
            n=78,
        )
        table = run_experiment(spec)
        ar = rows_by(table, "arbitrary-max", "bound")
        cr = rows_by(table, "consistent-max", "bound")
        for m in range(1, 25):
            assert ar[m] == bound("arbitrary-max", m, 78, 12).bound
        equal = [m for m in range(2, 25) if ar[m] == cr[m]]
        assert equal == [2, 3, *range(7, 25)]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_partial_gap_grows_with_dmax(self):
        gaps = {}
        for d in (5, 15, 25):
            spec = ExperimentSpec(
                name="bound_sweep",
                m_values=tuple(range(2, 17)),
                d_values=(Fraction(d),),
                scenarios=("consistent-max", "partial-consistent"),
                q_values=(2,),
                n=100,
            )
            table = run_experiment(spec)
            cr = rows_by(table, "consistent-max", "bound")
            pq = rows_by(table, "partial-consistent(q=2)", "bound")
            gaps[d] = max(pq[m] - cr[m] for m in range(2, 17))
        assert gaps[5] <= gaps[15] <= gaps[25]
        assert gaps[25] > gaps[5]

    def test_q_values_need_a_scenario_that_reads_q(self):
        # as bound() refuses a q that its scenario does not read
        spec = ExperimentSpec(
            name="bound_sweep", m_values=(4,), d_values=(Fraction(5),),
            scenarios=("single-server", "arbitrary-avg"), q_values=(2,),
        )
        with pytest.raises(ValueError, match="^no swept scenario reads q: single-server, arbitrary-avg$"):
            run_experiment(spec)

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentSpec(name="bound_sweep"))


class TestRandomPlacement:
    def test_deterministic_given_seed(self):
        spec = ExperimentSpec(
            name="random_placement",
            m_values=(4, 8),
            trials=10,
            seed=7,
            d_max=4,
        )
        a = run_experiment(spec).to_csv()
        b = run_experiment(spec).to_csv()
        assert a == b

    def test_different_seed_differs(self):
        base = dict(name="random_placement", m_values=(6,), trials=8, d_max=4)
        a = run_experiment(ExperimentSpec(seed=1, **base)).to_csv()
        b = run_experiment(ExperimentSpec(seed=2, **base)).to_csv()
        assert a != b

    def test_negative_seed_rejected(self, capsys):
        # random.Random seeds with abs(seed): -7 would print seed=-7 over the rows of seed 7
        argv = ["experiment", "--name", "random_placement", "--m", "4,8", "--trials", "3", "--seed", "-7"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got seed=-7\n")
        with pytest.raises(ValueError, match="^seed must be >= 0, got seed=-1$"):
            ExperimentSpec(name="tightness", seed=-1)

    def test_soundness_against_bound(self):
        spec = ExperimentSpec(
            name="random_placement",
            m_values=(4, 8, 16),
            trials=20,
            seed=3,
            d_max=4,
        )
        table = run_experiment(spec)
        phi = rows_by(table, "random-placement", "phi1_max")
        ub = rows_by(table, "single-server", "bound")
        for m in (4, 8, 16):
            assert phi[m] <= ub[m] == bound_single_server(m, 108, 4).bound

    def test_unfiltered_mode_tracks_path_lengths(self):
        spec = ExperimentSpec(name="random_placement", m_values=(5,), trials=5, seed=11)
        table = run_experiment(spec)
        lens = rows_by(table, "random-placement", "max_path_len")
        assert lens[5] >= 2
        # soundness against the bound at the worst observed length
        phi = rows_by(table, "random-placement", "phi1_max")
        assert phi[5] <= bound_single_server(5, 108, lens[5]).bound

    @pytest.fixture
    def builds(self, monkeypatch):
        """Sources of the SPTs that random_placement builds."""
        sources = []

        def counting_spt(g, src, max_hops=None):
            sources.append(src)
            return shortest_path_tree(g, src, max_hops)

        monkeypatch.setattr(experiments, "shortest_path_tree", counting_spt)
        return sources

    @pytest.mark.parametrize("d_max", [None, 3])
    def test_one_spt_per_trial(self, builds, d_max):
        spec = ExperimentSpec(name="random_placement", m_values=(4, 8, 48), trials=6, seed=7, d_max=d_max)
        table = run_experiment(spec)
        skipped = rows_by(table, "random-placement", "trials_skipped")
        if d_max is not None:
            assert sum(skipped.values()) > 0  # skipped trials build their SPT too
        assert len(builds) == spec.trials * len(spec.m_values)

    @pytest.mark.parametrize(
        "d_max, message",
        [
            ("0", "d_max must be >= 1"),
            ("1", "d_max must be >= 2 when m > 1 (a root-to-leaf path needs two nodes)"),
        ],
    )
    def test_bad_dmax_fails_before_any_trial(self, builds, capsys, d_max, message):
        code = main(["experiment", "--name", "random_placement", "--m", "4", "--dmax", d_max])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert builds == []


class TestFatTreeId:
    def test_bundled_cover(self):
        table = run_experiment(ExperimentSpec(name="fat_tree_id", k=4))
        metrics = {(row[3]): row[4] for row in table.rows if row[2] == "fat-tree"}
        assert metrics["nodes"] == 36
        assert metrics["phi1"] == 36
        assert metrics["q_lower_bound"] <= 2
        assert metrics["all_pairs_half_consistent"] == 1
        m_of_cover = [row[0] for row in table.rows if row[3] == "phi1"][0]
        assert m_of_cover == 16


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"name": "random_placement"}, "random_placement needs m_values"),
        ({"name": "fat_tree_id", "k": 6}, "bundled cover is for k=4, experiment requested k=6"),
        ({"name": "tightness", "m_values": (3,)}, "tightness needs m_values and d_values"),
    ],
    ids=["random_placement", "fat_tree_id", "tightness"],
)
def test_missing_input_named(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_experiment(ExperimentSpec(**fields))


class TestTightness:
    def test_grid_matches_bound(self):
        spec = ExperimentSpec(
            name="tightness",
            m_values=(2, 3, 4),
            d_values=(Fraction(1), Fraction(2), Fraction(3)),
        )
        table = run_experiment(spec)
        for (m, d), phi in rows_by2(table, "ica", "phi1").items():
            assert phi == rows_by2(table, "ica", "bound")[(m, d)]


def rows_by2(table: ResultTable, scenario: str, metric: str) -> dict[tuple, object]:
    return {
        (row[0], row[1]): row[4]
        for row in table.rows
        if row[2] == scenario and row[3] == metric
    }


class TestResultTable:
    def test_csv_header_and_seed_line(self):
        table = ResultTable(name="tightness", seed=5, rows=((2, 1, "ica", "phi1", 2),))
        text = table.to_csv()
        lines = text.splitlines()
        assert lines[0] == "# experiment=tightness seed=5"
        assert lines[1] == "m,d,scenario,metric,value"
        assert lines[2] == "2,1,ica,phi1,2"

    def test_json_round_trip(self):
        import json

        table = ResultTable(name="tightness", seed=5, rows=((2, Fraction(3, 2), "ica", "phi1", 2),))
        data = json.loads(table.to_json())
        assert data["seed"] == 5
        assert data["rows"] == [[2, "3/2", "ica", "phi1", 2]]

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python turns ints of any length into text",
    )
    @pytest.mark.parametrize("column", ["d", "value"])
    @pytest.mark.parametrize("form", ["to_csv", "to_json"])
    def test_too_long_to_print_names_column_and_row(self, column, form):
        limit = sys.get_int_max_str_digits()
        huge = 10**limit  # one digit more than Python prints
        d, value = (Fraction(huge, 3), 5) if column == "d" else (Fraction(2), huge)
        table = ResultTable(
            name="bound_sweep", seed=0,
            rows=((3, Fraction(2), "arbitrary-avg", "bound", 4), (3, d, "consistent-avg", "bound", value)),
        )
        with pytest.raises(ValueError) as exc:
            getattr(table, form)()
        assert str(exc.value) == (
            f"{column} of the consistent-avg bound row has more than {limit} decimal digits, too many to print"
        )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="bogus")
