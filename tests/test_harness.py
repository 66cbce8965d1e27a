"""Config loading, representative selection, comparison, and persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from dice_pareto import (
    ConfigError,
    EngineConfig,
    FrontArchive,
    ModelParams,
    ObjectivePair,
    PolicyMatrix,
    ReferencePoint,
    RunConfig,
    compare_reference,
    evaluate_policy,
    load_config,
    load_front,
    persist_report,
    run_experiment,
    select_representatives,
)
from dice_pareto.harness import config_hash, format_front_csv

MPC = ReferencePoint("MPC", ObjectivePair(27.2348, 4.3885))

# published representative objective values, highest welfare first
PUBLISHED_SOLUTIONS = {
    "A": (27.2360, 4.5380),
    "B": (27.2354, 4.1100),
    "C": (27.2332, 3.6862),
    "D": (27.2271, 3.2368),
    "E": (27.2147, 2.8066),
    "F": (27.1600, 2.3768),
}


def make_archive(pairs, horizon=3):
    objectives = np.array(sorted(pairs, key=lambda wt: (wt[1], -wt[0])), dtype=float)
    return FrontArchive(genomes=np.zeros((len(objectives), 2 * horizon)), objectives=objectives)


def named_objectives(archive, named):
    """(label, ObjectivePair) for each (label, row) that select_representatives returns."""
    return [(label, ObjectivePair(*archive.objectives[row])) for label, row in named]


class TestLoadConfig:
    def test_empty_file_gives_all_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.model == ModelParams()
        assert cfg.engine == EngineConfig()
        assert cfg.representative_count == 6
        assert cfg.reference_points == (MPC,)

    def test_model_override_changes_genome_length(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"H": 10}}))
        cfg = load_config(path)
        assert cfg.model.H == 10
        assert 2 * cfg.model.H == 20

    def test_unknown_model_key_is_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"gammaa": 0.4}}))
        with pytest.raises(ConfigError, match="gammaa"):
            load_config(path)

    def test_unknown_top_level_key_is_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"modle": {}}))
        with pytest.raises(ConfigError, match="modle"):
            load_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{\n  "model": {,}\n}')
        with pytest.raises(ConfigError, match=r":2"):
            load_config(path)

    def test_invariant_violation_reports_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"engine": {"population_size": 7}}))
        with pytest.raises(ConfigError, match="population_size"):
            load_config(path)

    def test_custom_reference_points(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "reference_points": [{"name": "X", "W": 1.0, "T_max": 2.0}]}))
        cfg = load_config(path)
        assert cfg.reference_points == (ReferencePoint("X", ObjectivePair(1.0, 2.0)),)

    def test_malformed_reference_point(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"reference_points": [{"name": "X", "W": 1.0}]}))
        with pytest.raises(ConfigError, match="reference point"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(tmp_path / "nope.json")

    def test_representative_count_must_be_at_least_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"representative_count": 1}))
        with pytest.raises(ConfigError, match="representative_count"):
            load_config(path)


class TestSelectRepresentatives:
    def test_two_targets_pick_the_extremes(self):
        archive = make_archive(PUBLISHED_SOLUTIONS.values())
        named = named_objectives(archive, select_representatives(archive, 2))
        assert [label for label, _ in named] == ["A", "B"]
        assert named[0][1].T_max == 4.5380
        assert named[1][1].T_max == 2.3768

    def test_six_targets_recover_all_published_solutions(self):
        archive = make_archive(PUBLISHED_SOLUTIONS.values())
        named = named_objectives(archive, select_representatives(archive, 6))
        assert [label for label, _ in named] == list("ABCDEF")
        for label, objectives in named:
            assert objectives == ObjectivePair(*PUBLISHED_SOLUTIONS[label])

    def test_archive_of_exactly_k_returns_everyone(self):
        archive = make_archive([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        named = named_objectives(archive, select_representatives(archive, 3))
        assert [label for label, _ in named] == ["A", "B", "C"]
        assert [objectives.T_max for _, objectives in named] == [3.0, 2.0, 1.0]

    def test_archive_smaller_than_k_returns_entire_archive(self):
        archive = make_archive([(1.0, 1.0), (2.0, 2.0)])
        named = select_representatives(archive, 5)
        assert [label for label, _ in named] == ["A", "B"]

    def test_labels_run_from_hottest_to_coolest(self):
        rng = np.random.default_rng(0)
        pairs = [(float(w), float(t)) for w, t in zip(rng.random(20), rng.random(20))]
        archive = make_archive(pairs)
        named = named_objectives(archive, select_representatives(archive, 4))
        temps = [objectives.T_max for _, objectives in named]
        assert temps == sorted(temps, reverse=True)


class TestCompareReference:
    def test_published_deltas(self):
        archive = make_archive(PUBLISHED_SOLUTIONS.values())
        named = named_objectives(archive, select_representatives(archive, 6))
        rows = compare_reference(named, [MPC])
        by_name = {row["name"]: row for row in rows}
        assert by_name["D"]["dW_MPC"] == pytest.approx(-0.0077, abs=5e-5)
        assert by_name["D"]["dT_MPC"] == pytest.approx(-1.1517, abs=5e-5)
        assert by_name["A"]["dW_MPC"] == pytest.approx(0.0012, abs=5e-5)
        assert by_name["A"]["dT_MPC"] == pytest.approx(0.1495, abs=5e-5)

    def test_reference_compared_to_itself_is_zero(self):
        archive = make_archive([(1.0, 1.0)])
        named = named_objectives(archive, select_representatives(archive, 2))
        rows = compare_reference(named, [MPC])
        mpc_row = next(r for r in rows if r["name"] == "MPC")
        assert mpc_row["dW_MPC"] == 0.0
        assert mpc_row["dT_MPC"] == 0.0

    def test_rows_sorted_by_welfare_descending(self):
        archive = make_archive(PUBLISHED_SOLUTIONS.values())
        named = named_objectives(archive, select_representatives(archive, 6))
        rows = compare_reference(named, [MPC])
        assert [r["name"] for r in rows] == ["A", "B", "MPC", "C", "D", "E", "F"]
        w = [r["W"] for r in rows]
        assert w == sorted(w, reverse=True)


TINY = {
    "model": {"H": 5},
    "engine": {"population_size": 8, "max_iterations": 3, "rng_seed": 11},
    "representative_count": 3,
}


def tiny_config(tmp_path, **extra):
    data = dict(TINY, **extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return load_config(path)


class TestRunExperiment:
    def test_report_is_complete_and_deterministic(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report_a = run_experiment(cfg)
        report_b = run_experiment(tiny_config(tmp_path))
        assert len(report_a.archive) <= cfg.engine.population_size
        rows_a = report_a.archive.objectives
        rows_b = report_b.archive.objectives
        assert np.array_equal(rows_a, rows_b)
        assert report_a.metadata["seed"] == 11
        assert report_a.metadata["iterations"] == 3
        assert report_a.metadata["config_hash"] == report_b.metadata["config_hash"]

    def test_representatives_reevaluate_bit_exactly(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_experiment(cfg)
        archive = report.archive
        for _label, row, _traj in report.representatives:
            again = evaluate_policy(PolicyMatrix.from_genome(archive.genomes[row]), cfg.model)
            assert again == ObjectivePair(*archive.objectives[row])

    def test_representative_rows_are_pareto_monotone(self, tmp_path):
        # non-domination makes W and T comonotone: the table reads from the
        # hottest, highest-welfare row down to the coolest, lowest-welfare one
        report = run_experiment(tiny_config(tmp_path))
        rep_names = {label for label, _, _ in report.representatives}
        rows = [r for r in report.comparison if r["name"] in rep_names]
        w = [r["W"] for r in rows]
        t = [r["T_max"] for r in rows]
        assert all(a > b for a, b in zip(w, w[1:]))
        assert all(a > b for a, b in zip(t, t[1:]))


class TestPersistence:
    def test_file_set_and_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_experiment(cfg)
        out = tmp_path / "run"
        created = persist_report(report, out)
        names = sorted(p.name for p in created)
        assert "front.csv" in names
        assert "comparison.csv" in names
        assert "metadata.json" in names
        assert sum(n.startswith("trajectory_") for n in names) == 3

        loaded = load_front(out / "front.csv")
        assert len(loaded) == len(report.archive)
        # 17 digits round-trip exactly
        assert np.array_equal(loaded.objectives, report.archive.objectives)
        assert np.array_equal(loaded.genomes, report.archive.genomes)

    def test_front_file_is_reproducible_byte_for_byte(self, tmp_path):
        text_a = format_front_csv(run_experiment(tiny_config(tmp_path)).archive)
        text_b = format_front_csv(run_experiment(tiny_config(tmp_path)).archive)
        assert text_a == text_b

    def test_trajectory_file_layout(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_experiment(cfg)
        out = tmp_path / "run"
        persist_report(report, out)
        label = report.representatives[0][0]
        lines = (out / f"trajectory_{label}.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["year", "T_AT", "T_LO", "E", "M_AT", "M_UP", "M_LO",
                          "Y", "Q", "C", "I", "mu", "s"]
        assert len(lines) == 1 + cfg.model.H + 1
        years = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert years == [2015.0 + 5.0 * i for i in range(cfg.model.H + 1)]
        final = lines[-1].split(",")
        assert final[header.index("E")] == ""
        assert final[header.index("mu")] == ""
        assert final[header.index("s")] == ""
        assert final[header.index("Y")] == ""
        assert final[header.index("M_AT")] != ""

    def test_loaded_front_rows_are_mutually_nondominated(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "run"
        persist_report(run_experiment(cfg), out)
        rows = load_front(out / "front.csv").objectives
        for i in range(len(rows)):
            for j in range(len(rows)):
                if i != j:
                    assert not (rows[i][0] >= rows[j][0] and rows[i][1] <= rows[j][1]
                                and tuple(rows[i]) != tuple(rows[j]))

    def test_missing_front_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="front.csv"):
            load_front(tmp_path / "front.csv")

    def test_empty_front_file_is_an_error(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("W,T_max,mu_0,s_0\n")
        with pytest.raises(ConfigError, match="no solutions"):
            load_front(path)

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("W,T_max,mu_0,s_0\n1.0,2.0,0.5,0.5\n\n1.5,abc,0.5,0.5\n")
        with pytest.raises(ConfigError, match=r"front\.csv:4: non-numeric"):
            load_front(path)

    @pytest.mark.parametrize("row", ["nan,2.0,0.5,0.5", "1.0,inf,0.5,0.5", "1.0,2.0,0.5,-inf"])
    def test_non_finite_cell_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "front.csv"
        path.write_text(f"W,T_max,mu_0,s_0\n1.0,2.0,0.5,0.5\n{row}\n")
        with pytest.raises(ConfigError, match=r"front\.csv:3: non-finite"):
            load_front(path)

    def test_config_hash_tracks_content(self, tmp_path):
        cfg_a = tiny_config(tmp_path)
        cfg_b = tiny_config(tmp_path)
        assert config_hash(cfg_a) == config_hash(cfg_b)
        cfg_c = tiny_config(tmp_path, representative_count=4)
        assert config_hash(cfg_a) != config_hash(cfg_c)


class TestRunConfigDefaults:
    def test_default_reference_point_is_the_mpc_datum(self):
        cfg = RunConfig()
        assert cfg.reference_points == (MPC,)
        assert cfg.representative_count == 6
