"""Config loading, representative selection, comparison, and persistence."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    simulate,
)
from dice_pareto.harness import (
    TRAJECTORY_COLUMNS,
    _format_rows,
    config_from_dict,
    config_hash,
    format_front_csv,
    format_trajectory_csv,
)

MPC = ReferencePoint("MPC", ObjectivePair(27.2348, 4.3885))

# reference points that would break comparison.csv: no point at all, two
# points sharing their dW_/dT_ columns, and names that are not one CSV cell
BAD_REFERENCE_POINTS = [
    pytest.param([], "at least one point", id="empty"),
    pytest.param([{"name": "X", "W": 1.0, "T_max": 2.0}, {"name": "X", "W": 3.0, "T_max": 4.0}],
                 "'X' is used twice", id="duplicate"),
    *(pytest.param([{"name": name, "W": 1.0, "T_max": 2.0}], "name must be non-empty",
                   id=repr(name)) for name in ("", "a,b", 'a"b', "a\rb", "a\nb")),
]

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


# a value that breaks each settings rule, in the order the rules are checked,
# and two configs that break two rules each: the first rule checked is named
RULE_MESSAGES = [
    ({"model": {"dt": 0.0}}, "dt must be positive, got 0.0"),
    ({"model": {"H": 0}}, "H must be a positive integer, got 0"),
    ({"model": {"H": 2.5}}, "model.H must be an integer, got 2.5"),
    ({"model": {"delta_K": 1.5}}, "delta_K must lie in [0, 1], got 1.5"),
    ({"model": {"delta_pb": -0.1}}, "delta_pb must lie in [0, 1], got -0.1"),
    ({"model": {"delta_sigma": 2}}, "delta_sigma must lie in [0, 1], got 2.0"),
    ({"model": {"delta_EL": -0.25}}, "delta_EL must lie in [0, 1], got -0.25"),
    ({"model": {"rho": -1}}, "rho must be greater than -1, got -1.0"),
    ({"model": {"alpha": 1}}, "alpha must be >= 0 and != 1, got 1.0"),
    ({"model": {"L_a": 0}}, "L_a must be positive, got 0.0"),
    ({"model": {"t_f": -17.0}}, "t_f must be positive, got -17.0"),
    ({"model": {"theta2": 0.0}}, "theta2 must be positive, got 0.0"),
    ({"model": {"M_AT_1750": -588}}, "M_AT_1750 must be positive, got -588.0"),
    ({"model": {"L0": 0}}, "L0 must be positive, got 0.0"),
    ({"model": {"A0": -5.115}}, "A0 must be positive, got -5.115"),
    ({"model": {"K0": 0.0}}, "K0 must be positive, got 0.0"),
    ({"model": {"sigma0": -0.5}}, "sigma0 must be positive, got -0.5"),
    ({"model": {"M_AT0": 0}}, "M_AT0 must be positive, got 0.0"),
    ({"model": {"M_UP0": -460.0}}, "M_UP0 must be positive, got -460.0"),
    ({"model": {"M_LO0": 0.0}}, "M_LO0 must be positive, got 0.0"),
    ({"model": {"psi1": -0.1}}, "psi1 must be non-negative, got -0.1"),
    ({"model": {"psi2": -1e-05}}, "psi2 must be non-negative, got -1e-05"),
    ({"engine": {"population_size": 7}},
     "population_size must be an even integer from 4 to 576460752303423487, got 7"),
    ({"engine": {"max_iterations": -1}}, "max_iterations must be a non-negative integer, got -1"),
    ({"engine": {"mutation_rate": 1.5}}, "mutation_rate must lie in [0, 1], got 1.5"),
    ({"engine": {"mutation_step": 0}}, "mutation_step must be positive, got 0.0"),
    ({"engine": {"crossover_fraction": -0.5}}, "crossover_fraction must lie in [0, 1], got -0.5"),
    ({"engine": {"mutant_fraction": 2}}, "mutant_fraction must lie in [0, 1], got 2.0"),
    ({"engine": {"rng_seed": -1}}, "rng_seed must be a non-negative integer, got -1"),
    ({"representative_count": 1}, "representative_count must be an integer >= 2, got 1"),
    ({"representative_count": 2.5}, "representative_count must be an integer, got 2.5"),
    ({"model": {"rho": -2, "psi2": -1}}, "rho must be greater than -1, got -2.0"),
    ({"engine": {"mutation_rate": 2, "rng_seed": -1}}, "mutation_rate must lie in [0, 1], got 2.0"),
]


def _rule_id(config):
    """``key=value`` for each broken setting, joined by commas."""
    settings = {key: value for name, value in config.items()
                for key, value in (value.items() if isinstance(value, dict) else [(name, value)])}
    return ",".join(f"{key}={value}" for key, value in settings.items())


class TestLoadConfig:
    @pytest.mark.parametrize("config, message", RULE_MESSAGES,
                             ids=[_rule_id(config) for config, _ in RULE_MESSAGES])
    def test_each_broken_rule_gives_its_message(self, tmp_path, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("points, message", BAD_REFERENCE_POINTS)
    def test_reference_points_must_make_one_csv_cell_each(self, points, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"reference_points": points})

    def test_malformed_reference_point(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"reference_points": [{"name": "X", "W": 1.0}]}))
        with pytest.raises(ConfigError, match="reference point"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("W", "abc"), ("W", True), ("T_max", None), ("T_max", float("nan")),
    ])
    def test_reference_point_values_must_be_numbers(self, tmp_path, key, value):
        point = {"name": "X", "W": 1.0, "T_max": 2.0, key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"reference_points": [point]}))
        with pytest.raises(ConfigError, match=f"reference point 'X' {key} must be"):
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

    @pytest.mark.parametrize("value", ["", None])
    def test_an_empty_output_dir_writes_nothing(self, tmp_path, monkeypatch, value):
        report = run_experiment(tiny_config(tmp_path))
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        with pytest.raises(ConfigError) as exc:
            persist_report(report, value)
        # the check RunConfig makes of its output_dir
        assert str(exc.value) == f"output_dir must be a non-empty string, got {value!r}"
        assert list((tmp_path / "cwd").iterdir()) == []

    def test_metadata_names_numpys_simd_dispatch(self, tmp_path):
        # the bytes of a run depend on it: numpy's vectorised power rounds by it
        persist_report(run_experiment(tiny_config(tmp_path)), tmp_path / "run")
        versions = json.loads((tmp_path / "run" / "metadata.json").read_text())["versions"]
        assert versions["numpy_simd"] == np.show_config(mode="dicts")["SIMD Extensions"]

    def test_failed_write_keeps_the_previous_run(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        persist_report(run_experiment(tiny_config(tmp_path)), out)
        previous = {path.name: path.read_bytes() for path in out.iterdir()}
        report = run_experiment(tiny_config(tmp_path, engine=dict(TINY["engine"], rng_seed=12)))
        assert format_front_csv(report.archive).encode() != previous["front.csv"]

        write_text = Path.write_text

        def disk_full_on_metadata(self, text, *args, **kwargs):
            if self.name.startswith("metadata"):
                raise OSError(28, "No space left on device")
            return write_text(self, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full_on_metadata)
        with pytest.raises(RuntimeError, match="metadata"):
            persist_report(report, out)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == previous

    def test_front_file_is_reproducible_byte_for_byte(self, tmp_path):
        text_a = format_front_csv(run_experiment(tiny_config(tmp_path)).archive)
        text_b = format_front_csv(run_experiment(tiny_config(tmp_path)).archive)
        assert text_a == text_b

    def test_trajectory_file_layout(self, tmp_path):
        per_step = {"E", "Y", "Q", "C", "I", "mu", "s"}  # blank on the final row
        for H in (1, 37):  # H = 1: one step row and the final states
            cfg = tiny_config(tmp_path, model={"H": H})
            report = run_experiment(cfg)
            out = tmp_path / f"run_{H}"
            persist_report(report, out)
            label, _, traj = report.representatives[0]
            lines = (out / f"trajectory_{label}.csv").read_text().splitlines()
            header = lines[0].split(",")
            assert header == ["year", "T_AT", "T_LO", "E", "M_AT", "M_UP", "M_LO",
                              "Y", "Q", "C", "I", "mu", "s"]
            assert len(lines) == 1 + H + 1
            years = [float(ln.split(",")[0]) for ln in lines[1:]]
            assert years == [2015.0 + 5.0 * i for i in range(H + 1)]
            columns = {**traj.states, **traj.derived,
                       "mu": traj.policy.mu, "s": traj.policy.s}
            for i, line in enumerate(lines[1:]):
                cells = dict(zip(header[1:], line.split(",")[1:], strict=True))
                blank = {name for name, cell in cells.items() if cell == ""}
                assert blank == (per_step if i == H else set()), (H, i)
                for name, cell in cells.items():
                    if cell:
                        assert float(cell) == columns[name][i], (H, i, name)

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

    @pytest.mark.parametrize("row, message", [
        ("1.5,2.5,0.5,1.0000000000000002", "gene outside [0, 1] in row"),
        ("1.5,2.5,-1e-300,0.5", "gene outside [0, 1] in row"),
        ("1.0,2.0,0.25,0.75", "(W, T_max) repeats line 2"),
        ("1.0,2.0,0.5,0.5", "(W, T_max) repeats line 2"),
        ("-0.0,2.0,0.5,0.5", "(W, T_max) repeats line 3"),
    ])
    def test_rows_optimize_never_writes_name_the_line(self, tmp_path, row, message):
        path = tmp_path / "front.csv"
        path.write_text(f"W,T_max,mu_0,s_0\n1.0,2.0,0.5,0.5\n0.0,2.0,-0.0,1.0\n\n{row}\n")
        with pytest.raises(ConfigError) as exc:
            load_front(path)
        assert str(exc.value) == f"{path}:5: {message}"

    def test_config_hash_tracks_content(self, tmp_path):
        cfg_a = tiny_config(tmp_path)
        cfg_b = tiny_config(tmp_path)
        assert config_hash(cfg_a) == config_hash(cfg_b)
        cfg_c = tiny_config(tmp_path, representative_count=4)
        assert config_hash(cfg_a) != config_hash(cfg_c)
        # where a run is written is not part of its configuration
        cfg_d = tiny_config(tmp_path, output_dir=str(tmp_path / "elsewhere"))
        assert cfg_d.output_dir != cfg_a.output_dir
        assert config_hash(cfg_a) == config_hash(cfg_d)


# values whose text could differ between %-formatting and format(): special
# values, signed zero, the least subnormal, near-overflow and whole numbers
FORMAT_EXTREMES = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e308,
                   -1.7976931348623157e308, 2015.0, 2200.0, 1.0, 1e16, 1e17, 0.1]


def per_cell_lines(table):
    return [",".join(f"{v:.17g}" for v in row) for row in table]


class TestRowFormatter:
    """The one-template row formatter against per-cell ``format`` joins."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.tuples(st.integers(0, 4), st.integers(1, 9)),
                  elements=st.one_of(st.sampled_from(FORMAT_EXTREMES), st.floats())))
    def test_bytes_equal_per_cell_format(self, table):
        assert _format_rows(table) == per_cell_lines(table)

    def test_extremes(self):
        table = np.array(FORMAT_EXTREMES).reshape(3, 5)
        assert _format_rows(table) == per_cell_lines(table)
        assert _format_rows(table)[0] == "inf,-inf,nan,-0,0"

    def test_trajectory_file_equals_per_cell_format(self):
        traj = simulate(PolicyMatrix.constant(0.3, 0.25, ModelParams().H), ModelParams())
        p = traj.params
        columns = {**traj.states, **traj.derived, "mu": traj.policy.mu, "s": traj.policy.s,
                   "year": np.array([p.year(i) for i in range(p.H + 1)])}
        lines = [",".join(TRAJECTORY_COLUMNS)]
        for i in range(p.H + 1):
            lines.append(",".join(f"{columns[name][i]:.17g}" if i < len(columns[name]) else ""
                                  for name in TRAJECTORY_COLUMNS))
        assert format_trajectory_csv(traj) == "\n".join(lines) + "\n"


class TestRunConfigDefaults:
    def test_default_reference_point_is_the_mpc_datum(self):
        cfg = RunConfig()
        assert cfg.reference_points == (MPC,)
        assert cfg.representative_count == 6

    @pytest.mark.parametrize("value", ["", None, 5])
    def test_output_dir_must_be_a_non_empty_string(self, value):
        with pytest.raises(ConfigError) as exc:
            RunConfig(output_dir=value)
        assert str(exc.value) == f"output_dir must be a non-empty string, got {value!r}"

    @pytest.mark.parametrize("config_class, name", [(RunConfig, "representative_count"),
                                                    (EngineConfig, "population_size")])
    def test_settings_are_checked_once_and_frozen(self, config_class, name):
        # a changed setting is a new instance, checked by __post_init__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config_class(), name, 1)
        with pytest.raises(ConfigError, match=name):
            dataclasses.replace(config_class(), **{name: 1})
