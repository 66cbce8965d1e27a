"""Command-line behavior: flags, precedence, exit codes, and file outputs."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from test_harness import BAD_REFERENCE_POINTS

from dice_pareto import cli
from dice_pareto.cli import _build_parser, _default_config, main
from dice_pareto.harness import RunConfig

TINY = {
    "model": {"H": 5},
    "engine": {"population_size": 8, "max_iterations": 2, "rng_seed": 11},
    "representative_count": 3,
}


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("DICE_PARETO_SEED", raising=False)


def run_cli(*argv):
    return main(list(argv))


def _disk_full(self, text, *args, **kwargs):
    raise OSError(28, "No space left on device")


class TestSimulate:
    def test_full_mitigation_prints_objectives_and_writes_file(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--mu", "1.0", "--s", "0.25", "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        t_line = next(ln for ln in printed.splitlines() if ln.startswith("T_AT_max"))
        t_max = float(t_line.split("=")[1])
        assert 2.1 <= t_max <= 2.7
        assert any(ln.startswith("W =") for ln in printed.splitlines())
        assert (out / "trajectory.csv").exists()

    def test_no_mitigation_exceeds_four_degrees(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--mu", "0", "--s", "0.25", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        t_line = next(ln for ln in printed.splitlines() if ln.startswith("T_AT_max"))
        assert float(t_line.split("=")[1]) > 4.0

    def test_out_of_range_rate_is_usage_error_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--mu", "2", "--s", "0.25", "--out", str(out))
        assert code == 1
        assert "--mu" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_controls_is_usage_error(self, tmp_path, capsys):
        assert run_cli("simulate", "--out", str(tmp_path / "x")) == 1
        assert "simulate needs" in capsys.readouterr().err

    def test_policy_file_round(self, tmp_path, tiny_cfg, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"mu": [1.0] * 5, "s": [0.25] * 5}))
        out = tmp_path / "sim"
        code = run_cli("simulate", "--config", tiny_cfg, "--policy", str(policy),
                       "--out", str(out))
        assert code == 0
        assert (out / "trajectory.csv").exists()

    def test_policy_file_with_wrong_length(self, tmp_path, tiny_cfg, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"mu": [1.0] * 4, "s": [0.25] * 4}))
        assert run_cli("simulate", "--config", tiny_cfg, "--policy", str(policy),
                       "--out", str(tmp_path / "x")) == 1
        assert "H = 5" in capsys.readouterr().err

    def test_policy_file_booleans_are_rejected(self, tmp_path, tiny_cfg, capsys):
        # JSON true is a Python bool, which is an int equal to 1
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"mu": [True] * 5, "s": [0.25] * 5}))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", tiny_cfg, "--policy", str(policy),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "policy entries must be numbers" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("model, step", [({"dt": 1e6}, 0), ({"gamma": 1.5}, 11)])
    def test_overflowing_calibration_is_one_line_runtime_error(self, tmp_path, capsys,
                                                               model, step):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(cfg), "--mu", "0.5", "--s", "0.2",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"runtime error: step {step}: arithmetic overflow")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    # a policy-independent path overflows while the cache of exogenous paths
    # is filled: the message names the path, not the OverflowError's args
    @pytest.mark.parametrize("model, step, path", [
        ({"ell_g": 1e6}, 0, "population"), ({"rho": 1000.0}, 21, "discount factor"),
        ({"g_sigma": 1000.0}, 0, "emission intensity")])
    def test_exogenous_overflow_names_its_path(self, tmp_path, capsys, model, step, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "engine": {"population_size": 8,
                                                              "max_iterations": 2}}))
        out = tmp_path / "out"
        for argv, where in ((["simulate", "--mu", "0.5", "--s", "0.2"], f"step {step}"),
                            (["optimize"], f"step {step}, row 0")):
            assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith("runtime error: ")
            assert err.endswith(f"{where}: arithmetic overflow in the {path}\n")
            assert len(err.splitlines()) == 1
            assert not out.exists()

    @pytest.mark.parametrize("field, value", [("t_f", 0), ("theta2", 0), ("M_AT_1750", 0),
                                              ("M_AT_1750", -588)])
    def test_non_positive_divisor_is_one_line_config_error(self, tmp_path, tiny_cfg, capsys,
                                                           field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "model": {**TINY["model"], field: value}}))
        out = tmp_path / "out"
        for argv in (["simulate", "--mu", "0.5", "--s", "0.2"], ["optimize"]):
            assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err == f"config error: {field} must be positive, got {float(value)}\n"
            assert not out.exists()

    @pytest.mark.parametrize("value", ["1e400", "NaN"])
    def test_non_finite_representative_count_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"representative_count": {value}}}')
        out = tmp_path / "sim"
        assert run_cli("simulate", "--config", str(cfg), "--mu", "0.5", "--s", "0.2",
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: representative_count must be a finite number")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_failed_write_keeps_the_previous_trajectory(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--mu", "0.5", "--s", "0.2", "--out", str(out)) == 0
        previous = (out / "trajectory.csv").read_bytes()
        monkeypatch.setattr(Path, "write_text", _disk_full)
        assert run_cli("simulate", "--mu", "0.9", "--s", "0.3", "--out", str(out)) == 2
        assert "trajectory.csv" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["trajectory.csv"]
        assert (out / "trajectory.csv").read_bytes() == previous

    def test_policy_and_constants_are_mutually_exclusive(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"mu": [1.0], "s": [0.25]}))
        assert run_cli("simulate", "--policy", str(policy), "--mu", "0.5",
                       "--out", str(tmp_path / "x")) == 1

    def test_unparseable_flag_value_is_usage_error(self, tmp_path, capsys):
        assert run_cli("simulate", "--mu", "abc", "--s", "0.25",
                       "--out", str(tmp_path / "x")) == 1


class TestOptimize:
    def test_two_runs_same_seed_are_byte_identical(self, tmp_path, tiny_cfg, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out_a)) == 0
        first = capsys.readouterr().out
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out_b)) == 0
        second = capsys.readouterr().out
        # every file except the timing-bearing metadata is reproduced exactly
        for path_a in sorted(out_a.glob("*.csv")):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name
        summary = lambda text: [ln for ln in text.splitlines()
                                if not ln.startswith("report written")]
        assert summary(first) == summary(second)
        assert "front size" in first

    def test_zero_iterations_still_produces_valid_files(self, tmp_path, tiny_cfg):
        out = tmp_path / "zero"
        assert run_cli("optimize", "--config", tiny_cfg, "--iterations", "0",
                       "--out", str(out)) == 0
        lines = (out / "front.csv").read_text().splitlines()
        assert len(lines) >= 2
        assert lines[0].startswith("W,T_max,mu_0")

    def test_zero_horizon_is_one_line_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "model": {"H": 0}}))
        out = tmp_path / "out"
        assert run_cli("optimize", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == "config error: H must be a positive integer, got 0\n"
        assert not out.exists()

    def test_a_run_with_fewer_representatives_removes_the_stale_trajectories(
            self, tmp_path, tiny_cfg):
        out = tmp_path / "run"
        trajectories = lambda: sorted(path.name for path in out.glob("trajectory_*.csv"))
        assert run_cli("optimize", "--config", tiny_cfg, "--population", "30",
                       "--representatives", "6", "--out", str(out)) == 0
        assert trajectories() == [f"trajectory_{label}.csv" for label in "ABCDEF"]
        assert run_cli("optimize", "--config", tiny_cfg, "--population", "30",
                       "--representatives", "2", "--seed", "2", "--out", str(out)) == 0
        assert trajectories() == ["trajectory_A.csv", "trajectory_B.csv"]
        names = [line.split(",")[0] for line in
                 (out / "comparison.csv").read_text().splitlines()[1:]]
        assert sorted(names) == ["A", "B", "MPC"]

    def test_a_failed_run_keeps_every_trajectory_of_the_previous_one(
            self, tmp_path, tiny_cfg, monkeypatch):
        out = tmp_path / "run"
        assert run_cli("optimize", "--config", tiny_cfg, "--population", "30",
                       "--representatives", "6", "--out", str(out)) == 0
        previous = {path.name: path.read_bytes() for path in out.iterdir()}
        monkeypatch.setattr(Path, "write_text", _disk_full)
        assert run_cli("optimize", "--config", tiny_cfg, "--population", "30",
                       "--representatives", "2", "--seed", "2", "--out", str(out)) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == previous

    def test_seed_precedence_flag_over_env_over_config(self, tmp_path, tiny_cfg,
                                                       monkeypatch):
        def seed_of(out):
            return json.loads((out / "metadata.json").read_text())["seed"]

        out = tmp_path / "cfgseed"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 0
        assert seed_of(out) == 11

        monkeypatch.setenv("DICE_PARETO_SEED", "22")
        out = tmp_path / "envseed"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 0
        assert seed_of(out) == 22

        out = tmp_path / "flagseed"
        assert run_cli("optimize", "--config", tiny_cfg, "--seed", "33",
                       "--out", str(out)) == 0
        assert seed_of(out) == 33

    def test_bad_env_seed_is_usage_error(self, tmp_path, tiny_cfg, monkeypatch, capsys):
        monkeypatch.setenv("DICE_PARETO_SEED", "not-a-number")
        assert run_cli("optimize", "--config", tiny_cfg,
                       "--out", str(tmp_path / "x")) == 1
        assert "DICE_PARETO_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_negative_seed_is_one_line_config_error(self, tmp_path, tiny_cfg, monkeypatch,
                                                    capsys, source):
        out = tmp_path / "x"
        argv = ["optimize", "--config", tiny_cfg, "--out", str(out)]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("DICE_PARETO_SEED", "-5")
        else:
            cfg = tmp_path / "negative.json"
            cfg.write_text(json.dumps({**TINY, "engine": {**TINY["engine"], "rng_seed": -1}}))
            argv[2] = str(cfg)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: rng_seed must be a non-negative integer, got -")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_engine_failure_is_one_short_line(self, tmp_path, capsys):
        # the line names the generation and rows, not the failing genome's
        # 2H genes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"ell_g": 1e6}}))
        out = tmp_path / "out"
        assert run_cli("optimize", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == ("runtime error: policy evaluation failed in generation 0, batch row 0: "
                       "step 0, row 0: arithmetic overflow in the population\n")
        assert len(err) <= 160
        assert not out.exists()

    def test_population_override_is_validated_before_any_output(self, tmp_path,
                                                                tiny_cfg, capsys):
        out = tmp_path / "bad"
        assert run_cli("optimize", "--config", tiny_cfg, "--population", "7",
                       "--out", str(out)) == 1
        assert not out.exists()

    def test_a_population_numpy_cannot_shape_is_one_config_error_line(self, tmp_path,
                                                                     tiny_cfg, capsys):
        # rejected before the (N, 2) table of initial draws is shaped
        out = tmp_path / "huge"
        assert run_cli("optimize", "--config", tiny_cfg, "--population", str(10**20),
                       "--iterations", "1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == ("config error: population_size must be an even integer from 4 to "
                       f"{np.iinfo(np.intp).max // 16}, got {10**20}\n")
        assert not out.exists()

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 8.00 EiB"), "out of memory: Unable to allocate 8.00 EiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_running_out_of_memory_is_one_runtime_error_line(self, tmp_path, tiny_cfg,
                                                             monkeypatch, capsys, exc, line):
        def exhausted(cfg):
            raise exc

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        out = tmp_path / "out"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"runtime error: {line}\n"
        assert not out.exists()

    def test_unwritable_output_dir_is_runtime_error(self, tmp_path, tiny_cfg, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(blocker)) == 2
        assert "occupied" in capsys.readouterr().err


class TestReport:
    def test_report_from_stored_run(self, tmp_path, tiny_cfg, capsys):
        out = tmp_path / "run"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("report", "--config", tiny_cfg, "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("name,W,T_max,dW_MPC,dT_MPC")
        assert (out / "comparison.csv").exists()

    def test_representatives_flag_limits_rows(self, tmp_path, tiny_cfg, capsys):
        out = tmp_path / "run"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("report", "--config", tiny_cfg, "--out", str(out),
                       "--representatives", "2") == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 1  # header, two representatives, MPC row

    def test_failed_write_keeps_the_previous_comparison(self, tmp_path, tiny_cfg, capsys,
                                                        monkeypatch):
        out = tmp_path / "run"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 0
        previous = {path.name: path.read_bytes() for path in out.iterdir()}
        monkeypatch.setattr(Path, "write_text", _disk_full)
        assert run_cli("report", "--config", tiny_cfg, "--out", str(out),
                       "--representatives", "2") == 2
        assert "comparison.csv" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == previous

    @pytest.mark.parametrize("run_count, report_count", [(6, 2), (2, 4)])
    def test_report_writes_the_trajectories_of_its_own_representatives(
            self, tmp_path, tiny_cfg, capsys, run_count, report_count):
        out = tmp_path / "run"
        assert run_cli("optimize", "--config", tiny_cfg, "--population", "30",
                       "--representatives", str(run_count), "--out", str(out)) == 0
        assert run_cli("report", "--config", tiny_cfg, "--out", str(out),
                       "--representatives", str(report_count)) == 0
        labels = "ABCDEF"[:report_count]
        assert sorted(path.name for path in out.glob("trajectory_*.csv")) == [
            f"trajectory_{label}.csv" for label in labels]
        rows = {line.split(",")[0]: float(line.split(",")[2])
                for line in (out / "comparison.csv").read_text().splitlines()[1:]}
        assert sorted(rows) == [*labels, "MPC"]
        for label in labels:
            lines = (out / f"trajectory_{label}.csv").read_text().splitlines()
            column = lines[0].split(",").index("T_AT")
            peak = max(float(line.split(",")[column]) for line in lines[1:])
            # simulate and the batch scorer may differ by a few ulps (numpy's SIMD power)
            assert peak == pytest.approx(rows[label], rel=1e-12, abs=0), label

    def test_report_with_the_run_count_leaves_every_file_unchanged(self, tmp_path, tiny_cfg,
                                                                    capsys):
        out = tmp_path / "run"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 0
        previous = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_cli("report", "--config", tiny_cfg, "--out", str(out)) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == previous

    def test_a_representative_the_model_cannot_run_writes_nothing(self, tmp_path, tiny_cfg,
                                                                   capsys):
        out = tmp_path / "run"
        assert run_cli("optimize", "--config", tiny_cfg, "--out", str(out)) == 0
        previous = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        cfg = tmp_path / "bad.json"  # g_A > 1: the TFP denominator is negative at step 0
        cfg.write_text(json.dumps({**TINY, "model": {**TINY["model"], "g_A": 1.5}}))
        assert run_cli("report", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: step 0") and len(err.splitlines()) == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == previous

    def test_missing_front_file_names_path_and_fails(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        code = run_cli("report", "--out", str(missing))
        assert code == 1
        assert "front.csv" in capsys.readouterr().err

    def test_empty_front_file_is_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "front.csv").write_text("W,T_max,mu_0,s_0\n")
        assert run_cli("report", "--out", str(out)) != 0

    @pytest.mark.parametrize("bad_row", ["1.5,abc,0.5,0.5", "nan,2.0,0.5,0.5",
                                         "1.5,2.5,0.5,1.5", "1.0,2.0,0.25,0.75"])
    def test_bad_front_row_is_usage_error_naming_the_line(self, tmp_path, capsys, bad_row):
        out = tmp_path / "run"
        out.mkdir()
        (out / "front.csv").write_text(f"W,T_max,mu_0,s_0\n1.0,2.0,0.5,0.5\n{bad_row}\n")
        assert run_cli("report", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "front.csv:3:" in err
        assert len(err.splitlines()) == 1
        assert not (out / "comparison.csv").exists()

    def test_genome_length_must_match_configured_horizon(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "front.csv").write_text("W,T_max,mu_0,s_0\n1.0,2.0,0.5,0.5\n")
        assert run_cli("report", "--out", str(out)) == 1  # default H = 37
        err = capsys.readouterr().err
        assert "front.csv" in err and " 2 genes" in err and "2H = 74" in err
        assert len(err.splitlines()) == 1
        assert not (out / "comparison.csv").exists()

    def test_non_numeric_reference_point_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"reference_points": [{"name": "X", "W": "abc", "T_max": 2.0}]}))
        assert run_cli("simulate", "--config", str(cfg), "--mu", "0.5", "--s", "0.25",
                       "--out", str(tmp_path / "sim")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'X' W" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("points, message", BAD_REFERENCE_POINTS)
    def test_bad_reference_points_are_one_line_config_errors(self, tmp_path, capsys, points,
                                                              message):
        out = tmp_path / "run"
        out.mkdir()
        (out / "front.csv").write_text("W,T_max,mu_0,s_0\n1.0,2.0,0.5,0.5\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"H": 1}, "reference_points": points}))
        assert run_cli("report", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert len(err.splitlines()) == 1
        assert not (out / "comparison.csv").exists()


def _spoil(path, case):
    """Make ``path`` an input file that cannot be used, in the way ``case`` names."""
    if case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(b'{"mu": [0.5]}\xff\n')
    elif case == "invalid JSON":
        path.write_text('{\n  "mu": ,\n}\n')  # the decoder stops on line 2
    elif case == "deeply nested":
        path.write_text("[" * 100_000)
    elif case == "overlong integer":
        path.write_text("1" * 5000)


READ_FAILURES = ["missing", "directory", "undecodable"]
JSON_FAILURES = READ_FAILURES + ["invalid JSON", "deeply nested", "overlong integer"]


class TestInputFiles:
    """Every input file that cannot be read, decoded or parsed is one
    ``config error:`` line naming it, with exit 1 and no output written."""

    @staticmethod
    def _assert_one_line_naming(capsys, path, case):
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert len(err.splitlines()) == 1
        if case == "invalid JSON":
            assert f"{path}:2: invalid JSON" in err

    @pytest.mark.parametrize("case", JSON_FAILURES)
    def test_config_file(self, tmp_path, capsys, case):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        _spoil(cfg, case)
        assert run_cli("optimize", "--config", str(cfg), "--out", str(out)) == 1
        self._assert_one_line_naming(capsys, cfg, case)
        assert not out.exists()

    @pytest.mark.parametrize("case", JSON_FAILURES)
    def test_policy_file(self, tmp_path, tiny_cfg, capsys, case):
        policy, out = tmp_path / "policy.json", tmp_path / "sim"
        _spoil(policy, case)
        assert run_cli("simulate", "--config", tiny_cfg, "--policy", str(policy),
                       "--out", str(out)) == 1
        self._assert_one_line_naming(capsys, policy, case)
        assert not out.exists()

    @pytest.mark.parametrize("case", READ_FAILURES)
    def test_front_file(self, tmp_path, capsys, case):
        run = tmp_path / "run"
        run.mkdir()
        _spoil(run / "front.csv", case)
        assert run_cli("report", "--out", str(run)) == 1
        self._assert_one_line_naming(capsys, run / "front.csv", case)
        assert not (run / "comparison.csv").exists()

    def test_policy_file_content_is_a_config_error(self, tmp_path, tiny_cfg, capsys):
        policy, out = tmp_path / "policy.json", tmp_path / "sim"
        policy.write_text(json.dumps({"mu": [0.5] * 5}))
        assert run_cli("simulate", "--config", tiny_cfg, "--policy", str(policy),
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == ("config error: policy file must be an object "
                                           "with exactly 'mu' and 's' arrays\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "report"])
    def test_one_representative_is_a_config_error(self, tmp_path, tiny_cfg, capsys, command):
        out = tmp_path / "run"
        out.mkdir()
        (out / "front.csv").write_text("W,T_max,mu_0,s_0\n1.0,2.0,0.5,0.5\n")
        assert run_cli(command, "--config", tiny_cfg, "--out", str(out),
                       "--representatives", "1") == 1
        assert capsys.readouterr().err == (
            "config error: representative_count must be an integer >= 2, got 1\n")
        assert [path.name for path in out.iterdir()] == ["front.csv"]

    def test_report_rejects_a_dominated_row(self, tmp_path, capsys):
        cfg, run = tmp_path / "cfg.json", tmp_path / "run"
        cfg.write_text(json.dumps({"model": {"H": 1}}))
        run.mkdir()
        (run / "front.csv").write_text("W,T_max,mu_0,s_0\n1,2,0.5,0.5\n1,3,0.5,0.5\n")
        assert run_cli("report", "--config", str(cfg), "--out", str(run)) == 1
        assert capsys.readouterr().err == (
            f"config error: {run / 'front.csv'}:3: (W, T_max) is dominated by line 2\n")
        assert [path.name for path in run.iterdir()] == ["front.csv"]


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("explode") == 1

    def test_idempotent_exit_codes(self, tmp_path, tiny_cfg):
        out = tmp_path / "sim"
        args = ("simulate", "--config", tiny_cfg, "--mu", "0.5", "--s", "0.3",
                "--out", str(out))
        assert run_cli(*args) == run_cli(*args) == 0

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, tiny_cfg):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"mu": [1.0] * 5, "s": [0.25] * 5}))
        assert run_cli("simulate", "--config", tiny_cfg, "--mu", "0.5", "--s", "0.25",
                       "--out", str(tmp_path / "constant")) == 0
        # the first call's --mu, if kept, would clash with --policy
        assert run_cli("simulate", "--config", tiny_cfg, "--policy", str(policy),
                       "--out", str(tmp_path / "file")) == 0
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    @pytest.mark.parametrize("command", [
        ("simulate", "--mu", "0.5", "--s", "0.25"),
        ("optimize", "--population", "4", "--iterations", "0"),
        ("report",)], ids=lambda command: command[0])
    def test_an_empty_path_flag_is_one_usage_error_line(self, tmp_path, monkeypatch, capsys,
                                                        command, flag):
        # nothing is written, not even into the config's out/
        monkeypatch.chdir(tmp_path)
        assert run_cli(*command, flag, "") == 1
        assert capsys.readouterr().err == f"error: {flag} must not be empty\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("controls", [(), ("--mu", "0.5", "--s", "0.25")],
                             ids=["alone", "with-constants"])
    def test_an_empty_policy_flag_is_one_usage_error_line(self, tmp_path, monkeypatch, capsys,
                                                          controls):
        monkeypatch.chdir(tmp_path)
        assert run_cli("simulate", *controls, "--policy", "") == 1
        assert capsys.readouterr().err == "error: --policy must not be empty\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ("simulate", "--mu", "0.5", "--s", "0.25"),
        ("optimize", "--population", "4", "--iterations", "0"),
        ("report",)], ids=lambda command: command[0])
    def test_an_empty_output_dir_is_one_config_error_line(self, tmp_path, monkeypatch, capsys,
                                                          command):
        # nothing is written into the working directory
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"output_dir": ""}))
        assert run_cli(*command, "--config", "cfg.json") == 1
        assert capsys.readouterr().err == (
            "config error: output_dir must be a non-empty string, got ''\n")
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_flags_do_not_reach_the_next_call(self, tmp_path, monkeypatch, capsys):
        # calls without --config share one default RunConfig
        monkeypatch.chdir(tmp_path)
        assert run_cli("optimize", "--population", "8", "--iterations", "2", "--seed", "3",
                       "--representatives", "2", "--out", "run") == 0
        assert sorted(path.name for path in Path("run").glob("trajectory_*")) == [
            "trajectory_A.csv", "trajectory_B.csv"]
        assert run_cli("report", "--out", "run") == 0
        rows = Path("run/comparison.csv").read_text().splitlines()
        labels = [row.split(",")[0] for row in rows]
        assert labels == ["name", "A", "B", "C", "D", "E", "F", "MPC"]  # 6 of 8 front rows
        assert run_cli("simulate", "--mu", "0.5", "--s", "0.25") == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "run"]
        assert _default_config() is _default_config()
        assert _default_config() == RunConfig()

    def test_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        assert run_cli("simulate", "--mu", "abc") == 1
        assert run_cli("simulate", "--mu", "0.5", "--s", "0.25",
                       "--out", str(tmp_path / "sim")) == 0
