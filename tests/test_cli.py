"""Command-line behavior: flags, precedence, exit codes, and file outputs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dice_pareto.cli import main

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

    def test_population_override_is_validated_before_any_output(self, tmp_path,
                                                                tiny_cfg, capsys):
        out = tmp_path / "bad"
        assert run_cli("optimize", "--config", tiny_cfg, "--population", "7",
                       "--out", str(out)) == 1
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

    @pytest.mark.parametrize("bad_row", ["1.5,abc,0.5,0.5", "nan,2.0,0.5,0.5"])
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


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("explode") == 1

    def test_idempotent_exit_codes(self, tmp_path, tiny_cfg):
        out = tmp_path / "sim"
        args = ("simulate", "--config", tiny_cfg, "--mu", "0.5", "--s", "0.3",
                "--out", str(out))
        assert run_cli(*args) == run_cli(*args) == 0
