"""Each output check passes on real output and fires on a corrupted copy."""

import json

import numpy as np
import pytest

import dice_pareto
from checks import (check_comparison, check_front, check_simulate_stdout,
                    check_trajectory, parse_simulate_stdout)
from workloads import CommandResult, Optimize, SimulateSweep, call_cli, _exit_problems

P = dice_pareto.ModelParams()
H = P.H


def score(genome):
    pair = dice_pareto.evaluate_policy(dice_pareto.PolicyMatrix.from_genome(genome), P)
    return pair[0], pair[1]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert call_cli(["optimize", "--seed", "1", "--population", "20", "--iterations", "10",
                     "--out", str(out), "--representatives", "4"]).exit_code == 0
    assert call_cli(["report", "--out", str(out), "--representatives", "4"]).exit_code == 0
    return out


@pytest.fixture(scope="module")
def front_lines(run_dir):
    return (run_dir / "front.csv").read_text().splitlines()


def front_text(lines):
    return "\n".join(lines) + "\n"


def edit_row(lines, index, column, value):
    lines = list(lines)
    cells = lines[index].split(",")
    cells[column] = value
    lines[index] = ",".join(cells)
    return lines


def test_real_front_passes(front_lines):
    assert len(front_lines) >= 4
    assert check_front(front_text(front_lines), H, score) == []


def test_unsorted_front_fires(front_lines):
    swapped = [front_lines[0], front_lines[2], front_lines[1]] + front_lines[3:]
    assert any("not sorted" in p for p in check_front(front_text(swapped), H, score))


def test_dominated_row_fires(front_lines):
    cells = front_lines[1].split(",")
    cells[0] = repr(float(cells[0]) - 1.0)   # same T_max, lower W
    lines = front_lines[:2] + [",".join(cells)] + front_lines[2:]
    assert any("dominated" in p for p in check_front(front_text(lines), H, score))


def test_non_finite_value_fires(front_lines):
    lines = edit_row(front_lines, 2, 5, "nan")
    assert any("non-finite" in p for p in check_front(front_text(lines), H, score))


def test_gene_outside_box_fires(front_lines):
    lines = edit_row(front_lines, 2, 5, "1.5")
    assert any("outside [0, 1]" in p for p in check_front(front_text(lines), H, score))


@pytest.mark.parametrize("row", ["first", "middle", "last"])
def test_rescoring_mismatch_fires(front_lines, row):
    n = len(front_lines) - 1
    index = {"first": 1, "middle": 1 + n // 2, "last": n}[row]
    w = float(front_lines[index].split(",")[0])
    lines = edit_row(front_lines, index, 0, repr(w * (1 + 1e-10)))
    assert any("re-scores" in p for p in check_front(front_text(lines), H, score))


def test_front_above_band_fires(front_lines):
    t = [float(line.split(",")[1]) for line in front_lines[1:]]
    assert min(t) <= 2.9 < max(t)
    hot = [front_lines[0]] + [line for line, t_max in zip(front_lines[1:], t) if t_max > 2.9]
    assert any("above 2.9" in p for p in check_front(front_text(hot), H, score))


def test_wrong_header_and_garbage_fire(front_lines):
    assert check_front(front_text(front_lines[:1] + [front_lines[1][:-40]]), H, score)
    assert check_front("W,T_max\nfoo,bar\n", H, score)


def test_comparison_checks(run_dir, front_lines):
    text = (run_dir / "comparison.csv").read_text()
    reps = min(4, len(front_lines) - 1)
    assert check_comparison(text, reps) == []
    lines = text.splitlines()
    assert any("rows" in p for p in check_comparison("\n".join(lines[:-1]), reps))
    renamed = text.replace("MPC,", "XYZ,")
    assert any("no MPC row" in p for p in check_comparison(renamed, reps))


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    policy = out / "policy.json"
    mu = np.linspace(0.2, 0.9, H)
    policy.write_text(json.dumps({"mu": mu.tolist(), "s": [0.25] * H}))
    result = call_cli(["simulate", "--policy", str(policy), "--out", str(out)])
    assert result.exit_code == 0
    pair = dice_pareto.evaluate_policy(dice_pareto.PolicyMatrix(mu, np.full(H, 0.25)), P)
    return result.stdout, (out / "trajectory.csv").read_text(), pair


def test_simulate_output_passes(simulated):
    stdout, trajectory, (w, t_max) = simulated
    assert check_simulate_stdout(stdout, w, t_max) == []
    assert check_trajectory(trajectory, H, t_max) == []
    assert parse_simulate_stdout(stdout)[0] == pytest.approx(w, abs=1e-6)


def test_simulate_stdout_mismatch_fires(simulated):
    stdout, _, (w, t_max) = simulated
    assert check_simulate_stdout(stdout, w + 1e-5, t_max)
    assert check_simulate_stdout(stdout, w, t_max * (1 + 1e-6))
    assert check_simulate_stdout("nothing printed\n", w, t_max)


def test_trajectory_corruptions_fire(simulated):
    _, trajectory, (_, t_max) = simulated
    lines = trajectory.splitlines()
    assert any("rows" in p for p in check_trajectory("\n".join(lines[:-1]), H, t_max))
    assert any("peak" in p for p in check_trajectory(trajectory, H, t_max + 1e-9))


def test_nonzero_exit_fires():
    assert _exit_problems(CommandResult(["simulate"], 1, "", "error: bad"))
    assert _exit_problems(CommandResult(["simulate"], None, "", "ValueError"))
    assert _exit_problems(CommandResult(["simulate"], 0, "", "")) == []


def test_optimize_body_checks_and_determinism(tmp_path):
    workload = Optimize(tmp_path, seed=1, population=20, iterations=10)
    results = workload.run_body(calibrate=False).results
    assert workload.check(results) == [[], []]
    assert workload.quality is not None and workload.quality > 0
    front = workload.outputs / "front.csv"
    front.write_text(front.read_text().replace("\n", "\n\n", 1))  # same rows, new bytes
    report = call_cli(["report", "--out", str(workload.outputs), "--representatives", "6"])
    problems = workload.check([results[0], report])
    assert any("differs" in p for p in problems[0])


def test_sweep_body_checks(tmp_path):
    workload = SimulateSweep(tmp_path, seed=5, count=4)
    body = workload.run_body(calibrate=True)
    assert workload.check(body.results) == [[], [], [], []]
    assert len(body.unit_times) == 4 and min(body.unit_times) > 0
    workload.policy_files[1].write_text("{}")
    results = workload.run_body(calibrate=False).results
    problems = workload.check(results)
    assert problems[1] and not problems[0]
