"""Acceptance gate: one test per criterion, at the stated tolerances, and a
front-quality gate on the hypervolume medians of both CI-sized profiles.

Criterion 2 runs on both the reduced CI profile and the full desk-scale
profile (population 200, 1000 iterations, about 3 seconds on a 2-core VM).
Every test is always on.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from oracle import damage_factor, dominates, hypervolume

from dice_pareto import (
    EngineConfig,
    FrontArchive,
    ModelParams,
    ObjectivePair,
    PolicyMatrix,
    crowding_distance,
    evaluate_batch,
    evaluate_policy,
    evolve,
    non_dominated_sort,
    simulate,
)
from dice_pareto.cli import main
from dice_pareto.model import exogenous_forcing, step_population

P = ModelParams()


def _evaluator(genomes):
    return evaluate_batch(genomes, P)


@pytest.fixture(scope="module")
def ci_front() -> FrontArchive:
    """Reduced-profile optimization shared by criteria 2 and 3."""
    cfg = EngineConfig(population_size=60, max_iterations=200, rng_seed=1)
    return evolve(cfg, _evaluator, P.H, np.random.default_rng(cfg.rng_seed))


def test_criterion_1_full_mitigation_temperature_floor():
    started = time.perf_counter()
    traj = simulate(PolicyMatrix.constant(1.0, 0.25, P.H), P)
    peak = traj.T_max
    elapsed = time.perf_counter() - started
    assert 2.1 <= peak <= 2.7
    assert elapsed < 1.0


def test_criterion_2_front_extremes_ci_profile(ci_front):
    rows = ci_front.objectives
    assert rows[:, 1].min() <= 2.9


def test_criterion_2_front_extremes_full_profile():
    cfg = EngineConfig(rng_seed=1)  # population 200, 1000 iterations, 3% / 0.1
    started = time.perf_counter()
    archive = evolve(cfg, _evaluator, P.H, np.random.default_rng(cfg.rng_seed))
    elapsed = time.perf_counter() - started
    rows = archive.objectives
    assert abs(rows[:, 1].min() - 2.38) <= 0.25
    assert abs(rows[:, 1].max() - 4.54) <= 0.5
    assert elapsed <= 600.0


# Median hypervolume over seeds 1-10 of each CI-sized profile (population,
# iterations), as measured when the gate was set; numpy's AVX-512 and AVX2
# dispatch give the same medians, though single seeds move by up to 57. A
# change that raises front quality raises these with its 10-seed evidence;
# they are never lowered to pass.
PINNED_MEDIANS = {(60, 200): 7949.5475, (200, 50): 7998.7655}
PIN_MARGIN = 10.0  # W * degC, room for another numpy build or dispatch


@pytest.mark.parametrize("profile", sorted(PINNED_MEDIANS), ids=lambda pi: "x".join(map(str, pi)))
def test_front_quality_holds_its_pinned_median(profile):
    population, iterations = profile
    volumes = []
    for seed in range(1, 11):
        cfg = EngineConfig(population_size=population, max_iterations=iterations, rng_seed=seed)
        archive = evolve(cfg, _evaluator, P.H, np.random.default_rng(seed))
        volumes.append(hypervolume(archive.objectives))
    assert np.median(volumes) >= PINNED_MEDIANS[profile] - PIN_MARGIN


def test_criterion_3_welfare_axis_is_ordinal(ci_front):
    rows = ci_front.objectives  # archive order: T_max ascending
    assert np.all(np.diff(rows[:, 1]) > 0)
    assert np.all(np.diff(rows[:, 0]) > 0)  # W strictly ascending with T
    pairs = [ObjectivePair(*row) for row in rows]
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if i != j:
                assert not dominates(a, b)
    full = evaluate_policy(PolicyMatrix.constant(1.0, 0.25, P.H), P)
    none = evaluate_policy(PolicyMatrix.constant(0.0, 0.25, P.H), P)
    assert full.W < none.W


@pytest.mark.parametrize("policy", [
    PolicyMatrix.constant(0.0, 0.25, P.H),
    PolicyMatrix.constant(1.0, 0.9, P.H),
    PolicyMatrix(np.linspace(0, 1, P.H), np.full(P.H, 0.3)),
])
def test_criterion_4_carbon_mass_conservation(policy):
    traj = simulate(policy, P)
    st = traj.states
    total_change = np.diff(st["M_AT"] + st["M_UP"] + st["M_LO"])  # step i to i + 1
    assert np.all(np.abs(total_change - P.xi2 * traj.derived["E"] * P.dt)
                  <= 1.5e-7 * st["M_LO"][:-1])


def test_criterion_5_analytic_fixed_points_and_saturations():
    assert step_population(P.L_a, P) == P.L_a
    for i in range(17, 200):
        assert exogenous_forcing(i, P) == 1.0
    traj = simulate(PolicyMatrix.constant(0.5, 0.25, P.H), P)
    sigmas = traj.states["sigma"].tolist()
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert 1.0 - damage_factor(3.0, P) == pytest.approx(0.0208, abs=1e-4)


def _oracle_fronts(objectives):
    """Brute-force front extraction by repeated pairwise domination scans."""

    def beats(a, b):
        return (a[0] >= b[0] and a[1] <= b[1]) and (a[0] > b[0] or a[1] < b[1])

    remaining = set(range(len(objectives)))
    fronts = []
    while remaining:
        front = sorted(
            q for q in remaining
            if not any(beats(objectives[p], objectives[q])
                       for p in remaining if p != q))
        fronts.append(front)
        remaining -= set(front)
    return fronts


def test_criterion_6_sorting_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(1, 51))
        if trial % 2 == 0:
            w = rng.random(n)
            t = rng.random(n)
        else:
            # coarse grid provokes ties, duplicates, and equal pairs
            w = rng.integers(0, 5, n).astype(float)
            t = rng.integers(0, 5, n).astype(float)
        rank = non_dominated_sort(np.column_stack((w, t)))
        got = [np.flatnonzero(rank == r).tolist() for r in range(1, rank.max() + 1)]
        expected = _oracle_fronts(list(zip(w, t)))
        assert got == expected

    front = np.array([(-0.0, 1.0), (-0.5, 0.5), (-1.0, 0.0)])  # (W, T_max) rows
    d = crowding_distance(front)
    assert d[1] == 2.0
    assert np.isinf(d[0]) and np.isinf(d[2])


def test_criterion_7_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"model": {"H": 8}, '
        '"engine": {"population_size": 12, "max_iterations": 5, "rng_seed": 11}}')
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["optimize", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "front.csv").read_bytes() == (out_b / "front.csv").read_bytes()


PUBLISHED_ROWS = [
    # name, W, T_max, dW vs MPC, dT vs MPC
    ("A", 27.2360, 4.5380, 0.0012, 0.1495),
    ("B", 27.2354, 4.1100, 0.0006, -0.2785),
    ("C", 27.2332, 3.6862, -0.0016, -0.7023),
    ("D", 27.2271, 3.2368, -0.0077, -1.1517),
    ("E", 27.2147, 2.8066, -0.0201, -1.5819),
    ("F", 27.1600, 2.3768, -0.0748, -2.0117),
]


def test_criterion_8_reference_delta_table(tmp_path, capsys):
    run_dir = tmp_path / "stored"
    run_dir.mkdir()
    header = "W,T_max," + ",".join(f"mu_{i}" for i in range(37)) + "," + ",".join(
        f"s_{i}" for i in range(37))
    genome = ",".join(["0"] * 74)
    lines = [header] + [f"{w},{t},{genome}" for _name, w, t, _dw, _dt in PUBLISHED_ROWS]
    (run_dir / "front.csv").write_text("\n".join(lines) + "\n")

    assert main(["report", "--out", str(run_dir)]) == 0
    capsys.readouterr()
    table = {}
    for line in (run_dir / "comparison.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        table[cells[0]] = tuple(float(c) for c in cells[1:])

    assert table["MPC"][2] == pytest.approx(0.0, abs=5e-5)
    assert table["MPC"][3] == pytest.approx(0.0, abs=5e-5)
    for name, w, t, dw, dt in PUBLISHED_ROWS:
        got_w, got_t, got_dw, got_dt = table[name]
        assert got_w == pytest.approx(w, abs=5e-5)
        assert got_t == pytest.approx(t, abs=5e-5)
        assert got_dw == pytest.approx(dw, abs=5e-5)
        assert got_dt == pytest.approx(dt, abs=5e-5)

    names = [line.split(",")[0]
             for line in (run_dir / "comparison.csv").read_text().splitlines()[1:]]
    assert names == ["A", "B", "MPC", "C", "D", "E", "F"]  # welfare-descending
