"""Trace a small evolutionary run and print the resulting trade-off curve.

Uses a reduced profile (population 40, 150 iterations) so the whole script
finishes in a few seconds; the full-scale settings live in the engine
defaults. The front always spans the same physics: its cool end approaches
the full-mitigation floor near 2.2 degC, its hot end the welfare-optimal
region above 4 degC.

    python demos/run_small_front.py
"""

import numpy as np

from dice_pareto import (
    EngineConfig,
    ModelParams,
    PolicyMatrix,
    evaluate_batch,
    evolve,
    select_representatives,
)

params = ModelParams()
config = EngineConfig(population_size=40, max_iterations=150, rng_seed=7)


def evaluator(genomes):
    """Score one generation at once: (n, 2H) genomes to (n, 2) of (W, T_max)."""
    return evaluate_batch(genomes, params)


print(f"optimizing {2 * params.H} decision variables, "
      f"population {config.population_size}, {config.max_iterations} iterations")
archive = evolve(config, evaluator, params.H, np.random.default_rng(config.rng_seed))
rows = archive.objectives
print(f"front size: {len(archive)}")
print(f"peak-warming range: {rows[:, 1].min():.3f} .. {rows[:, 1].max():.3f} degC")
print()

print("representatives, hottest (best welfare) to coolest:")
print(f"{'name':>5} {'welfare':>14} {'peak T_AT':>11} {'mean mu':>9} {'mean s':>8}")
for label, row in select_representatives(archive, 6):
    policy = PolicyMatrix.from_genome(archive.genomes[row])
    w, t_max = rows[row]
    print(f"{label:>5} {w:>14.1f} {t_max:>11.4f}"
          f" {policy.mu.mean():>9.3f} {policy.s.mean():>8.3f}")

print()
print("ascii sketch of the front (welfare rank up, peak warming right;")
print("welfare is nearly flat along the hot end, so ranks show the shape):")
w = rows[:, 0]
t = rows[:, 1]
n_rows, n_cols = 12, 56
grid = [[" "] * n_cols for _ in range(n_rows)]
cols = np.minimum((n_cols - 1e-9) * (t - t.min()) / (t.max() - t.min()), n_cols - 1)
ranks = np.argsort(np.argsort(w))
levels = ranks * n_rows // len(w)
for col, level in zip(cols.astype(int), levels):
    grid[n_rows - 1 - level][col] = "*"
for line in grid:
    print("  |" + "".join(line))
print("  +" + "-" * n_cols)
print(f"   T = {t.min():.2f}{'':>{n_cols - 16}}T = {t.max():.2f}")
