"""Walk through the simulator with constant-control policies.

Holds the mitigation rate fixed at a few levels (saving rate 0.25 throughout)
and shows how peak warming and welfare respond, then dumps the full-mitigation
trajectory so the temperature, emission, and carbon paths can be inspected or
plotted. Run from the repository root:

    python demos/run_constant_policies.py
"""

from dice_pareto import ModelParams, PolicyMatrix, simulate
from dice_pareto.harness import format_trajectory_csv

params = ModelParams()
print(f"horizon: {params.H} steps of {params.dt:g} years, "
      f"{params.year(0):g}..{params.year(params.H):g}")
print()
print(f"{'mu':>5} {'peak T_AT [degC]':>18} {'welfare':>14}")
for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
    traj = simulate(PolicyMatrix.constant(mu, 0.25, params.H), params)
    print(f"{mu:>5.2f} {traj.T_max:>18.4f} {traj.W:>14.1f}")

print()
traj = simulate(PolicyMatrix.constant(1.0, 0.25, params.H), params)
print("full mitigation: economy-related emissions are cancelled, only the")
print("declining land-use emissions remain, and warming still peaks at")
print(f"{traj.T_max:.3f} degC because of carbon already in the atmosphere.")

out = "constant_full_mitigation.csv"
with open(out, "w") as fh:
    fh.write(format_trajectory_csv(traj))
print(f"trajectory written to {out}")
