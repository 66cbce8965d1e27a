"""Rebuild a comparison table from a stored front without re-optimizing.

Writes a front file holding six published trade-off points, then uses the
reporting path to pick representatives and difference them against the
bundled MPC reference point, reproducing the familiar delta table layout.
Every stored row carries the same placeholder genome (all genes 0), so the
trajectory_<label>.csv files that report writes beside the table show that
one policy, not the published solutions.

    python demos/run_reference_comparison.py
"""

import tempfile
from pathlib import Path

from dice_pareto.cli import main

STORED_POINTS = [
    (27.2360, 4.5380),
    (27.2354, 4.1100),
    (27.2332, 3.6862),
    (27.2271, 3.2368),
    (27.2147, 2.8066),
    (27.1600, 2.3768),
]

run_dir = Path(tempfile.mkdtemp(prefix="dice_pareto_demo_"))
horizon = 37
header = ("W,T_max,"
          + ",".join(f"mu_{i}" for i in range(horizon)) + ","
          + ",".join(f"s_{i}" for i in range(horizon)))
genome = ",".join(["0"] * (2 * horizon))
lines = [header] + [f"{w},{t},{genome}" for w, t in STORED_POINTS]
(run_dir / "front.csv").write_text("\n".join(lines) + "\n")

print(f"stored front: {run_dir / 'front.csv'}")
print("running: dice-pareto report --out", run_dir)
print()
raise SystemExit(main(["report", "--out", str(run_dir)]))
