"""Host-speed reference: fixed units of work that use no program code.

The benchmark's host is shared, and its speed drifts by up to 2x over
minutes as other tenants' load changes, for the benchmark's code and the
program's alike. Untraced runs time reference units alongside the program
and scale ``setup_s`` and ``run_s`` by a unit's nominal time over its
measured time, so that both read as seconds at one reference host speed.
The units never call the program, so a faster program moves the scaled
figures fully.

Three units cover the kinds of work the benchmark times:

* :func:`unit` (about 20 ms) mixes what a search spends its time on: scalar
  float recurrences in the interpreter, small numpy arrays, float
  formatting and JSON. Enough of them run after each optimize body.
* :func:`file_unit` (about 0.6 ms) mirrors one ``simulate`` command: a JSON
  document parsed, a 50-step recurrence formatted as CSV rows, and a fresh
  directory and file written. One runs after every command of a sweep body,
  so it sees the same host state as the command before it, file system
  included.
* :data:`IMPORT_UNIT_CODE` (about 75 ms) runs in a fresh interpreter after
  each set-up sample and imports numpy and the standard modules the package
  loads; ``setup_s`` is the median ratio of a sample to its import unit.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

# Round figures near each unit's time on the host the baseline was measured
# on, when quiet (the file unit timed on its own, outside a sweep); they fix
# the reference speed the scaled figures refer to. Changing one rescales
# every figure scaled by its unit, so they are constants of the benchmark.
NOMINAL_UNIT_S = 0.020
NOMINAL_FILE_UNIT_S = 0.0006
NOMINAL_IMPORT_UNIT_S = 0.075
# Share of each body's time spent on reference units right after it.
SHARE = 0.15

IMPORT_UNIT_CODE = """\
import time
started = time.perf_counter()
import argparse, concurrent.futures, dataclasses, hashlib, json, platform, numpy
print(repr(time.perf_counter() - started))
"""

_FILE_UNIT_DOC = json.dumps({"mu": [i / 50 for i in range(50)], "s": [0.25] * 50})


def unit() -> float:
    """Seconds one unit of reference work takes now."""
    started = time.perf_counter()
    capital, temperature, rows = 100.0, 0.8, []
    for i in range(40_000):
        output = 1.02 * capital ** 0.3
        capital = 0.9 * capital + 0.2 * output
        temperature += 0.1 * (math.log(1.0 + output / 100.0) - 0.05 * temperature)
        if i % 16 == 0:
            rows.append(f"{capital:.6f},{temperature:.6f}")
    json.loads(json.dumps({"rows": rows}))
    values = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        values = np.sort(np.sqrt(values + 1.0) - 1.0)[::-1]
    return time.perf_counter() - started


def file_unit(directory: Path) -> float:
    """Seconds one file unit takes now; it creates ``directory``, which must
    not exist yet."""
    started = time.perf_counter()
    data = json.loads(_FILE_UNIT_DOC)
    capital, temperature, rows = 100.0, 0.8, []
    for mu, s in zip(data["mu"], data["s"]):
        output = 1.02 * capital ** 0.3 * (1.0 - 0.05 * mu ** 2.6)
        capital = 0.9 * capital + s * output
        temperature += 0.1 * (math.log(1.0 + output / 100.0) - 0.05 * temperature)
        rows.append(",".join(f"{v:.6f}" for v in (
            capital, output, temperature, mu, s, capital * temperature,
            output * temperature, capital + output, mu * s, temperature ** 2)))
    directory.mkdir(parents=True)
    (directory / "unit.csv").write_text("\n".join(rows) + "\n")
    return time.perf_counter() - started


def units_after(body_seconds: float) -> list[float]:
    """Time enough units for ``SHARE`` of a body of ``body_seconds``."""
    count = max(1, math.ceil(SHARE * body_seconds / NOMINAL_UNIT_S))
    return [unit() for _ in range(count)]


def scaled(seconds: list[float], unit_times: list[float], nominal: float) -> float:
    """The mean of ``seconds`` at the reference speed, given the times of
    the units (of nominal time ``nominal``) run alongside them.

    Means, not medians: the units are spread over the run, so the summed
    body time and the summed unit time cover the same stretch of the host's
    changing speed, and their ratio cancels it. The host's speed has modes
    that the program and a unit do not share to the same degree, so the
    medians of the two, which each pick one mode, do not cancel.
    """
    return statistics.fmean(seconds) * nominal / statistics.fmean(unit_times)
