"""Correctness checks on the files and text the CLI produces.

Every check returns a list of problems; an empty list means the output
passed. The benchmark counts an operation as failed when its exit code is
not 0 or any check on its output reports a problem.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

REL_TOL = 1e-12
# Criterion 2 (CI band): the cool end of a CI-profile front reaches 2.9 degC.
T_MAX_BAND = 2.9
# `simulate` prints objectives with six decimals.
PRINTED_HALF_UNIT = 0.5e-6

Scorer = Callable[[np.ndarray], tuple[float, float]]


def _close(value: float, expected: float, slack: float = 0.0) -> bool:
    return abs(value - expected) <= slack + REL_TOL * abs(expected)


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("file is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_front(text: str, horizon: int, score: Scorer) -> list[str]:
    """front.csv: finite, genes in [0, 1], sorted by T_max, mutually
    non-dominated, first/middle/last rows re-score exactly, and the cool end
    inside the CI band."""
    try:
        header, cells = _csv_rows(text)
        rows = np.array(cells, dtype=float)
    except ValueError as exc:
        return [f"front.csv is not a numeric table: {exc}"]
    if header[:2] != ["W", "T_max"] or len(header) != 2 + 2 * horizon:
        return [f"front.csv header has {len(header)} columns, expected W, T_max and "
                f"{2 * horizon} genes"]
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != len(header):
        return ["front.csv has no rows or ragged rows"]
    problems = []
    if not np.isfinite(rows).all():
        problems.append("front.csv holds non-finite values")
    w, t, genes = rows[:, 0], rows[:, 1], rows[:, 2:]
    if np.any(np.diff(t) < 0):
        problems.append("front.csv is not sorted by T_max ascending")
    weakly = (w[:, None] >= w[None, :]) & (t[:, None] <= t[None, :])
    strictly = (w[:, None] > w[None, :]) | (t[:, None] < t[None, :])
    if np.any(weakly & strictly):
        problems.append("front.csv holds a dominated row")
    if np.any((genes < 0.0) | (genes > 1.0)):
        problems.append("front.csv holds a gene outside [0, 1]")
    for idx in sorted({0, len(rows) // 2, len(rows) - 1}):
        try:
            w_new, t_new = score(genes[idx])
        except Exception as exc:  # any failure to re-score is a failed check
            problems.append(f"front.csv row {idx} cannot be re-scored: {exc}")
            continue
        if not (_close(w[idx], w_new) and _close(t[idx], t_new)):
            problems.append(f"front.csv row {idx} re-scores to ({w_new!r}, {t_new!r}), "
                            f"file has ({float(w[idx])!r}, {float(t[idx])!r})")
    coolest = float(np.nanmin(t))
    if not coolest <= T_MAX_BAND:
        problems.append(f"front.csv min T_max {coolest!r} is above {T_MAX_BAND}")
    return problems


def check_comparison(text: str, representatives: int) -> list[str]:
    """comparison.csv: one row per representative plus the MPC reference row."""
    try:
        header, rows = _csv_rows(text)
    except ValueError as exc:
        return [f"comparison.csv: {exc}"]
    problems = []
    if header[:1] != ["name"]:
        problems.append("comparison.csv header does not start with 'name'")
    if len(rows) != representatives + 1:
        problems.append(f"comparison.csv has {len(rows)} rows, expected "
                        f"{representatives} representatives + MPC")
    if "MPC" not in [row[0] for row in rows]:
        problems.append("comparison.csv has no MPC row")
    return problems


def check_trajectory(text: str, horizon: int, t_max: float) -> list[str]:
    """trajectory.csv: H+1 rows whose peak T_AT is the scored T_max."""
    try:
        header, rows = _csv_rows(text)
        t_at = [float(row[header.index("T_AT")]) for row in rows]
    except (ValueError, IndexError) as exc:
        return [f"trajectory.csv is unreadable: {exc}"]
    problems = []
    if len(rows) != horizon + 1:
        problems.append(f"trajectory.csv has {len(rows)} rows, expected {horizon + 1}")
    if not (t_at and _close(max(t_at), t_max)):
        problems.append(f"trajectory.csv peak T_AT differs from T_max {t_max!r}")
    return problems


def parse_simulate_stdout(text: str) -> tuple[float, float]:
    """The (W, T_AT_max) pair `simulate` prints; raises ValueError if absent."""
    found = {}
    for key in ("W", "T_AT_max"):
        match = re.search(rf"^{key} = (\S+)$", text, flags=re.MULTILINE)
        if match is None:
            raise ValueError(f"no '{key} = ' line in output")
        found[key] = float(match.group(1))
    return found["W"], found["T_AT_max"]


def check_simulate_stdout(text: str, w: float, t_max: float) -> list[str]:
    """Printed W and T_AT_max equal the scored pair to the printed precision.

    The values are printed with six decimals, so the allowed difference is
    half a unit in the last printed place plus rel 1e-12.
    """
    try:
        w_out, t_out = parse_simulate_stdout(text)
    except ValueError as exc:
        return [f"simulate output: {exc}"]
    if not (math.isfinite(w_out) and math.isfinite(t_out)):
        return [f"simulate printed non-finite objectives ({w_out}, {t_out})"]
    problems = []
    if not _close(w_out, w, PRINTED_HALF_UNIT):
        problems.append(f"simulate printed W = {w_out!r}, expected {w!r}")
    if not _close(t_out, t_max, PRINTED_HALF_UNIT):
        problems.append(f"simulate printed T_AT_max = {t_out!r}, expected {t_max!r}")
    return problems
