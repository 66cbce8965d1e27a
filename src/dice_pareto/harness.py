"""Seeded end-to-end experiments: configuration, runs, reports, persistence.

A run optimizes the bi-objective policy problem, picks representative
solutions spread evenly over the temperature axis, compares them against
stored reference points, and writes everything needed to reproduce or plot
the result:

* ``front.csv``         - one row per archive member: W, T_max, 2H genes;
* ``trajectory_X.csv``  - per-representative state/control paths;
* ``comparison.csv``    - representatives and references with deltas;
* ``metadata.json``     - seed, settings, config hash, versions, timing.

All floats are serialized with 17 significant digits so files round-trip
exactly and identical seeds reproduce identical front files byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import string
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError
from .model import ObjectivePair, PolicyMatrix, Trajectory, evaluate_batch, simulate
from .nsga2 import EngineConfig, FrontArchive, evolve
from .params import ModelParams, _number

FRONT_FILE = "front.csv"
COMPARISON_FILE = "comparison.csv"
METADATA_FILE = "metadata.json"

DEFAULT_REFERENCE_POINTS = ({"name": "MPC", "W": 27.2348, "T_max": 4.3885},)


@dataclass(frozen=True)
class ReferencePoint:
    """A named objective pair used purely as a comparison datum."""

    name: str
    objectives: ObjectivePair


@dataclass
class RunConfig:
    model: ModelParams = field(default_factory=ModelParams)
    engine: EngineConfig = field(default_factory=EngineConfig)
    output_dir: str = "out"
    representative_count: int = 6
    reference_points: tuple[ReferencePoint, ...] = ()

    def __post_init__(self) -> None:
        if not self.reference_points:
            self.reference_points = _parse_reference_points(list(DEFAULT_REFERENCE_POINTS))
        if not (isinstance(self.representative_count, int) and self.representative_count >= 2):
            raise ConfigError(
                f"representative_count must be an integer >= 2, got {self.representative_count!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model.to_dict(),
            "engine": self.engine.to_dict(),
            "output_dir": self.output_dir,
            "representative_count": self.representative_count,
            "reference_points": [
                {"name": rp.name, "W": rp.objectives.W, "T_max": rp.objectives.T_max}
                for rp in self.reference_points
            ],
        }


@dataclass
class RunReport:
    archive: FrontArchive
    representatives: list[tuple[str, int, Trajectory]]  # label, archive row, trajectory
    comparison: list[dict[str, Any]]
    metadata: dict[str, Any]


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file; absent keys take defaults, unknown keys fail.

    An empty (or whitespace-only) file means "all defaults".
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not text.strip():
        data: dict[str, Any] = {}
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(data)


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    allowed = {"model", "engine", "output_dir", "representative_count", "reference_points"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    model = ModelParams.from_dict(data.get("model", {}))
    engine = EngineConfig.from_dict(data.get("engine", {}))
    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    count = data.get("representative_count", 6)
    if _number(count, "representative_count") != int(count):
        raise ConfigError(f"representative_count must be an integer, got {count!r}")
    references = _parse_reference_points(
        data.get("reference_points", list(DEFAULT_REFERENCE_POINTS)))
    return RunConfig(
        model=model,
        engine=engine,
        output_dir=output_dir,
        representative_count=int(count),
        reference_points=references,
    )


def _parse_reference_points(raw: Any) -> tuple[ReferencePoint, ...]:
    if not isinstance(raw, list):
        raise ConfigError("reference_points must be a list of objects")
    points: list[ReferencePoint] = []
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"name", "W", "T_max"}:
            raise ConfigError(
                "each reference point needs exactly the keys name, W, T_max; "
                f"got {entry!r}")
        name = entry["name"]
        if not isinstance(name, str):
            raise ConfigError(f"reference point name must be a string, got {name!r}")
        points.append(ReferencePoint(name=name, objectives=ObjectivePair(
            W=_number(entry["W"], f"reference point {name!r} W"),
            T_max=_number(entry["T_max"], f"reference point {name!r} T_max"))))
    return tuple(points)


def run_experiment(cfg: RunConfig) -> RunReport:
    """Optimize, pick representatives, simulate them, and assemble the report.

    Deterministic for a fixed seed: the archive, representative labels, and
    comparison rows depend only on the configuration.
    """
    rng = np.random.default_rng(cfg.engine.rng_seed)
    model = cfg.model

    started = time.perf_counter()
    archive = evolve(cfg.engine, functools.partial(evaluate_batch, p=model), model.H, rng)
    elapsed = time.perf_counter() - started

    named = select_representatives(archive, cfg.representative_count)
    representatives = [
        (label, row, simulate(PolicyMatrix.from_genome(archive.genomes[row]), model))
        for label, row in named
    ]
    comparison = compare_reference(
        [(label, archive.objectives[row]) for label, row in named], cfg.reference_points)
    metadata = {
        "seed": cfg.engine.rng_seed,
        "population_size": cfg.engine.population_size,
        "iterations": cfg.engine.max_iterations,
        "horizon": model.H,
        "archive_size": len(archive),
        "elapsed_seconds": elapsed,
        "config_hash": config_hash(cfg),
        "versions": {
            "dice_pareto": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    return RunReport(archive=archive, representatives=representatives,
                     comparison=comparison, metadata=metadata)


def _labels(count: int) -> list[str]:
    letters = string.ascii_uppercase
    if count <= len(letters):
        return list(letters[:count])
    return [letters[k % len(letters)] + str(k // len(letters)) for k in range(count)]


def select_representatives(archive: FrontArchive, k: int) -> list[tuple[str, int]]:
    """Pick k archive rows at equal temperature spacing, as (label, row) pairs.

    Targets run from the archive's highest T_max down to its lowest; each
    target takes the nearest not-yet-chosen row (ties: higher W, then
    archive order). Labels go A (highest temperature) downward. An archive
    smaller than k is returned whole, labeled the same way.
    """
    n = len(archive)
    if n == 0:
        raise ConfigError("cannot select representatives from an empty archive")
    if n <= k:  # rows are sorted by T_max ascending
        return list(zip(_labels(n), reversed(range(n))))
    w = archive.objectives[:, 0]
    t = archive.objectives[:, 1]
    targets = np.linspace(t[-1], t[0], k)
    taken: set[int] = set()
    chosen = []
    for target in targets:
        best_idx = None
        best_key = None
        for idx in range(n):
            if idx in taken:
                continue
            key = (abs(t[idx] - target), -w[idx], idx)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        taken.add(best_idx)
        chosen.append(best_idx)
    return list(zip(_labels(k), chosen))


def compare_reference(
    representatives: Sequence[tuple[str, Sequence[float]]],
    reference_points: Sequence[ReferencePoint],
) -> list[dict[str, Any]]:
    """Build comparison rows from (label, (W, T_max)) pairs, sorted by W descending.

    Every representative and every reference point becomes a row; each row
    carries (W - W_ref) and (T_max - T_ref) against every reference point.
    """
    if not representatives or not reference_points:
        raise ConfigError("comparison needs at least one representative and one reference")
    entries = list(representatives)
    entries.extend((rp.name, rp.objectives) for rp in reference_points)
    rows = []
    for name, (w, t) in entries:
        row: dict[str, Any] = {"name": name, "W": w, "T_max": t}
        for rp in reference_points:
            row[f"dW_{rp.name}"] = w - rp.objectives.W
            row[f"dT_{rp.name}"] = t - rp.objectives.T_max
        rows.append(row)
    rows.sort(key=lambda r: -r["W"])
    return rows


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_files(texts: dict[Path, str]) -> list[Path]:
    """Write each text to its path; returns the paths.

    Each file is first written to a temporary sibling (``<name>.tmp``), and
    the temporaries replace their targets only after every write has
    succeeded: a failed call removes its temporaries and leaves the files of
    any previous run as they were.
    """
    temps = [path.with_name(f"{path.name}.tmp") for path in texts]
    try:
        for temp, text in zip(temps, texts.values()):
            try:
                temp.write_text(text)
            except OSError as exc:
                raise RuntimeError(f"failed to write {temp}: {exc}") from exc
        for temp, target in zip(temps, texts):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    return list(texts)


def persist_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write front, trajectories, comparison, and metadata files with
    ``write_files``; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = {out / FRONT_FILE: format_front_csv(report.archive)}
    for label, row, traj in report.representatives:
        policy = PolicyMatrix.from_genome(report.archive.genomes[row])
        texts[out / f"trajectory_{label}.csv"] = format_trajectory_csv(traj, policy)
    texts[out / COMPARISON_FILE] = format_comparison_csv(report.comparison)
    texts[out / METADATA_FILE] = json.dumps(report.metadata, indent=2, sort_keys=True) + "\n"
    return write_files(texts)


def format_front_csv(archive: FrontArchive) -> str:
    if len(archive) == 0:
        raise ConfigError("archive is empty, nothing to persist")
    horizon = archive.genomes.shape[1] // 2
    header = ["W", "T_max"]
    header += [f"mu_{i}" for i in range(horizon)]
    header += [f"s_{i}" for i in range(horizon)]
    lines = [",".join(header)]
    for row in np.hstack((archive.objectives, archive.genomes)):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


TRAJECTORY_COLUMNS = ["year", "T_AT", "T_LO", "E", "M_AT", "M_UP", "M_LO",
                      "Y", "Q", "C", "I", "mu", "s"]


def format_trajectory_csv(traj: Trajectory, policy: PolicyMatrix) -> str:
    """H+1 rows; step-derived and control columns are empty on the final row."""
    p = traj.params
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for i, st in enumerate(traj.states):
        cells = [_fmt(p.year(i)), _fmt(st.T_AT), _fmt(st.T_LO)]
        if i < len(traj.derived):
            d = traj.derived[i]
            per_step = [d.E, st.M_AT, st.M_UP, st.M_LO, d.Y, d.Q, d.C, d.I,
                        policy.mu[i], policy.s[i]]
            cells += [_fmt(v) for v in per_step]
        else:
            cells += ["", _fmt(st.M_AT), _fmt(st.M_UP), _fmt(st.M_LO), "", "", "", "", "", ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_comparison_csv(rows: Sequence[dict[str, Any]]) -> str:
    if not rows:
        raise ConfigError("comparison table is empty, nothing to persist")
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            row[col] if col == "name" else _fmt(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def load_front(path: str | Path) -> FrontArchive:
    """Read a front file back into an archive (objectives and genomes).

    Rows are sorted by (T_max, -W); a row with a missing, extra, non-numeric
    or non-finite cell is rejected with its line number.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"front file not found: {path}")
    lines = [(number, ln) for number, ln in enumerate(path.read_text().splitlines(), 1)
             if ln.strip()]
    if len(lines) < 2:
        raise ConfigError(f"front file {path} contains no solutions")
    header = lines[0][1].split(",")
    if header[:2] != ["W", "T_max"] or (len(header) - 2) % 2 != 0:
        raise ConfigError(f"front file {path} has an unexpected header")
    table = np.empty((len(lines) - 1, len(header)))
    for k, (number, ln) in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{number}: malformed row with {len(cells)} cells, "
                              f"the header has {len(header)}")
        try:
            table[k] = [float(c) for c in cells]
        except ValueError as exc:
            raise ConfigError(f"{path}:{number}: non-numeric cell: {exc}") from None
        if not np.isfinite(table[k]).all():
            raise ConfigError(f"{path}:{number}: non-finite value in row")
    table = table[np.lexsort((-table[:, 0], table[:, 1]))]
    return FrontArchive(genomes=table[:, 2:], objectives=table[:, :2])


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
