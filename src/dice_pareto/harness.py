"""Seeded end-to-end experiments: configuration, runs, reports, persistence.

A run optimizes the bi-objective policy problem, picks representative
solutions spread evenly over the temperature axis, compares them against
stored reference points, and writes everything needed to reproduce or plot
the result:

* ``front.csv``         - one row per archive member: W, T_max, 2H genes;
* ``trajectory_X.csv``  - per-representative state/control paths;
* ``comparison.csv``    - representatives and references with deltas;
* ``metadata.json``     - seed, settings, config hash, versions, timing.

``report`` takes a stored ``front.csv`` down the same path from the archive
on: it picks and simulates its representatives and writes their trajectories
and ``comparison.csv`` in one write, removing every other ``trajectory_*.csv``.

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
from .params import ModelParams, _integer, _number, _require

FRONT_FILE = "front.csv"
COMPARISON_FILE = "comparison.csv"
METADATA_FILE = "metadata.json"


@dataclass(frozen=True)
class ReferencePoint:
    """A named objective pair used purely as a comparison datum."""

    name: str
    objectives: ObjectivePair


DEFAULT_REFERENCE_POINTS = (ReferencePoint("MPC", ObjectivePair(W=27.2348, T_max=4.3885)),)


def _check_output_dir(value: object) -> None:
    # "" would silently mean the working directory
    if not (isinstance(value, str) and value):
        raise ConfigError(f"output_dir must be a non-empty string, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams = field(default_factory=ModelParams)
    engine: EngineConfig = field(default_factory=EngineConfig)
    output_dir: str = "out"
    representative_count: int = 6
    reference_points: tuple[ReferencePoint, ...] = DEFAULT_REFERENCE_POINTS

    def __post_init__(self) -> None:
        _check_output_dir(self.output_dir)
        if not self.reference_points:
            raise ConfigError("reference_points must hold at least one point")
        names = set()
        for rp in self.reference_points:
            # a name is a comparison.csv cell and part of two column names
            if not rp.name or any(c in rp.name for c in ',"\r\n'):
                raise ConfigError("reference point name must be non-empty without a comma, "
                                  f"quote or line break, got {rp.name!r}")
            if rp.name in names:
                raise ConfigError(f"reference point name {rp.name!r} is used twice")
            names.add(rp.name)
        _require(self, "be an integer >= 2", lambda v: isinstance(v, int) and v >= 2,
                 "representative_count")

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
    metadata: dict[str, Any] = field(default_factory=dict)  # empty for a stored front


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file; absent keys take defaults, unknown keys fail.

    An empty (or whitespace-only) file means "all defaults".
    """
    text = _read_input(path, "config file")
    data = _decode_json(text, path) if text.strip() else {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return config_from_dict(data)


def _read_input(path: str | Path, what: str) -> str:
    """The text of an input file; one that cannot be read or decoded (missing,
    a directory, bytes that are not text) is one ``ConfigError`` naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _decode_json(text: str, path: str | Path) -> Any:
    """The value of a JSON input file's text; invalid JSON is one ``ConfigError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an overlong integer, deep nesting
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    """Settings from a config file's mapping; an absent field keeps its default."""
    names = [f.name for f in dataclasses.fields(RunConfig)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    read = {"model": ModelParams.from_dict, "engine": EngineConfig.from_dict,
            "representative_count": functools.partial(_integer, where="representative_count"),
            "reference_points": _parse_reference_points}
    return RunConfig(**{name: read.get(name, lambda value: value)(data[name])
                        for name in names if name in data})


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
            # the SIMD dispatch: numpy's vectorised power rounds by it
            "numpy_simd": np.show_config(mode="dicts")["SIMD Extensions"],
            "python": platform.python_version(),
        },
    }
    return dataclasses.replace(_present(archive, cfg), metadata=metadata)


def _present(archive: FrontArchive, cfg: RunConfig) -> RunReport:
    """An archive's representatives, each simulated, and their comparison
    rows, without metadata: what ``optimize`` and ``report`` both write."""
    named = select_representatives(archive, cfg.representative_count)
    representatives = [(label, row, simulate(PolicyMatrix.from_genome(archive.genomes[row]),
                                             cfg.model)) for label, row in named]
    return RunReport(archive, representatives, compare_reference(
        [(label, archive.objectives[row]) for label, row in named], cfg.reference_points))


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
    free = np.arange(n)  # rows not yet chosen, in archive order
    chosen = []
    for target in np.linspace(t[-1], t[0], k):
        # a stable sort keeps archive order among rows tied in both keys
        best = np.lexsort((-w[free], np.abs(t[free] - target)))[0]
        chosen.append(int(free[best]))
        free = np.delete(free, best)
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


# the text of every float written: 17 significant digits read back exactly
_FLOAT = "%.17g"


def _format_rows(table: np.ndarray) -> list[str]:
    """Each row of a float table as one line of ``_FLOAT`` cells, formatted
    with one ``%`` template per row; rows are converted one at a time so no
    whole-table list of floats is built."""
    template = ",".join([_FLOAT] * table.shape[1])
    return [template % tuple(row.tolist()) for row in table]


def write_files(texts: dict[Path, str]) -> None:
    """Write each text to its path, making its directory.

    Each file is first written to a temporary sibling (``<name>.tmp``), and
    the temporaries replace their targets only after every write has
    succeeded: a failed call removes its temporaries and leaves the files of
    any previous run as they were.
    """
    for directory in dict.fromkeys(path.parent for path in texts):
        directory.mkdir(parents=True, exist_ok=True)
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


def _write_run(out: Path, report: RunReport, texts: dict[Path, str]) -> dict[Path, str]:
    """Write a report's ``comparison.csv``, ``texts`` and the representatives'
    trajectories in one ``write_files`` call, then remove every other
    ``trajectory_*.csv`` in ``out``, so an earlier run's representatives do
    not pass for these; returns each text by its path, comparison first."""
    texts = {out / COMPARISON_FILE: format_comparison_csv(report.comparison), **texts}
    for label, _, traj in report.representatives:
        texts[out / f"trajectory_{label}.csv"] = format_trajectory_csv(traj)
    write_files(texts)
    for stale in sorted(set(out.glob("trajectory_*.csv")) - set(texts)):
        stale.unlink(missing_ok=True)
    return texts


def persist_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write the comparison, front, metadata and trajectory files with
    ``_write_run``; returns the written paths. A string ``out_dir`` is
    checked as ``RunConfig.output_dir`` is; a ``Path`` is taken as it is
    (pathlib already reads ``Path("")`` as ``Path(".")``)."""
    if not isinstance(out_dir, Path):
        _check_output_dir(out_dir)
    out = Path(out_dir)
    return list(_write_run(out, report, {
        out / FRONT_FILE: format_front_csv(report.archive),
        out / METADATA_FILE: json.dumps(report.metadata, indent=2, sort_keys=True) + "\n"}))


def format_front_csv(archive: FrontArchive) -> str:
    if len(archive) == 0:
        raise ConfigError("archive is empty, nothing to persist")
    horizon = archive.genomes.shape[1] // 2
    header = ["W", "T_max"]
    header += [f"mu_{i}" for i in range(horizon)]
    header += [f"s_{i}" for i in range(horizon)]
    lines = [",".join(header)] + _format_rows(np.hstack((archive.objectives, archive.genomes)))
    return "\n".join(lines) + "\n"


TRAJECTORY_COLUMNS = ["year", "T_AT", "T_LO", "E", "M_AT", "M_UP", "M_LO",
                      "Y", "Q", "C", "I", "mu", "s"]


def format_trajectory_csv(traj: Trajectory) -> str:
    """H+1 rows; step-derived and control columns are empty on the final row."""
    H = traj.params.H
    columns = {**traj.states, **traj.derived, "mu": traj.policy.mu, "s": traj.policy.s,
               "year": [traj.params.year(i) for i in range(H + 1)]}
    columns = [columns[name] for name in TRAJECTORY_COLUMNS]
    lines = [",".join(TRAJECTORY_COLUMNS)]
    lines += _format_rows(np.column_stack([column[:H] for column in columns]))
    final = [float(column[H]) for column in columns if len(column) > H]  # the states
    lines.append(",".join(_FLOAT if len(column) > H else "" for column in columns)
                 % tuple(final))
    return "\n".join(lines) + "\n"


def format_comparison_csv(rows: Sequence[dict[str, Any]]) -> str:
    if not rows:
        raise ConfigError("comparison table is empty, nothing to persist")
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            row[col] if col == "name" else _FLOAT % row[col] for col in header))
    return "\n".join(lines) + "\n"


def load_front(path: str | Path) -> FrontArchive:
    """Read a front file back into an archive (objectives and genomes).

    Rows are sorted by (T_max, -W). A row with a missing, extra, non-numeric
    or non-finite cell, a gene outside [0, 1], the (W, T_max) of an earlier
    row or one that another row dominates is rejected with its line number,
    checked in that order: ``optimize`` writes none of these.
    """
    lines = [(number, ln) for number, ln
             in enumerate(_read_input(path, "front file").splitlines(), 1) if ln.strip()]
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
    numbers = [number for number, _ in lines[1:]]
    outside = ((table[:, 2:] < 0.0) | (table[:, 2:] > 1.0)).any(axis=1)
    if outside.any():
        raise ConfigError(f"{path}:{numbers[outside.argmax()]}: gene outside [0, 1] in row")
    order = np.lexsort((-table[:, 0], table[:, 1]))
    table = table[order]
    # the sort is stable, so of two equal rows the later one in the file
    # comes second; the earliest such row follows the first of its kind
    repeats = np.flatnonzero((table[1:, :2] == table[:-1, :2]).all(axis=1))
    if len(repeats):
        k = repeats[order[repeats + 1].argmin()]
        raise ConfigError(f"{path}:{numbers[order[k + 1]]}: (W, T_max) repeats line "
                          f"{numbers[order[k]]}")
    # a row is dominated by the rows sorted before it with at least its W:
    # name the first dominated row in the file and the first row dominating it
    dominated = np.flatnonzero(table[1:, 0] <= np.maximum.accumulate(table[:-1, 0])) + 1
    if len(dominated):
        k = dominated[order[dominated].argmin()]
        by = np.flatnonzero(table[:k, 0] >= table[k, 0])
        raise ConfigError(f"{path}:{numbers[order[k]]}: (W, T_max) is dominated by line "
                          f"{numbers[order[by].min()]}")
    return FrontArchive(genomes=table[:, 2:], objectives=table[:, :2])


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 of the run's settings: where the run is written is not one."""
    settings = {key: value for key, value in cfg.to_dict().items() if key != "output_dir"}
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
