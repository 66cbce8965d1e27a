"""The benchmark's workloads: seeded inputs, the timed body, output checks,
front quality and per-layer figures.

A body is a fixed list of ``dice_pareto.cli.main`` calls run back to back in
this process (a closed loop with one client), with stdout and stderr
captured to memory. Only the documented flags ``--seed``, ``--population``,
``--iterations``, ``--out``, ``--representatives`` and ``--policy`` are
passed, so engine and evaluator internals can change underneath. Untraced
runs also time reference units alongside each body (see ``speed.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dice_pareto
from dice_pareto import cli

import speed
from checks import (check_comparison, check_front, check_simulate_stdout, check_trajectory,
                    parse_simulate_stdout)
from hypervolume import hypervolume_2d
from spans import SpanTable

REPRESENTATIVES = 6
SWEEP_POLICIES = 200

SORT = ("non_dominated_sort",)
CROWDING = ("crowding_distance",)
VARIATION = ("tournament_select", "crossover", "mutate")
PERSIST = ("persist_report",)
LOAD_FRONT = ("load_front",)
# Phase metrics look functions up by name and read 0 for a missing one, so
# run.py reports any of these that the tracer did not find.
PHASE_FUNCTIONS = SORT + CROWDING + VARIATION + PERSIST + LOAD_FRONT


@dataclass
class CommandResult:
    argv: list[str]
    exit_code: int | None   # None: main raised instead of returning
    stdout: str
    stderr: str


@dataclass
class Body:
    seconds: float                # wall time of the commands alone
    results: list[CommandResult]
    unit_times: list[float]       # reference units timed alongside, if calibrated


def call_cli(argv: list[str]) -> CommandResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up per call, so a traced main is used
        except Exception as exc:  # an escaped exception is a failed command
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
    return CommandResult(argv, code, out.getvalue(), err.getvalue())


def _exit_problems(result: CommandResult) -> list[str]:
    if result.exit_code == 0:
        return []
    return [f"{result.argv[0]} exited with {result.exit_code}: "
            f"{result.stderr.strip()[-300:]}"]


class Workload:
    """Base: run the commands as one timed body and check what they left."""

    policies_per_body = 0
    generations_per_body = 0
    nominal_unit_s = speed.NOMINAL_UNIT_S   # of the units run_body times

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.outputs = work / "out"  # every command writes below here
        self.params = dice_pareto.ModelParams()
        self.quality: float | None = None
        self.fingerprint: str | None = None   # sha256 of the first body's output

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def run_body(self, calibrate: bool) -> Body:
        """Run the commands; with ``calibrate``, then time compute units
        for a share of the body's time."""
        self.clear()
        commands = self.commands()
        started = time.perf_counter()
        results = [call_cli(argv) for argv in commands]
        seconds = time.perf_counter() - started
        return Body(seconds, results, speed.units_after(seconds) if calibrate else [])

    def clear(self) -> None:
        # Each body writes fresh files, as a new run would: rewriting files
        # in place costs the file system two to three times more, and more
        # erratically.
        shutil.rmtree(self.outputs, ignore_errors=True)

    def check(self, results: list[CommandResult]) -> list[list[str]]:
        """Problems per command; the first passing body also fixes
        :attr:`quality` and :attr:`fingerprint`."""
        raise NotImplementedError

    def bytes_written(self) -> int:
        raise NotImplementedError

    def layer_metrics(self, table: SpanTable) -> dict[str, float]:
        model_s = table.layer_self_time("model")
        nsga2_s = table.layer_self_time("nsga2")
        return {
            "model.entries": table.layer_entries("model"),
            "model.time_s": model_s,
            "model.us_per_policy": 1e6 * model_s / self.policies_per_body,
            "nsga2.time_s": nsga2_s,
            "nsga2.ms_per_gen": (1e3 * nsga2_s / self.generations_per_body
                                 if self.generations_per_body else 0.0),
            "nsga2.sort_s": table.function_time(SORT),
            "nsga2.sort_calls": table.function_calls(SORT),
            "nsga2.crowding_s": table.function_time(CROWDING),
            "nsga2.variation_s": table.function_time(VARIATION),
            "nsga2.variation_calls": table.function_calls(VARIATION),
            "harness.time_s": table.layer_self_time("harness"),
            "harness.persist_s": table.function_time(PERSIST),
            "harness.load_front_s": table.function_time(LOAD_FRONT),
            "cli.entries": table.layer_entries("cli"),
            "cli.time_s": table.layer_self_time("cli"),
        }


class Optimize(Workload):
    """`optimize` on a seeded search, then `report` on the same directory."""

    def __init__(self, work: Path, seed: int, population: int, iterations: int):
        super().__init__(work, seed)
        self.population = population
        self.iterations = iterations
        # the nominal search budget: the initial population plus one full
        # population of offspring and mutants per generation
        self.policies_per_body = population * (iterations + 1)
        self.generations_per_body = iterations
        self._front_bytes: bytes | None = None

    def commands(self) -> list[list[str]]:
        return [
            ["optimize", "--seed", str(self.seed), "--population", str(self.population),
             "--iterations", str(self.iterations), "--out", str(self.outputs),
             "--representatives", str(REPRESENTATIVES)],
            ["report", "--out", str(self.outputs), "--representatives", str(REPRESENTATIVES)],
        ]

    def check(self, results: list[CommandResult]) -> list[list[str]]:
        optimize, report = results
        opt_problems = _exit_problems(optimize)
        rep_problems = _exit_problems(report)
        front_path = self.outputs / "front.csv"
        if not opt_problems:
            front = front_path.read_bytes()
            opt_problems += check_front(front.decode(), self.params.H, self.score)
            if self._front_bytes is None:
                if opt_problems:
                    return [opt_problems, rep_problems]
                self._front_bytes = front
                rows = np.loadtxt(front_path, delimiter=",", skiprows=1, ndmin=2)
                self.quality = hypervolume_2d(rows[:, :2])
                self.fingerprint = hashlib.sha256(front).hexdigest()
            elif front != self._front_bytes:
                opt_problems.append("front.csv differs from the first body's (same seed)")
        if not rep_problems and self._front_bytes is not None:
            front_size = self._front_bytes.decode().count("\n") - 1
            rep_problems += check_comparison((self.outputs / "comparison.csv").read_text(),
                                             min(REPRESENTATIVES, front_size))
        return [opt_problems, rep_problems]

    def score(self, genome: np.ndarray) -> tuple[float, float]:
        pair = dice_pareto.evaluate_policy(dice_pareto.PolicyMatrix.from_genome(genome),
                                           self.params)
        return pair[0], pair[1]

    def bytes_written(self) -> int:
        # optimize writes every file in the directory; report rewrites comparison.csv
        files = [path for path in self.outputs.iterdir() if path.is_file()]
        return sum(path.stat().st_size for path in files) + \
            (self.outputs / "comparison.csv").stat().st_size


class SimulateSweep(Workload):
    """`simulate --policy` once per policy over a seeded set of policy files."""

    nominal_unit_s = speed.NOMINAL_FILE_UNIT_S

    def __init__(self, work: Path, seed: int, count: int = SWEEP_POLICIES):
        super().__init__(work, seed)
        self.policy_files = write_policies(work / "policies", seed, count, self.params.H)
        self.outs = [self.outputs / path.stem for path in self.policy_files]
        self.expected = []
        for path in self.policy_files:
            data = json.loads(path.read_text())
            policy = dice_pareto.PolicyMatrix(np.array(data["mu"]), np.array(data["s"]))
            pair = dice_pareto.evaluate_policy(policy, self.params)
            self.expected.append((pair[0], pair[1]))
        self.policies_per_body = count
        self._records: list[bytes] | None = None
        self.units = work / "units"

    def run_body(self, calibrate: bool) -> Body:
        """Run the commands; with ``calibrate``, time a file unit after
        each one. The units are not timed into the body."""
        self.clear()
        shutil.rmtree(self.units, ignore_errors=True)
        seconds, results, units = 0.0, [], []
        for k, argv in enumerate(self.commands()):
            started = time.perf_counter()
            results.append(call_cli(argv))
            seconds += time.perf_counter() - started
            if calibrate:
                units.append(speed.file_unit(self.units / f"u{k:03d}"))
        return Body(seconds, results, units)

    def commands(self) -> list[list[str]]:
        return [["simulate", "--policy", str(policy), "--out", str(out)]
                for policy, out in zip(self.policy_files, self.outs)]

    def check(self, results: list[CommandResult]) -> list[list[str]]:
        all_problems, records = [], []
        for result, out, (w, t_max) in zip(results, self.outs, self.expected):
            problems = _exit_problems(result)
            record = b""   # printed objectives and trajectory, free of paths
            if not problems:
                trajectory = (out / "trajectory.csv").read_bytes()
                problems += check_simulate_stdout(result.stdout, w, t_max)
                problems += check_trajectory(trajectory.decode(), self.params.H, t_max)
                if not problems:
                    record = repr(parse_simulate_stdout(result.stdout)).encode() + trajectory
            all_problems.append(problems)
            records.append(record)
        if self._records is None:
            if not any(all_problems):
                self._records = records
                self.quality = hypervolume_2d(
                    parse_simulate_stdout(result.stdout) for result in results)
                self.fingerprint = hashlib.sha256(b"".join(records)).hexdigest()
        else:
            for problems, new, old in zip(all_problems, records, self._records):
                if not problems and new != old:
                    problems.append("output differs from the first body's")
        return all_problems

    def bytes_written(self) -> int:
        return sum((out / "trajectory.csv").stat().st_size for out in self.outs)


def write_policies(directory: Path, seed: int, count: int, horizon: int) -> list[Path]:
    """Seeded policy files: alternately constant and linearly ramped mu, with a
    constant saving rate s drawn from [0.1, 0.4]."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(count):
        s = np.full(horizon, rng.uniform(0.1, 0.4))
        if k % 2 == 0:
            mu = np.full(horizon, rng.uniform(0.0, 1.0))
        else:
            first, last = rng.uniform(0.0, 1.0, size=2)
            mu = np.linspace(first, last, horizon)
        path = directory / f"p{k:03d}.json"
        path.write_text(json.dumps({"mu": mu.tolist(), "s": s.tolist()}))
        paths.append(path)
    return paths


def make(name: str, work: Path, seed: int) -> Workload:
    if name == "optimize_p60":
        return Optimize(work, seed, population=60, iterations=200)
    if name == "optimize_p200":
        return Optimize(work, seed, population=200, iterations=50)
    if name == "simulate_sweep":
        return SimulateSweep(work, seed)
    raise ValueError(f"unknown workload {name!r}")
