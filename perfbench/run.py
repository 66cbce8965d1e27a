"""dice-pareto benchmark: one workload, one seed, one run of fixed length.

    python3 perfbench/run.py --workload optimize_p60 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process and one thread drive the program in a closed loop:
each timed body (a fixed list of ``dice_pareto.cli.main`` calls) starts when
the previous one has returned and been checked, for as long as the next one
is expected to finish within ``--seconds`` (at least one body runs).

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` (importing the package and building the default ``RunConfig``
in a fresh interpreter, the median over several), ``run_s`` (mean body wall
time), ``peak_rss_mb``, ``hypervolume`` (front quality) and
``success_rate`` (operations that exited 0 and passed every check, over
operations attempted). ``setup_s`` and ``run_s`` are scaled to a reference
host speed with reference units timed alongside them (see ``speed.py``);
the raw samples are in the detail line. With ``--trace 1`` untraced and
traced bodies alternate and the line carries the per-layer metrics of the
traced ones (medians), plus ``trace.overhead_s``, the traced minus the
untraced median body time.

The line before it holds the environment and the raw samples; both, with
the spans of a traced run, are also written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("optimize_p60", "optimize_p200", "simulate_sweep")
SETUP_RUNS = 15
SETUP_CODE = """\
import time
started = time.perf_counter()
import dice_pareto
dice_pareto.RunConfig()
print(repr(time.perf_counter() - started))
"""

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "hypervolume": "W.degC", "success_rate": "ratio"}
PER_LAYER_UNITS = {
    "model.entries": "count", "model.time_s": "s", "model.us_per_policy": "us",
    "nsga2.time_s": "s", "nsga2.ms_per_gen": "ms", "nsga2.sort_s": "s",
    "nsga2.sort_calls": "count", "nsga2.crowding_s": "s", "nsga2.variation_s": "s",
    "nsga2.variation_calls": "count", "harness.time_s": "s", "harness.persist_s": "s",
    "harness.load_front_s": "s", "harness.bytes_written": "bytes", "cli.entries": "count",
    "cli.time_s": "s", "cli.exit_nonzero": "count", "trace.overhead_s": "s",
}


def time_in_fresh_interpreter(code: str, env: dict[str, str]) -> float:
    """The seconds ``code`` prints as its last line, run in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(env: dict[str, str], unit_times: list[float]) -> list[float]:
    """Seconds to import the package and build the default config, per fresh
    interpreter; an import unit (see ``speed.py``) follows each sample in
    another fresh interpreter, timed into ``unit_times``."""
    samples = []
    for _ in range(SETUP_RUNS):
        samples.append(time_in_fresh_interpreter(SETUP_CODE, env))
        unit_times.append(time_in_fresh_interpreter(speed.IMPORT_UNIT_CODE, env))
    return samples


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dice_pareto").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60, check=False)
        commit = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(args: argparse.Namespace) -> dict:
    # sys.path[0] is this directory, so the benchmark's own modules import
    # directly; the program comes from the checkout's sources.
    sys.path.insert(1, str(SRC))
    import workloads
    from spans import Tracer, write_csv

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.make(args.workload, work, args.seed)

    setup: list[float] = []
    setup_units: list[float] = []   # import-unit times, untraced runs only
    if not args.trace:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        setup = measure_setup(env, setup_units)

    tracer = Tracer("dice_pareto", extra=[workloads.cli.main]) if args.trace else None
    missing = [name for name in workloads.PHASE_FUNCTIONS
               if tracer and name not in tracer.functions]
    if missing:
        print(f"warning: phase functions not found, their metrics read 0: "
              f"{', '.join(missing)}", file=sys.stderr)
    untraced, traced, layer_rows, tables = [], [], [], []
    body_units: list[float] = []   # reference units timed alongside untraced bodies
    attempted = failed = 0
    problems: list[str] = []
    cycles: list[float] = []   # body plus its checks
    started = time.perf_counter()
    body = 0
    while True:
        elapsed = time.perf_counter() - started
        enough = untraced and (tracer is None or traced)
        if enough and elapsed + statistics.median(cycles) > args.seconds:
            break
        cycle_started = time.perf_counter()
        tracing = tracer is not None and body % 2 == 1
        if tracing:
            tracer.install()
        try:
            timed = workload.run_body(calibrate=tracer is None)
        finally:
            if tracing:
                tracer.uninstall()
        results = timed.results
        per_command = workload.check(results)
        attempted += len(per_command)
        failed += sum(1 for found in per_command if found)
        problems.extend(p for found in per_command for p in found)
        if tracing:
            table = tracer.take()
            tables.append(table)
            row = workload.layer_metrics(table)
            row["harness.bytes_written"] = workload.bytes_written()
            row["cli.exit_nonzero"] = sum(1 for r in results if r.exit_code != 0)
            layer_rows.append(row)
            traced.append(timed.seconds)
        else:
            untraced.append(timed.seconds)
            body_units.extend(timed.unit_times)
        cycles.append(time.perf_counter() - cycle_started)
        body += 1

    if workload.quality is None:
        problems.append("no body produced a scorable output")
    if tracer:
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = PER_LAYER_UNITS
        write_csv(work / "spans.csv", tables)
    else:
        metrics = {
            "setup_s": speed.NOMINAL_IMPORT_UNIT_S * statistics.median(
                sample / unit for sample, unit in zip(setup, setup_units)),
            "run_s": speed.scaled(untraced, body_units, workload.nominal_unit_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "hypervolume": workload.quality if workload.quality is not None else 0.0,
            "success_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and workload.quality is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "output_sha256": workload.fingerprint,
        "samples": {"run_s": untraced, "traced_run_s": traced, "setup_s": setup,
                    "setup_unit_s": setup_units,
                    "body_unit_mean_s": statistics.fmean(body_units) if body_units else None},
        "raw_medians": {"run_s": statistics.median(untraced),
                        "setup_s": statistics.median(setup) if setup else None},
        "traced_functions": tracer.traced_names if tracer else [],
        "missing_phase_functions": missing,
        "problems": problems[:50],
    }
    (work / "result.json").write_text(json.dumps({"detail": detail, "result": result},
                                                 indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dice_pareto" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'dice_pareto'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # One thread: keep BLAS/OpenMP pools from starting extra threads (an
    # explicit setting in the environment wins and is recorded).
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
