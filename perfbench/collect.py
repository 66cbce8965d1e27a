"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--trace-seeds 1 2 3] [--workloads optimize_p60 ...] [--out FILE] \
        [--compare EARLIER_FILE]

Runs ``perfbench/run.py`` once per workload and seed, one after another,
with the command and run length from ``BENCHMARK.json``: untraced for each
of ``--seeds`` (end-to-end metrics) and traced for each of ``--trace-seeds``
(per-layer metrics). For every metric it prints and stores the median, the
quartiles and the spread: the distance between the first and third quartile
as a share of the median. An end-to-end spread is flagged WIDE when it is
not below a third of the metric's bound and OVER-BOUND when it exceeds the
bound. With ``--compare`` it also prints, per workload and end-to-end
metric, the earlier summary's median, this one's and their ratio, flagged
WORSE when this median is worse than the earlier one by more than the
bound. ``BASELINE.json`` was written by this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT = 900


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: bool) -> tuple[dict, dict]:
    """The (detail, result) pair one benchmark run prints as its last two lines."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: "
                           f"{done.stderr.strip()[-800:]}")
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def collect(command, workload, seeds, seconds, trace, bounds, environment) -> dict:
    runs, outputs = [], {}
    for seed in seeds:
        detail, result = run_once(command, workload, seed, seconds, trace)
        if not environment:
            environment.update(detail["environment"])
        runs.append(result)
        outputs[seed] = detail["output_sha256"]
    metrics = {name: {"unit": runs[0]["metrics"][name]["unit"],
                      **summarise([run["metrics"][name]["value"] for run in runs])}
               for name in runs[0]["metrics"]}
    print(f"{workload} ({'traced' if trace else 'untraced'}, seeds {seeds}): "
          f"correct={all(run['correct'] for run in runs)} "
          f"failed={sum(run['failed'] for run in runs)}/"
          f"{sum(run['attempted'] for run in runs)}")
    for name, stats in metrics.items():
        spread, bound = stats["spread"], bounds.get(name)
        flag = ""
        if bound is not None and spread is not None:
            flag = ("ok" if spread < bound / 3 else
                    "WIDE" if spread <= bound else "OVER-BOUND")
        print(f"  {name:24s} median {stats['median']:<14.6g} "
              f"spread {'-' if spread is None else f'{spread:.4f}':8s} {flag}", flush=True)
    return {"seeds": seeds,
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "output_sha256": outputs,
            "metrics": metrics}


def compare(earlier: dict, later: dict, spec: dict) -> None:
    """Print both summaries' end-to-end medians per workload, with their ratio."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print("two-set comparison (earlier median, later median, later/earlier):")
    for workload, entry in later["workloads"].items():
        before = earlier["workloads"].get(workload, {}).get("end_to_end")
        if before is None or "end_to_end" not in entry:
            continue
        for name, stats in entry["end_to_end"]["metrics"].items():
            old, new = before["metrics"][name]["median"], stats["median"]
            ratio = new / old if old else float("nan")
            metric = metrics[name]
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            flag = "WORSE" if worse > metric["bound"] else "ok"
            print(f"  {workload:15s} {name:14s} {old:<14.6g} {new:<14.6g} "
                  f"{ratio:.4f} {flag}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path,
                        help="an earlier summary to compare end-to-end medians with")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    environment: dict = {}
    summary = {"run_seconds": seconds, "environment": environment, "workloads": {}}
    for workload in args.workloads:
        entry = summary["workloads"][workload] = {"why": why.get(workload)}
        if args.seeds:
            entry["end_to_end"] = collect(spec["command"], workload, args.seeds,
                                          seconds, False, bounds, environment)
        if args.trace_seeds:
            entry["per_layer"] = collect(spec["command"], workload, args.trace_seeds,
                                         seconds, True, bounds, environment)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.compare:
        compare(json.loads(args.compare.read_text()), summary, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
