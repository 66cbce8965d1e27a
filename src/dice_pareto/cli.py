"""Command-line entry point: simulate, optimize, and report workflows.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 for model
or engine failures at runtime. The random seed is resolved as CLI flag over
the DICE_PARETO_SEED environment variable over the config file over the
built-in default.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, ModelDomainError
from .harness import (
    COMPARISON_FILE,
    FRONT_FILE,
    RunConfig,
    _decode_json,
    _present,
    _read_input,
    _write_run,
    format_trajectory_csv,
    load_config,
    load_front,
    persist_report,
    run_experiment,
    write_files,
)
from .model import PolicyMatrix, simulate

SEED_ENV_VAR = "DICE_PARETO_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


@functools.cache  # built on the first call, then shared: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="dice-pareto",
                     description="DICE-2016R simulation and bi-objective policy search")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy through the model")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--out", help="output directory (default from config)")
    sim.add_argument("--mu", type=float, help="constant mitigation rate in [0, 1]")
    sim.add_argument("--s", type=float, help="constant saving rate in [0, 1]")
    sim.add_argument("--policy", help="JSON policy file with 'mu' and 's' arrays")

    opt = sub.add_parser("optimize", help="run the evolutionary search")
    opt.add_argument("--config", help="JSON config file")
    opt.add_argument("--seed", type=int, help="random seed (overrides env and config)")
    opt.add_argument("--out", help="output directory (default from config)")
    opt.add_argument("--iterations", type=int, help="override engine iterations")
    opt.add_argument("--population", type=int, help="override population size")
    opt.add_argument("--representatives", type=int, help="how many named solutions to pick")

    rep = sub.add_parser("report", help="rebuild the comparison table from a stored front")
    rep.add_argument("--config", help="JSON config file")
    rep.add_argument("--out", help="directory holding front.csv (default from config)")
    rep.add_argument("--representatives", type=int, help="how many named solutions to pick")

    return parser


# built on the first call, then shared: every config class is frozen
_default_config = functools.cache(RunConfig)


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    for flag in ("config", "out", "policy"):  # only simulate takes --policy
        if getattr(args, flag, None) == "":
            raise _UsageError(f"--{flag} must not be empty")
    cfg = _default_config() if args.config is None else load_config(args.config)
    changes = {}
    if args.out is not None:
        changes["output_dir"] = args.out
    if getattr(args, "representatives", None) is not None:
        changes["representative_count"] = args.representatives
    return dataclasses.replace(cfg, **changes)


def _resolve_seed(args: argparse.Namespace, cfg: RunConfig) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return cfg.engine.rng_seed


def _policy_from_args(args: argparse.Namespace, horizon: int) -> PolicyMatrix:
    has_constant = args.mu is not None or args.s is not None
    if args.policy is not None and has_constant:
        raise _UsageError("give either --policy or --mu/--s, not both")
    if args.policy is not None:
        data = _decode_json(_read_input(args.policy, "policy file"), args.policy)
        if not isinstance(data, dict) or set(data) != {"mu", "s"}:
            raise ConfigError("policy file must be an object with exactly 'mu' and 's' arrays")
        mu, s = data["mu"], data["s"]
        if (not isinstance(mu, list) or not isinstance(s, list)
                or len(mu) != horizon or len(s) != horizon):
            raise ConfigError(f"policy arrays must each have H = {horizon} entries")
        # bool is an int subclass, but true/false are not rates
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 <= v <= 1.0
                   for v in mu + s):
            raise ConfigError("policy entries must be numbers in [0, 1]")
        return PolicyMatrix(np.array(mu, dtype=float), np.array(s, dtype=float))
    if args.mu is None or args.s is None:
        raise _UsageError("simulate needs --mu and --s, or --policy")
    if not 0.0 <= args.mu <= 1.0:
        raise _UsageError(f"--mu must lie in [0, 1], got {args.mu}")
    if not 0.0 <= args.s <= 1.0:
        raise _UsageError(f"--s must lie in [0, 1], got {args.s}")
    return PolicyMatrix.constant(args.mu, args.s, horizon)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    policy = _policy_from_args(args, cfg.model.H)
    traj = simulate(policy, cfg.model)
    target = Path(cfg.output_dir) / "trajectory.csv"
    write_files({target: format_trajectory_csv(traj)})
    print(f"W = {traj.W:.6f}")
    print(f"T_AT_max = {traj.T_max:.6f}")
    print(f"trajectory written to {target}")
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    flags = {"rng_seed": _resolve_seed(args, cfg), "max_iterations": args.iterations,
             "population_size": args.population}
    engine = dataclasses.replace(cfg.engine, **{name: value for name, value in flags.items()
                                                if value is not None})
    cfg = dataclasses.replace(cfg, engine=engine)
    report = run_experiment(cfg)
    persist_report(report, cfg.output_dir)
    rows = report.archive.objectives
    print(f"front size = {len(report.archive)}")
    print(f"T_AT_max range = [{rows[:, 1].min():.6f}, {rows[:, 1].max():.6f}]")
    print(f"W range = [{rows[:, 0].min():.6f}, {rows[:, 0].max():.6f}]")
    print(f"report written to {Path(cfg.output_dir).resolve()}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    out = Path(cfg.output_dir)
    archive = load_front(out / FRONT_FILE)
    genes = archive.genomes.shape[1]
    if genes != 2 * cfg.model.H:
        raise ConfigError(f"{out / FRONT_FILE} has {genes} genes per row, but the configured "
                          f"H = {cfg.model.H} needs 2H = {2 * cfg.model.H}")
    texts = _write_run(out, _present(archive, cfg), {})
    print(texts[out / COMPARISON_FILE], end="")
    print(f"comparison written to {out / COMPARISON_FILE}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        return _cmd_report(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelDomainError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"runtime error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
