"""Real-coded elitist NSGA-II over policy genomes.

The engine minimizes (-W, T_max) over flat genomes of 2H genes in [0, 1]
(mitigation row first, then saving row). Variation operators clamp to the box,
so every genome satisfies the bounds after every operator.

Reproducibility contract: all stochastic draws come from one numpy Generator
in a fixed, documented order. Per generation, with m = n_offspring + n_mutants
tournaments: the m first-entrant indices, then the m second-entrant indices;
the (n_offspring/2, 2H) blend coefficients; the (n_mutants, 2H) mask uniforms;
the (n_mutants, 2H) Gaussian noise (mask and noise drawn in full). Winners 2k
and 2k+1 are the parents of pair k, and the last n_mutants winners are
mutated in order. The children are stacked as the first child of every pair,
then the second child of every pair, then the mutants. Objective evaluation
never touches the generator.

The population is a pair of arrays: genomes (N, 2H) and objectives (N, 2) of
(W, T_max), with per-row rank and crowding arrays carried alongside.

Evaluator contract: an evaluator maps an (n, 2H) table of genomes to an
(n, 2) table of (W, T_max). The engine calls it once on the initial
population and once per generation on all new offspring and mutants
together, after every draw of that generation; an empty batch is not sent.
An exception that carries a ``row`` attribute (``ModelDomainError`` from
``model.evaluate_batch`` does) names that row's genome in the resulting
``EngineError``; any other names the batch's first genome.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, EngineError
from .model import ObjectivePair
from .params import _checked_fields

Evaluator = Callable[[np.ndarray], np.ndarray]

# Blend coefficients are drawn from U[BLEND_LOW, BLEND_HIGH]: convex mixing
# with a 10% overshoot band on both sides, clamped back to the box.
BLEND_LOW = -0.1
BLEND_HIGH = 1.1


@dataclass
class EngineConfig:
    """Algorithm settings; defaults follow the reference experiment setup."""

    population_size: int = 200
    max_iterations: int = 1000
    mutation_rate: float = 0.03      # per-gene selection probability
    mutation_step: float = 0.1       # Gaussian std in gene units
    crossover_fraction: float = 0.7  # offspring count as a fraction of the population
    mutant_fraction: float = 0.3     # mutant count as a fraction of the population
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if not (isinstance(self.population_size, int) and self.population_size >= 4
                and self.population_size % 2 == 0):
            raise ConfigError(
                f"population_size must be an even integer >= 4, got {self.population_size!r}")
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 0):
            raise ConfigError(f"max_iterations must be a non-negative integer, "
                              f"got {self.max_iterations!r}")
        for name in ("mutation_rate", "crossover_fraction", "mutant_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if not self.mutation_step > 0:
            raise ConfigError(f"mutation_step must be positive, got {self.mutation_step}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EngineConfig":
        """Build engine settings from a key-value mapping; unknown keys rejected."""
        return cls(**_checked_fields(cls, data, "engine"))

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class FrontArchive:
    """Rank-1 rows of a final population, sorted by T_max ascending.

    Exact duplicates in objective space are dropped (within rank 1 a tie in
    T_max forces a tie in W, otherwise one would dominate the other), making
    the sort order strict.
    """

    genomes: np.ndarray      # (n, 2H)
    objectives: np.ndarray   # (n, 2) of (W, T_max)

    def __len__(self) -> int:
        return len(self.objectives)


def dominates(a: ObjectivePair, b: ObjectivePair) -> bool:
    """True iff a is at least as good as b in both objectives and better in one.

    Orientation: W is maximized, T_max is minimized.
    """
    if not (a.W >= b.W and a.T_max <= b.T_max):
        return False
    return a.W > b.W or a.T_max < b.T_max


def non_dominated_sort(objectives: np.ndarray) -> np.ndarray:
    """1-based front rank of each row of an (n, 2) table of (W, T_max).

    Front k is non-dominated within the union of fronts k..end; rank 1 is
    globally non-dominated.
    """
    w = objectives[:, 0]
    t = objectives[:, 1]
    weakly = (w[:, None] >= w[None, :]) & (t[:, None] <= t[None, :])
    strictly = (w[:, None] > w[None, :]) | (t[:, None] < t[None, :])
    dom = weakly & strictly  # dom[p, q]: p dominates q
    dominator_count = dom.sum(axis=0)
    rank = np.zeros(len(objectives), dtype=int)
    front = 0
    while not rank.all():
        front += 1
        current = (rank == 0) & (dominator_count == 0)
        rank[current] = front
        dominator_count = dominator_count - dom[current].sum(axis=0)
    return rank


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Per-objective normalized neighbor gaps of one front, summed over both objectives.

    Boundary rows of each objective get +inf; an objective with zero range
    contributes nothing to interior rows.
    """
    m = len(objectives)
    if m == 0:
        return np.zeros(0)
    if m <= 2:
        return np.full(m, np.inf)
    # Minimization form (-W, T_max): the stable sort's tie order, and so which
    # of several tied rows becomes a boundary, follows from it.
    f = np.column_stack((-objectives[:, 0], objectives[:, 1]))
    d = np.zeros(m)
    for obj in range(f.shape[1]):
        order = np.argsort(f[:, obj], kind="stable")
        vals = f[order, obj]
        d[order[0]] = np.inf
        d[order[-1]] = np.inf
        span = vals[-1] - vals[0]
        if span > 0:
            d[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return d


def tournament_select(
    rank: np.ndarray, crowding: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Winners of ``size`` binary tournaments between two distinct rows: lower
    rank wins, then larger crowding, then the row drawn first."""
    n = len(rank)
    if n < 2:
        raise EngineError(f"tournament needs at least 2 individuals, got {n}")
    i = rng.integers(n, size=size)
    j = rng.integers(n - 1, size=size)
    j += j >= i
    first_wins = (rank[i] < rank[j]) | ((rank[i] == rank[j]) & (crowding[i] >= crowding[j]))
    return np.where(first_wins, i, j)


def crossover(
    parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Whole-arithmetic blend with per-gene coefficient in U[-0.1, 1.1], clamped.

    Works on matching arrays of any shape, e.g. (m, 2H) tables of m pairs.
    """
    if parent_a.shape != parent_b.shape:
        raise EngineError(
            f"genome length mismatch: {parent_a.shape} vs {parent_b.shape}")
    beta = rng.uniform(BLEND_LOW, BLEND_HIGH, size=parent_a.shape)
    child_a = np.clip(beta * parent_a + (1.0 - beta) * parent_b, 0.0, 1.0)
    child_b = np.clip((1.0 - beta) * parent_a + beta * parent_b, 0.0, 1.0)
    return child_a, child_b


def mutate(genomes: np.ndarray, rng: np.random.Generator, cfg: EngineConfig) -> np.ndarray:
    """Gaussian mutation: each gene perturbed with probability mutation_rate, clamped.

    Works on any shape. Mask uniforms and noise normals are both drawn for
    every gene so the stream consumption does not depend on the mask.
    """
    mask = rng.random(genomes.shape) < cfg.mutation_rate
    noise = rng.normal(0.0, cfg.mutation_step, size=genomes.shape)
    return np.clip(np.where(mask, genomes + noise, genomes), 0.0, 1.0)


def initialize_population(
    cfg: EngineConfig, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """Constant-input seeding: each (N, 2H) row is one mitigation level u
    repeated over the horizon followed by one saving level v repeated over the
    horizon, with u, v drawn uniformly from [0, 1], u before v, row by row."""
    return np.repeat(rng.random((cfg.population_size, 2)), horizon, axis=1)


def _evaluate(genomes: np.ndarray, evaluator: Evaluator) -> np.ndarray:
    """(n, 2) table of (W, T_max) from one evaluator call on the whole batch."""
    genomes.flags.writeable = False  # the evaluator gets read-only rows
    if len(genomes) == 0:
        return np.empty((0, 2))
    try:
        objectives = np.asarray(evaluator(genomes), dtype=float)
    except Exception as exc:
        row = getattr(exc, "row", None)
        raise _evaluation_error(genomes[0 if row is None else row], exc) from exc
    if objectives.shape != (len(genomes), 2):
        raise EngineError(f"evaluator returned shape {objectives.shape} for "
                          f"{len(genomes)} genomes, expected ({len(genomes)}, 2)")
    bad = np.flatnonzero(~np.isfinite(objectives).all(axis=1))
    if len(bad):
        raise _evaluation_error(
            genomes[bad[0]], f"non-finite objectives {objectives[bad[0]].tolist()}")
    return objectives


def _evaluation_error(genome: np.ndarray, reason: object) -> EngineError:
    return EngineError(
        f"policy evaluation failed for genome {json.dumps(genome.tolist())}: {reason}")


def _rank_and_crowd(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rank = non_dominated_sort(objectives)
    crowding = np.empty(len(rank))
    for front in range(1, rank.max() + 1):
        members = np.flatnonzero(rank == front)
        crowding[members] = crowding_distance(objectives[members])
    return rank, crowding


def _survivors(rank: np.ndarray, crowding: np.ndarray, target: int) -> np.ndarray:
    """Row indices of the next population, in order.

    Whole fronts are kept while they fit, each in ascending row order; the
    overflowing front is cut by descending crowding, ties in row order.
    """
    order = np.argsort(rank, kind="stable")
    if len(order) <= target:
        return order
    cut_rank = rank[order[target]]
    whole = order[rank[order] < cut_rank]
    cut = np.flatnonzero(rank == cut_rank)
    cut = cut[np.argsort(-crowding[cut], kind="stable")]
    return np.concatenate((whole, cut[: target - len(whole)]))


def _even_count(fraction: float, population_size: int) -> int:
    return 2 * round(fraction * population_size / 2.0)


def evolve(
    cfg: EngineConfig,
    evaluator: Evaluator,
    horizon: int,
    rng: np.random.Generator,
) -> FrontArchive:
    """Run the evolutionary loop and return the final first front.

    Per iteration: offspring are created by tournament selection plus blend
    crossover (crossover_fraction * N individuals, rounded to even) and
    mutants by tournament selection plus Gaussian mutation
    (mutant_fraction * N); new individuals are evaluated, merged with the
    parents, re-sorted, and the best N survive (lower rank first, larger
    crowding within the cut front). Deterministic for a fixed seed.
    """
    genomes = initialize_population(cfg, horizon, rng)
    objectives = _evaluate(genomes, evaluator)
    rank, crowding = _rank_and_crowd(objectives)

    n_offspring = _even_count(cfg.crossover_fraction, cfg.population_size)
    n_mutants = round(cfg.mutant_fraction * cfg.population_size)
    for _ in range(cfg.max_iterations):
        winners = tournament_select(rank, crowding, rng, n_offspring + n_mutants)
        pairs = crossover(genomes[winners[0:n_offspring:2]],
                          genomes[winners[1:n_offspring:2]], rng)
        children = np.concatenate((*pairs, mutate(genomes[winners[n_offspring:]], rng, cfg)))
        genomes = np.concatenate((genomes, children))
        objectives = np.concatenate((objectives, _evaluate(children, evaluator)))
        rank, crowding = _rank_and_crowd(objectives)
        keep = _survivors(rank, crowding, cfg.population_size)
        genomes, objectives = genomes[keep], objectives[keep]
        rank, crowding = rank[keep], crowding[keep]

    # the merged rank marks the survivors' first front: if merged front 1 fit,
    # every dominator of a surviving rank-2 row survived; if not, no rank 2 did
    first = rank == 1
    return _build_archive(genomes[first], objectives[first])


def _build_archive(genomes: np.ndarray, objectives: np.ndarray) -> FrontArchive:
    """Sort rank-1 rows by (T_max, -W) and drop exact objective duplicates."""
    order = np.lexsort((-objectives[:, 0], objectives[:, 1]))
    genomes, objectives = genomes[order], objectives[order]
    fresh = np.ones(len(objectives), dtype=bool)
    fresh[1:] = (objectives[1:] != objectives[:-1]).any(axis=1)
    return FrontArchive(genomes=genomes[fresh], objectives=objectives[fresh])
