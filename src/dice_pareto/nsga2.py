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

Ranking: one algorithm, ``_peel``, peels fronts in numpy from one visiting
order of the rows: W descending, then T_max ascending, ties in row order.
It ranks and crowds the initial population and every merged population,
and finds the archive: the final front 1, one row per chain of equal rows.
Crowding (Deb et al. 2002) takes each front's stable order of each
objective with no sort: of two rows of one front that differ, the one of
greater W has the greater T_max, so a front's visits are its stable order
of -W, and the same visits with each chain of equal rows reversed in
place, then all reversed, are its stable order of T_max. Survivors: the
parents and the scored children are merged, whole fronts are kept while
they fit and the front that overflows is cut by crowding. Only the fronts
down to that cut are peeled and crowded; the survivors, their order, rank
and crowding are those the full ranking gives. The engine calls neither
``non_dominated_sort`` nor ``crowding_distance`` (one front); both agree.

Evaluator contract: an evaluator maps an (n, 2H) table of genomes to an
(n, 2) table of (W, T_max). The engine calls it once on the initial
population and once per generation on all new offspring and mutants
together, after every draw of that generation; an empty batch is not sent.
The batch is read-only, and no later generation changes it. A failed
evaluation raises an ``EngineError`` that names the generation (0
for the initial population) and the batch row at fault: the ``row`` of an
exception that carries one (``ModelDomainError`` from
``model.evaluate_batch`` does), else row 0, or the first row with a
non-finite objective. It carries a copy of that row's genome as ``genome``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import EngineError
from .params import _checked_fields, _require

Evaluator = Callable[[np.ndarray], np.ndarray]

# Blend coefficients are drawn from U[BLEND_LOW, BLEND_HIGH]: convex mixing
# with a 10% overshoot band on both sides, clamped back to the box.
BLEND_LOW = -0.1
BLEND_HIGH = 1.1


@dataclass(frozen=True)
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
        # numpy cannot shape the (N, 2) table of initial draws beyond this
        largest = np.iinfo(np.intp).max // 16
        _require(self, f"be an even integer from 4 to {largest}",
                 lambda v: isinstance(v, int) and 4 <= v <= largest and v % 2 == 0,
                 "population_size")
        _require(self, "be a non-negative integer", lambda v: isinstance(v, int) and v >= 0,
                 "max_iterations")
        _require(self, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0,
                 "mutation_rate", "crossover_fraction", "mutant_fraction")
        _require(self, "be positive", lambda v: v > 0, "mutation_step")
        _require(self, "be a non-negative integer", lambda v: isinstance(v, int) and v >= 0,
                 "rng_seed")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EngineConfig":
        """Build engine settings from a key-value mapping; unknown keys rejected."""
        return cls(**_checked_fields(cls, data, "engine"))

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class FrontArchive:
    """Rank-1 rows of a final population, sorted by T_max ascending, exact
    duplicates in objective space dropped: within rank 1 a tie in T_max
    forces a tie in W, so the order is strict."""

    genomes: np.ndarray      # (n, 2H)
    objectives: np.ndarray   # (n, 2) of (W, T_max)

    def __len__(self) -> int:
        return len(self.objectives)


def _require_finite(objectives: np.ndarray) -> None:
    """Reject a table with a non-finite objective, naming its first such row:
    neither the peel nor the stable sorts order NaN or an infinity soundly."""
    finite = np.isfinite(objectives).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise EngineError(f"row {row}: objectives must be finite, "
                          f"got {objectives[row].tolist()}")


def non_dominated_sort(objectives: np.ndarray) -> np.ndarray:
    """1-based front rank of each row of an (n, 2) table of (W, T_max).

    Front k is non-dominated within the union of fronts k..end; rank 1 is
    globally non-dominated. ``_peel`` ranks every front, in O(n * F) for F
    fronts: the initial populations of seeds 1-3 have F = 11-14 at 60 rows
    and F = 26-28 at 200. A non-finite objective raises ``EngineError``
    naming its row.
    """
    _require_finite(objectives)
    return _peel(objectives, len(objectives))[0]


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Per-objective normalized neighbor gaps of one front, summed over both objectives.

    The rows are taken as one front. Each objective, in minimization form
    (-W, then T_max), is sorted with a stable sort, so of the rows tied at
    the least value the first is a boundary, and of those tied at the
    greatest value the last. Boundary rows get +inf, and so does every row
    of a front of one or two; an objective with zero range adds nothing to
    the interior rows. A non-finite objective raises ``EngineError`` naming
    its row.
    """
    _require_finite(objectives)
    d = np.zeros(len(objectives))
    if len(objectives):
        _crowd(d, objectives, (-objectives[:, 0]).argsort(kind="stable"),
               objectives[:, 1].argsort(kind="stable"))
    return d


def _crowd(d: np.ndarray, objectives: np.ndarray, by_w: np.ndarray, by_t: np.ndarray) -> None:
    """Add to ``d`` one front's crowding from its rows in the stable orders of -W and of
    T_max: per order, +inf at both ends and each inner row's normalized neighbor gap."""
    for by_value, vals in ((by_w, -objectives[by_w, 0]), (by_t, objectives[by_t, 1])):
        d[by_value[[0, -1]]] = np.inf
        span = vals[-1] - vals[0]
        if span > 0:
            d[by_value[1:-1]] += (vals[2:] - vals[:-2]) / span


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
    rank_i, rank_j = rank[i], rank[j]
    first_wins = (rank_i < rank_j) | ((rank_i == rank_j) & (crowding[i] >= crowding[j]))
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
    rest = 1.0 - beta
    child_a = beta * parent_a + rest * parent_b
    child_b = rest * parent_a + beta * parent_b
    return np.clip(child_a, 0.0, 1.0, out=child_a), np.clip(child_b, 0.0, 1.0, out=child_b)


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


def _evaluate(genomes: np.ndarray, evaluator: Evaluator, generation: int) -> np.ndarray:
    """(n, 2) table of (W, T_max) from one evaluator call on the whole batch
    of ``generation``."""
    genomes.flags.writeable = False  # the evaluator gets read-only rows
    if len(genomes) == 0:
        return np.empty((0, 2))
    try:
        objectives = np.asarray(evaluator(genomes), dtype=float)
    except Exception as exc:
        row = getattr(exc, "row", None)
        raise _evaluation_error(genomes, generation, 0 if row is None else row, exc) from exc
    if objectives.shape != (len(genomes), 2):
        raise EngineError(f"evaluator returned shape {objectives.shape} for "
                          f"{len(genomes)} genomes, expected ({len(genomes)}, 2)")
    bad = np.flatnonzero(~np.isfinite(objectives).all(axis=1))
    if len(bad):
        raise _evaluation_error(genomes, generation, int(bad[0]),
                                f"non-finite objectives {objectives[bad[0]].tolist()}")
    return objectives


def _evaluation_error(genomes: np.ndarray, generation: int, row: int,
                      reason: object) -> EngineError:
    return EngineError(f"policy evaluation failed in generation {generation}, "
                       f"batch row {row}: {reason}", genome=genomes[row].copy())


def _peel(objectives: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Front ranks of an (n, 2) table down to the front where at least
    ``target`` rows (or all n) are ranked, 0 for the rows behind it, with
    the visiting order and the sizes of its chains in that order.

    Rows are visited by W descending, then T_max ascending, ties in row
    order, so a row can only be dominated by rows visited before it. Equal
    rows never dominate each other and are contiguous in that order, and
    each chain of them takes the rank of its first row, its head. Front k is
    the unranked heads whose T_max is below the least T_max of every
    unranked head visited before them; a ranked head's T_max is set to +inf
    so that it no longer counts. Each front costs a few O(n) passes.
    """
    order = np.lexsort((objectives[:, 1], -objectives[:, 0]))
    n = len(order)
    visited = objectives[order]
    w, t = visited[:, 0], visited[:, 1]
    bounds = np.ones(n + 1, dtype=bool)  # bounds[k]: a chain starts at visit k
    np.not_equal(w[1:], w[:-1], out=bounds[1:n])
    bounds[1:n] |= t[1:] != t[:-1]
    bounds = bounds.nonzero()[0]
    sizes = bounds[1:] - bounds[:-1]
    t = t[bounds[:-1]]  # the heads' T_max
    low = np.full(len(t) + 1, np.inf)  # low[i]: least T_max of unranked heads before head i
    head_rank = np.zeros(len(t), dtype=int)
    front = ranked = 0
    while ranked < min(target, n):
        front += 1
        np.minimum.accumulate(t, out=low[1:])
        drops = t < low[:-1]
        head_rank[drops] = front
        ranked += np.add.reduce(sizes, where=drops)
        t[drops] = np.inf
    rank = np.empty(n, dtype=int)
    rank[order] = head_rank.repeat(sizes)
    return rank, order, sizes


def _rank_and_crowd(objectives: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    """``_peel``'s front ranks for ``target`` rows, and each row's crowding
    within its front from the peel's visiting order (see the module
    docstring); a row behind the fronts ranked has rank 0 and crowding 0."""
    rank, order, sizes = _peel(objectives, target)
    # each visit's mirror in its chain of equal rows: chains reversed in place
    mirror = order[(2 * sizes.cumsum() - sizes - 1).repeat(sizes) - np.arange(len(order))]
    fronts = rank[order]
    crowding = np.zeros(len(order))
    for front in range(1, fronts.max(initial=0) + 1):
        visits = fronts == front
        _crowd(crowding, objectives, order[visits], mirror[visits][::-1])
    return rank, crowding


def _next_population(objectives: np.ndarray,
                     target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a merged population that survive, in order, with their
    rank and crowding: the crowding of a front and the cut depend on no row
    behind it, so only the fronts down to the cut are ranked and crowded."""
    rank, crowding = _rank_and_crowd(objectives, target)
    ranked = rank.nonzero()[0]
    rank, crowding = rank[ranked], crowding[ranked]
    keep = _survivors(rank, crowding, target)
    return ranked[keep], rank[keep], crowding[keep]


def _survivors(rank: np.ndarray, crowding: np.ndarray, target: int) -> np.ndarray:
    """Row indices of the next population, in order.

    Whole fronts are kept while they fit, each in ascending row order; the
    overflowing front is cut by descending crowding, ties in row order.
    """
    order = rank.argsort(kind="stable")
    if len(order) <= target:
        return order
    cut_rank = rank[order[target]]
    whole = order[rank[order] < cut_rank]
    cut = (rank == cut_rank).nonzero()[0]
    cut = cut[(-crowding[cut]).argsort(kind="stable")]
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
    objectives = _evaluate(genomes, evaluator, 0)
    rank, crowding = _rank_and_crowd(objectives, len(objectives))

    n_offspring = _even_count(cfg.crossover_fraction, cfg.population_size)
    n_mutants = round(cfg.mutant_fraction * cfg.population_size)
    for generation in range(1, cfg.max_iterations + 1):
        winners = tournament_select(rank, crowding, rng, n_offspring + n_mutants)
        pairs = crossover(genomes[winners[0:n_offspring:2]],
                          genomes[winners[1:n_offspring:2]], rng)
        children = np.concatenate((*pairs, mutate(genomes[winners[n_offspring:]], rng, cfg)))
        genomes = np.concatenate((genomes, children))
        objectives = np.concatenate((objectives, _evaluate(children, evaluator, generation)))
        keep, rank, crowding = _next_population(objectives, cfg.population_size)
        genomes, objectives = genomes[keep], objectives[keep]

    return _build_archive(genomes, objectives)


def _build_archive(genomes: np.ndarray, objectives: np.ndarray) -> FrontArchive:
    """The front 1 of a population as ``_peel`` finds it: the first row of
    each of its chains of equal rows, in reverse visiting order (T_max
    ascending)."""
    rank, order, sizes = _peel(objectives, 1)
    heads = order[sizes.cumsum() - sizes]
    heads = heads[rank[heads] == 1][::-1]
    return FrontArchive(genomes=genomes[heads], objectives=objectives[heads])
