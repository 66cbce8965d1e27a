"""Engine behavior: domination, sorting, operators, and the evolve loop."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from oracle import (
    brute_force_rank,
    crowding_by_front,
    dominates,
    front_one_archive,
    rank_and_crowd,
)

import dice_pareto
from dice_pareto import (
    ConfigError,
    EngineConfig,
    EngineError,
    ModelDomainError,
    ModelParams,
    ObjectivePair,
    PolicyMatrix,
    crossover,
    crowding_distance,
    evaluate_batch,
    evaluate_policy,
    evolve,
    mutate,
    non_dominated_sort,
    tournament_select,
)
from dice_pareto.nsga2 import (
    _build_archive,
    _next_population,
    _peel,
    _rank_and_crowd,
    _survivors,
    initialize_population,
)


def min_rows(*pairs):
    """(n, 2) table of (W, T_max) whose minimization form (-W, T_max) is exactly *pairs*."""
    return np.array([(-f1, f2) for f1, f2 in pairs], dtype=float).reshape(-1, 2)


def fronts_of(rank):
    """Row indices of each front, in rank order, ascending within a front."""
    return [np.flatnonzero(rank == r).tolist() for r in range(1, rank.max(initial=0) + 1)]


class TestDominates:
    def test_published_front_point_dominates_reference(self):
        b = ObjectivePair(27.2354, 4.1100)
        mpc = ObjectivePair(27.2348, 4.3885)
        assert dominates(b, mpc)
        assert not dominates(mpc, b)

    def test_extreme_solutions_do_not_dominate_each_other(self):
        a = ObjectivePair(27.2360, 4.5380)
        f = ObjectivePair(27.1600, 2.3768)
        assert not dominates(a, f)
        assert not dominates(f, a)

    def test_identical_pairs_never_dominate(self):
        x = ObjectivePair(1.0, 2.0)
        assert not dominates(x, x)

    def test_strict_partial_order_on_random_triples(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            # small integer grid to make ties and chains common
            a, b, c = (ObjectivePair(*rng.integers(0, 4, 2).astype(float))
                       for _ in range(3))
            assert not dominates(a, a)
            if dominates(a, b):
                assert not dominates(b, a)
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestNonDominatedSort:
    def test_three_point_example(self):
        rank = non_dominated_sort(min_rows((1, 1), (2, 2), (0, 3)))
        assert fronts_of(rank) == [[0, 2], [1]]
        assert rank.tolist() == [1, 2, 1]

    def test_identical_objectives_share_one_front(self):
        rank = non_dominated_sort(min_rows(*[(1.5, 2.5)] * 6))
        assert fronts_of(rank) == [list(range(6))]
        assert rank.tolist() == [1] * 6

    def test_chain_gives_singleton_fronts(self):
        rank = non_dominated_sort(min_rows((3, 3), (1, 1), (2, 2)))
        assert fronts_of(rank) == [[1], [2], [0]]
        assert rank.tolist() == [3, 1, 2]

    def test_a_chain_of_300_rows_takes_300_fronts(self):
        # the peel's worst case: one front per row, each row dominating the next
        order = np.random.default_rng(8).permutation(300)
        rank = non_dominated_sort(min_rows(*[(k, k) for k in order]))
        assert rank.tolist() == (order + 1).tolist()

    def test_empty_population(self):
        assert non_dominated_sort(min_rows()).tolist() == []

    def test_front_k_nondominated_within_suffix(self):
        rng = np.random.default_rng(5)
        objectives = min_rows(*rng.random((40, 2)))
        fronts = fronts_of(non_dominated_sort(objectives))
        pairs = [ObjectivePair(*row) for row in objectives]
        assert sorted(i for f in fronts for i in f) == list(range(40))
        for k, front in enumerate(fronts):
            suffix = [i for f in fronts[k:] for i in f]
            for q in front:
                assert not any(
                    dominates(pairs[p], pairs[q])
                    for p in suffix if p != q)


class TestCrowding:
    def test_small_fronts_are_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(min_rows((0, 1)))))
        assert np.all(np.isinf(crowding_distance(min_rows((0, 1), (1, 0)))))

    def test_hand_computed_middle_distance(self):
        d = crowding_distance(min_rows((0.0, 1.0), (0.5, 0.5), (1.0, 0.0)))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == 2.0

    def test_zero_range_axis_stays_finite(self):
        d = crowding_distance(min_rows((0.0, 5.0), (0.5, 5.0), (1.0, 5.0)))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert np.isfinite(d[1])

    def test_fronts_are_crowded_separately(self):
        # front 1 is rows 0, 2 and 4; front 2 is rows 1 and 3
        objectives = min_rows((0.0, 2.0), (1.0, 3.0), (1.0, 1.0), (3.0, 1.0), (2.0, 0.0))
        _, d = _rank_and_crowd(objectives, len(objectives))
        assert np.isinf(d[[0, 1, 3, 4]]).all()
        assert d[2] == 2.0


@pytest.mark.parametrize("function", [non_dominated_sort, crowding_distance])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_objective_names_its_row(function, column, value):
    objectives = min_rows((0.0, 3.0), (1.0, 2.0), (2.0, 1.0), (3.0, 0.0))
    objectives[2, column] = value
    objectives[3, column] = value
    with pytest.raises(EngineError, match="row 2: objectives must be finite"):
        function(objectives)


# a coarse grid with both signed zeros, so equal values and equal rows are common
GRID = [k / 2 for k in range(-10, 11)] + [-0.0]
OFFSETS = [0.0, 0.5, 1.0]


@st.composite
def merged_populations(draw):
    """A merged population of 2N rows of (W, T_max) and N: a front 1 of
    N - 1, N or N + 1 rows (or any size) on a staircase of distinct points,
    some repeated into chains of equal rows, and 2N - |front 1| rows each
    dominated by a point of that staircase, all shuffled."""
    N = draw(st.sampled_from([4, 6, 10]))
    size = draw(st.sampled_from([N - 1, N, N + 1]) | st.integers(1, 2 * N))
    distinct = draw(st.integers(1, size))
    # W and T_max both descending along the staircase: no point dominates another
    points = [sorted(draw(st.lists(st.sampled_from(GRID), min_size=distinct,
                                   max_size=distinct, unique=True)), reverse=True)
              for _ in range(2)]
    staircase = list(zip(*points))
    extra = draw(st.lists(st.integers(0, distinct - 1), min_size=size - distinct,
                          max_size=size - distinct))
    rows = staircase + [staircase[k] for k in extra]
    for _ in range(2 * N - size):
        w, t = staircase[draw(st.integers(0, distinct - 1))]
        a, b = draw(st.sampled_from(OFFSETS)), draw(st.sampled_from(OFFSETS))
        rows.append((w - a, t + b + (0.5 if a == b == 0.0 else 0.0)))
    order = draw(st.permutations(range(2 * N)))
    return np.array(rows)[order], N, size


def full_ranking(objectives, target):
    """Rank and crowding of every row from the brute-force reference, taking
    the engine's ``target`` and ignoring it."""
    return rank_and_crowd(objectives)


def full_ranking_survivors(objectives, target):
    """Survivors, rank and crowding from ranking and crowding every row with
    the brute-force reference."""
    rank, crowding = rank_and_crowd(objectives)
    keep = _survivors(rank, crowding, target)
    return keep, rank[keep], crowding[keep]


def assert_same_survivors(objectives, target):
    want = full_ranking_survivors(objectives, target)
    got = _next_population(objectives, target)
    assert got[0].tolist() == want[0].tolist()  # the same rows in the same order
    assert got[1].dtype == want[1].dtype and got[1].tolist() == want[1].tolist()
    assert got[2].tobytes() == want[2].tobytes()


@st.composite
def grid_tables(draw, max_rows):
    """An (n, 2) table of GRID values, 1 <= n <= max_rows, whose rows repeat
    into chains of equal rows; sometimes one column is constant."""
    n = draw(st.integers(1, max_rows))
    pairs = st.tuples(st.sampled_from(GRID), st.sampled_from(GRID))
    rows = draw(st.lists(pairs, min_size=1, max_size=n))
    table = np.array([rows[k] for k in draw(st.lists(st.integers(0, len(rows) - 1),
                                                      min_size=n, max_size=n))])
    if draw(st.booleans()):
        column = draw(st.integers(0, 1))
        table[:, column] = draw(st.sampled_from(GRID))
    return table


def assert_peeled(objectives, target):
    """``_peel`` ranks the fronts down to the least one that holds, with the
    fronts before it, at least ``target`` rows (or all), as the full ranking
    does, and leaves every later row unranked; it hands over its visiting
    order (W descending, then T_max ascending, ties in row order) and the
    sizes of its chains of equal rows in that order; returns its rank."""
    rank = brute_force_rank(objectives)
    peeled, order, sizes = _peel(objectives, target)
    visits = sorted(range(len(objectives)), key=lambda i: (-objectives[i, 0], objectives[i, 1]))
    assert order.tolist() == visits
    chains = itertools.groupby(tuple(objectives[i]) for i in visits)
    assert sizes.tolist() == [len(list(chain)) for _, chain in chains]
    cut = peeled.max()
    ranked = peeled > 0
    assert peeled.dtype == rank.dtype
    assert peeled[ranked].tolist() == rank[ranked].tolist()
    assert (rank[~ranked] > cut).all()
    assert np.count_nonzero(rank < cut) < min(target, len(rank)) <= np.count_nonzero(ranked)
    return peeled


def merged(front, dominated, order):
    """A merged population of (W, T_max) rows, front 1 first, put in ``order``,
    with N, half its rows, and the size of front 1: as ``merged_populations``
    draws them."""
    rows = np.array(front + dominated, dtype=float)[order]
    return rows, len(rows) // 2, len(front)


STAIRCASE = [(4.0, 4.0), (3.0, 3.0), (2.0, 2.0), (1.0, 1.0), (0.0, 0.0)]


class TestSurvivorShortcut:
    """Survivor selection ranks, crowds and cuts only the fronts down to the
    survivor cut; it must keep what ranking every row keeps."""

    @settings(max_examples=400, deadline=None)
    @given(merged_populations())
    # front 1 of N + 1 rows
    @example(merged(STAIRCASE[:2] + [(2.0, 1.5), (1.0, 1.0), (0.0, 0.0)],
                    [(3.0, 4.5), (1.0, 2.0), (-1.0, 0.5)], [5, 2, 7, 0, 3, 6, 1, 4]))
    # front 1 of 2N rows
    @example(merged([(7.0, 7.0), (6.0, 6.5), (5.0, 5.0), (4.0, 4.0), (3.0, 3.5), (2.0, 2.0),
                     (1.0, 1.0), (0.0, 0.0)], [], [3, 6, 0, 5, 2, 7, 4, 1]))
    # a chain of two equal rows at each end of front 1, apart in row order
    @example(merged([(3.0, 3.0), (3.0, 3.0), (2.0, 2.0), (1.0, 1.5), (0.0, 0.0), (0.0, 0.0)],
                    [(2.0, 2.5), (0.5, 1.5)], [0, 4, 6, 2, 5, 1, 7, 3]))
    # three interior rows tied at crowding 1.0 for the two places left at the cut
    @example(merged(STAIRCASE, [(3.0, 3.5), (2.0, 2.5), (-1.0, 1.0)], [6, 3, 0, 7, 2, 5, 1, 4]))
    # front 1 of exactly N rows
    @example(merged(STAIRCASE[1:], [(3.0, 4.5), (2.0, 4.0), (1.0, 3.0), (-1.0, 0.5)],
                    [4, 0, 5, 1, 6, 2, 7, 3]))
    def test_matches_the_full_ranking(self, drawn):
        objectives, N, size = drawn
        rank = non_dominated_sort(objectives)
        assert np.count_nonzero(rank == 1) == size
        cut = assert_peeled(objectives, N).max()
        # a front 1 of N - 1 rows (drawn for every N) puts the cut behind it
        assert (cut >= 2) == (size < N)
        event(f"cut at front {cut}")
        event("front 1 over N rows" if size > N else "front 1 of N rows or fewer")
        assert_same_survivors(objectives, N)

    @settings(max_examples=300, deadline=None)
    @given(grid_tables(max_rows=24))
    def test_the_peel_stops_at_the_cut_for_every_target(self, objectives):
        for target in range(1, len(objectives) + 1):
            assert_peeled(objectives, target)
            assert_same_survivors(objectives, target)

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_front_one_of_n_minus_one_n_and_n_plus_one(self, size):
        # N = 4; front 1 is a chain of three equal rows plus size - 3 more
        front = [(2.0, 2.0)] * 3 + [(1.0, 1.0), (0.0, 0.0)][:size - 3]
        dominated = [(1.0, 2.0), (2.0, 2.5), (-1.0, 3.0), (1.0, 2.0), (1.5, 2.5)]
        objectives = np.array(front + dominated[:8 - size])[[7, 0, 5, 2, 4, 1, 6, 3]]
        assert np.count_nonzero(non_dominated_sort(objectives) == 1) == size
        assert_same_survivors(objectives, 4)

    def test_a_chain_takes_the_front_of_its_first_row(self):
        # rows 1, 3, 4 are equal and in front 1; rows 0, 2, 5 are equal and
        # dominated by row 6, whose T_max they share
        objectives = min_rows((-1, 2), (-3, 1), (-1, 2), (-3, 1), (-3, 1), (-1, 2), (-4, 2))
        assert _peel(objectives, 4)[0].tolist() == [0, 1, 0, 1, 1, 0, 1]
        assert _peel(objectives, 5)[0].tolist() == [2, 1, 2, 1, 1, 2, 1]

    def test_a_front_one_that_fits_exactly_keeps_row_order(self):
        # crowding would put the boundary rows 0 and 3 first
        objectives = min_rows((0, 3), (1, 2), (2, 1), (3, 0), (1, 3), (2, 3), (3, 3), (4, 4))
        keep, rank, crowding = _next_population(objectives, 4)
        assert keep.tolist() == [0, 1, 2, 3]
        assert rank.tolist() == [1] * 4
        assert np.isinf(crowding[[0, 3]]).all() and np.isfinite(crowding[[1, 2]]).all()


@settings(max_examples=300, deadline=None)
@given(grid_tables(max_rows=40))
@example(np.array([[0.5, -0.0]]))
@example(np.array([[0.5, -0.0], [-0.5, 0.0]]))
@example(np.array([[1.0, 2.0], [0.0, 2.0], [-1.0, 2.0]]))
@example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
def test_one_front_crowding_matches_the_ranked_path(objectives):
    one_front = np.ones(len(objectives), dtype=int)
    got = crowding_distance(objectives)
    assert got.tobytes() == crowding_by_front(objectives, one_front).tobytes()


@settings(max_examples=300, deadline=None)
@given(grid_tables(max_rows=40) | merged_populations().map(lambda drawn: drawn[0]))
@example(np.array([[0.5, -0.0], [0.5, 0.0], [0.5, -0.0]]))
@example(np.array([[-0.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [0.5, 3.0]]))
def test_archive_matches_the_front_one_reference(objectives):
    # each genome is its row number, so the bytes show which row of a chain is kept
    genomes = np.arange(len(objectives), dtype=float)[:, None]
    got = _build_archive(genomes, objectives)
    want_genomes, want_objectives = front_one_archive(genomes, objectives)
    assert got.genomes.tobytes() == want_genomes.tobytes()
    assert got.objectives.tobytes() == want_objectives.tobytes()


class TestTournament:
    def test_lower_rank_always_wins(self):
        rank, crowding = np.array([1, 3]), np.zeros(2)
        winners = tournament_select(rank, crowding, np.random.default_rng(3), 20)
        assert winners.tolist() == [0] * 20

    def test_crowding_breaks_rank_ties(self):
        rank, crowding = np.array([1, 1]), np.array([np.inf, 2.0])
        winners = tournament_select(rank, crowding, np.random.default_rng(3), 20)
        assert winners.tolist() == [0] * 20

    def test_seeded_winner_sequence_is_reproducible(self):
        objectives = np.array([(float(w), float(t)) for w, t in zip(range(6), range(6))])
        rank = non_dominated_sort(objectives)
        crowding = np.zeros(len(rank))
        for front in fronts_of(rank):
            crowding[front] = crowding_distance(objectives[front])
        seq1 = tournament_select(rank, crowding, np.random.default_rng(9), 50)
        seq2 = tournament_select(rank, crowding, np.random.default_rng(9), 50)
        assert seq1.shape == (50,)
        assert np.array_equal(seq1, seq2)

    def test_needs_two_individuals(self):
        with pytest.raises(EngineError):
            tournament_select(np.array([1]), np.zeros(1), np.random.default_rng(0), 4)

    def test_full_tie_returns_the_first_drawn_row(self):
        rng = _StubRng(integers=[[0, 1, 2, 3, 2], [0, 0, 2, 2, 3]])
        winners = tournament_select(np.ones(5, dtype=int), np.full(5, 0.5), rng, 5)
        assert winners.tolist() == [0, 1, 2, 3, 2]

    def test_second_entrant_is_never_the_first(self):
        # row 2 is the only one of rank 2, so it loses to any other row: every
        # second-entrant draw 0..3 maps to a distinct row other than 2
        rng = _StubRng(integers=[[2, 2, 2, 2], [0, 1, 2, 3]])
        winners = tournament_select(np.array([1, 1, 2, 1, 1]), np.zeros(5), rng, 4)
        assert winners.tolist() == [0, 1, 3, 4]


class _StubRng:
    """Minimal generator stand-in with fixed outputs for operator tests."""

    def __init__(self, uniform_value=None, random_value=None, normal_value=None,
                 integers=()):
        self._uniform = uniform_value
        self._random = random_value
        self._normal = normal_value
        self._integers = list(integers)

    def uniform(self, low, high, size):
        return np.full(size, self._uniform)

    def random(self, size):
        return np.full(size, self._random)

    def normal(self, loc, scale, size):
        return np.full(size, self._normal)

    def integers(self, high, size):
        values = np.array(self._integers.pop(0))
        assert values.shape == (size,) and values.max() < high
        return values


class TestCrossover:
    def test_blend_coefficient_one_returns_parents(self):
        a = np.array([[0.1, 0.7, 0.3], [0.4, 0.0, 1.0]])
        b = np.array([[0.9, 0.2, 0.5], [0.6, 1.0, 0.0]])
        ca, cb = crossover(a, b, _StubRng(uniform_value=1.0))
        assert np.array_equal(ca, a)
        assert np.array_equal(cb, b)

    def test_blend_coefficient_half_gives_midpoint_twins(self):
        a = np.array([[0.0, 1.0], [0.25, 0.75]])
        b = np.array([[1.0, 0.0], [0.75, 0.25]])
        ca, cb = crossover(a, b, _StubRng(uniform_value=0.5))
        assert np.array_equal(ca, cb)
        assert np.array_equal(ca, np.full((2, 2), 0.5))

    def test_identical_parents_breed_true(self):
        rng = np.random.default_rng(4)
        a = rng.random((10, 74))
        ca, cb = crossover(a, a.copy(), rng)
        np.testing.assert_allclose(ca, a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(cb, a, rtol=0, atol=1e-15)

    def test_children_respect_box_bounds(self):
        rng = np.random.default_rng(8)
        a, b = rng.random((50, 20)), rng.random((50, 20))
        ca, cb = crossover(a, b, rng)
        assert ca.shape == cb.shape == (50, 20)
        assert np.all((ca >= 0) & (ca <= 1))
        assert np.all((cb >= 0) & (cb <= 1))
        assert not np.array_equal(ca, cb)

    def test_length_mismatch_is_an_error(self):
        for shape_b in [(2, 4), (3, 3)]:
            with pytest.raises(EngineError):
                crossover(np.zeros((2, 3)), np.zeros(shape_b), np.random.default_rng(0))


class TestMutate:
    def test_zero_rate_leaves_genome_untouched(self):
        cfg = EngineConfig(mutation_rate=0.0)
        g = np.random.default_rng(1).random((5, 10))
        assert np.array_equal(mutate(g, np.random.default_rng(1), cfg), g)

    def test_noise_is_clamped_at_the_box(self):
        cfg = EngineConfig(mutation_rate=0.5)
        g = np.array([[0.99, 0.01], [0.01, 0.99]])
        out = mutate(g, _StubRng(random_value=0.0, normal_value=0.5), cfg)
        assert out.tolist() == [[1.0, 0.51], [0.51, 1.0]]
        out = mutate(g, _StubRng(random_value=0.0, normal_value=-0.5), cfg)
        assert out.tolist() == [[0.49, 0.0], [0.0, 0.49]]

    def test_expected_mutated_gene_count(self):
        cfg = EngineConfig()  # 3% per gene
        trials = 3000
        genomes = np.full((trials, 74), 0.5)
        changed = np.count_nonzero(mutate(genomes, np.random.default_rng(21), cfg) != genomes)
        mean = changed / trials
        # binomial mean 74 * 0.03 = 2.22, se of the estimate ~ 0.027
        assert mean == pytest.approx(2.22, abs=0.15)


class TestInitialization:
    def test_constant_rows_and_bounds(self):
        cfg = EngineConfig(population_size=30)
        genomes = initialize_population(cfg, 37, np.random.default_rng(2))
        assert genomes.shape == (30, 74)
        for genome in genomes:
            assert len(set(genome.tolist())) <= 2
            assert np.all((genome >= 0) & (genome <= 1))
            assert len(set(genome[:37].tolist())) == 1
            assert len(set(genome[37:].tolist())) == 1

    def test_different_seeds_differ(self):
        cfg = EngineConfig(population_size=8)
        a = initialize_population(cfg, 5, np.random.default_rng(1))
        b = initialize_population(cfg, 5, np.random.default_rng(2))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))


class TestEngineConfig:
    @pytest.mark.parametrize("overrides, field", [
        ({"population_size": 3}, "population_size"),
        ({"population_size": 7}, "population_size"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"mutation_rate": 1.5}, "mutation_rate"),
        ({"mutation_step": 0.0}, "mutation_step"),
        ({"crossover_fraction": -0.1}, "crossover_fraction"),
        ({"mutant_fraction": 1.2}, "mutant_fraction"),
        # even, and one above the largest (N, 2) table numpy can shape
        ({"population_size": np.iinfo(np.intp).max // 16 + 1}, "population_size"),
        ({"population_size": 10**20}, "population_size"),
    ])
    def test_invalid_settings_name_the_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**overrides)

    def test_the_largest_population_numpy_can_shape_is_accepted(self):
        # checking it allocates nothing
        largest = np.iinfo(np.intp).max // 16 // 2 * 2
        assert EngineConfig(population_size=largest).population_size == largest

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="mutation_rat\\b"):
            EngineConfig.from_dict({"mutation_rat": 0.05})

    def test_defaults_follow_reported_settings(self):
        cfg = EngineConfig()
        assert cfg.population_size == 200
        assert cfg.max_iterations == 1000
        assert cfg.mutation_rate == 0.03
        assert cfg.mutation_step == 0.1


SMALL_MODEL = ModelParams(H=6)


def _small_evaluator(genomes):
    return evaluate_batch(genomes, SMALL_MODEL)


def _small_cfg(**overrides):
    defaults = dict(population_size=12, max_iterations=4, rng_seed=3)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestEvolve:
    def test_zero_iterations_returns_initial_first_front(self):
        cfg = _small_cfg(max_iterations=0)
        archive = evolve(cfg, _small_evaluator, SMALL_MODEL.H,
                         np.random.default_rng(cfg.rng_seed))
        # recompute the expected rank-1 set from the same seeded initialization
        genomes = initialize_population(cfg, SMALL_MODEL.H, np.random.default_rng(cfg.rng_seed))
        objectives = _small_evaluator(genomes)
        rank = non_dominated_sort(objectives)
        expected = {tuple(row) for row in objectives[rank == 1]}
        got = {tuple(row) for row in archive.objectives}
        assert got == expected

    def test_archive_is_mutually_nondominated_and_sorted(self):
        archive = evolve(_small_cfg(), _small_evaluator, SMALL_MODEL.H,
                         np.random.default_rng(3))
        rows = archive.objectives
        assert np.all(np.diff(rows[:, 1]) > 0)  # strictly ascending T_max
        for i in range(len(archive)):
            for j in range(len(archive)):
                if i != j:
                    assert not dominates(ObjectivePair(*rows[i]), ObjectivePair(*rows[j]))

    def test_all_genomes_respect_bounds(self):
        archive = evolve(_small_cfg(max_iterations=6), _small_evaluator,
                         SMALL_MODEL.H, np.random.default_rng(3))
        assert np.all((archive.genomes >= 0.0) & (archive.genomes <= 1.0))

    def test_same_seed_reproduces_archive_bit_for_bit(self):
        a = evolve(_small_cfg(), _small_evaluator, SMALL_MODEL.H,
                   np.random.default_rng(3))
        b = evolve(_small_cfg(), _small_evaluator, SMALL_MODEL.H,
                   np.random.default_rng(3))
        assert np.array_equal(a.objectives, b.objectives)
        assert np.array_equal(a.genomes, b.genomes)

    def test_each_generation_calls_each_operator_once(self, monkeypatch):
        import dice_pareto.nsga2 as engine

        calls = []
        ranking = ["non_dominated_sort", "crowding_distance", "_rank_and_crowd"]
        variation = ["tournament_select", "crossover", "mutate"]
        for name in ranking + variation + ["_next_population"]:
            def counted(*args, _name=name, _op=getattr(engine, name)):
                calls.append(_name)
                return _op(*args)
            monkeypatch.setattr(engine, name, counted)
        evolve(_small_cfg(max_iterations=3), _small_evaluator, SMALL_MODEL.H,
               np.random.default_rng(3))
        # the initial ranking, then variation and one survivor selection per
        # generation, which ranks and crowds the fronts down to the survivor
        # cut; neither the public sort nor the public crowding runs
        survivors = ["_next_population", "_rank_and_crowd"]
        assert calls == ["_rank_and_crowd"] + (variation + survivors) * 3

    def test_a_filled_front_one_skips_the_ranking(self, monkeypatch):
        import dice_pareto.nsga2 as engine

        calls = []
        for name in ("non_dominated_sort", "crowding_distance", "_rank_and_crowd"):
            def counted(*args, _name=name, _op=getattr(engine, name)):
                calls.append(_name)
                return _op(*args)
            monkeypatch.setattr(engine, name, counted)
        # every row scores alike, so the merged front 1 holds all 2N rows
        evolve(_small_cfg(max_iterations=3), lambda genomes: np.zeros((len(genomes), 2)),
               SMALL_MODEL.H, np.random.default_rng(3))
        # the initial population and each generation's survivors are ranked
        # and crowded by the peel, never by the public sort or crowding
        assert calls == ["_rank_and_crowd"] * 4

    def test_phase_functions_stay_public(self):
        # the benchmark's tracer times the engine's phases by these names
        assert {"non_dominated_sort", "crowding_distance", "tournament_select", "crossover",
                "mutate", "persist_report", "load_front"} <= set(dice_pareto.__all__)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_archive_matches_front_by_front_reference(self, seed, monkeypatch):
        import dice_pareto.nsga2 as engine

        cfg = _small_cfg(max_iterations=20, rng_seed=seed)
        swept = evolve(cfg, _small_evaluator, SMALL_MODEL.H, np.random.default_rng(seed))
        monkeypatch.setattr(engine, "_rank_and_crowd", full_ranking)
        monkeypatch.setattr(engine, "_next_population", full_ranking_survivors)
        reference = evolve(cfg, _small_evaluator, SMALL_MODEL.H, np.random.default_rng(seed))
        assert np.array_equal(swept.genomes, reference.genomes)
        assert np.array_equal(swept.objectives, reference.objectives)

    def test_a_generation_without_children_ranks_every_row(self, monkeypatch):
        import dice_pareto.nsga2 as engine

        cfg = _small_cfg(population_size=4, crossover_fraction=0.0, mutant_fraction=0.0)
        peeled, targets = [], []

        def recording(objectives, target):
            peeled.append(_peel(objectives, target))
            targets.append(target)
            return peeled[-1]

        monkeypatch.setattr(engine, "_peel", recording)
        archive = evolve(cfg, _small_evaluator, SMALL_MODEL.H, np.random.default_rng(3))
        # the initial population's full ranking, one peel per generation, and
        # the archive's peel of front 1
        assert targets == [4] * (cfg.max_iterations + 1) + [1]
        assert all(len(rank) == 4 and rank.min() >= 1 for rank, _, _ in peeled[:-1])
        monkeypatch.setattr(engine, "_rank_and_crowd", full_ranking)
        monkeypatch.setattr(engine, "_next_population", full_ranking_survivors)
        reference = evolve(cfg, _small_evaluator, SMALL_MODEL.H, np.random.default_rng(3))
        assert archive.genomes.tobytes() == reference.genomes.tobytes()
        assert archive.objectives.tobytes() == reference.objectives.tobytes()

    def test_children_follow_the_documented_draw_order(self):
        # replay one generation from the module docstring's contract and
        # compare it with the batch the engine sends to the evaluator
        batches = []

        def recording(genomes):
            batches.append(genomes.copy())
            return _small_evaluator(genomes)

        cfg = _small_cfg(max_iterations=1)  # 8 offspring and 4 mutants of 12
        evolve(cfg, recording, SMALL_MODEL.H, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        genomes = initialize_population(cfg, SMALL_MODEL.H, rng)
        assert np.array_equal(batches[0], genomes)
        objectives = _small_evaluator(genomes)
        rank = non_dominated_sort(objectives)
        crowding = np.zeros(len(rank))
        for front in fronts_of(rank):
            crowding[front] = crowding_distance(objectives[front])
        w = tournament_select(rank, crowding, rng, 12)
        first, second = crossover(genomes[w[0:8:2]], genomes[w[1:8:2]], rng)
        mutants = mutate(genomes[w[8:]], rng, cfg)
        assert np.array_equal(batches[1], np.concatenate((first, second, mutants)))

    def test_elitism_extremes_never_regress(self):
        # a run with m iterations replays the first m generations of a longer
        # run (same seed, fixed draw order), so extremes must be monotone in m
        best_t, best_w = [], []
        for iters in range(6):
            archive = evolve(_small_cfg(max_iterations=iters), _small_evaluator,
                             SMALL_MODEL.H, np.random.default_rng(3))
            rows = archive.objectives
            best_t.append(rows[:, 1].min())
            best_w.append(rows[:, 0].max())
        assert all(a >= b for a, b in zip(best_t, best_t[1:]))
        assert all(a <= b for a, b in zip(best_w, best_w[1:]))

    def test_every_batch_is_read_only_and_a_failure_copies_its_genome(self):
        # an evaluator may keep its batches: no later generation changes them
        batches, seen = [], []

        def keeps_the_batch(genomes):
            batches.append(genomes)
            seen.append(genomes.tobytes())
            if len(batches) == 3:
                raise ModelDomainError("step 0, row 1: boom", row=1)
            return _small_evaluator(genomes)

        with pytest.raises(EngineError) as exc_info:
            evolve(_small_cfg(), keeps_the_batch, SMALL_MODEL.H, np.random.default_rng(3))
        assert [batch.flags.writeable for batch in batches] == [False] * 3
        assert [batch.tobytes() for batch in batches] == seen
        genome = exc_info.value.genome
        assert genome.tobytes() == batches[2][1].tobytes()
        assert not np.shares_memory(genome, batches[2])

    def test_evaluator_failure_carries_offending_genome(self):
        def broken(genomes):
            raise ValueError("boom")

        cfg = _small_cfg(max_iterations=0)
        genomes = initialize_population(cfg, SMALL_MODEL.H, np.random.default_rng(3))
        with pytest.raises(EngineError, match="generation 0, batch row 0: boom") as exc_info:
            evolve(cfg, broken, SMALL_MODEL.H, np.random.default_rng(3))
        assert exc_info.value.genome.tobytes() == genomes[0].tobytes()

    def test_failing_row_names_its_genome(self):
        def fails_at_row_5(genomes):
            raise ModelDomainError("step 2, row 5: boom", row=5)

        cfg = _small_cfg(max_iterations=0)
        genomes = initialize_population(cfg, SMALL_MODEL.H, np.random.default_rng(3))
        with pytest.raises(EngineError, match="row 5: boom") as exc_info:
            evolve(cfg, fails_at_row_5, SMALL_MODEL.H, np.random.default_rng(3))
        assert "generation 0, batch row 5: " in str(exc_info.value)
        assert exc_info.value.genome.tobytes() == genomes[5].tobytes()

    def test_failure_names_its_generation_and_batch_row(self):
        batches = []

        def fails_in_generation_2(genomes):
            batches.append(genomes.copy())
            if len(batches) == 3:
                raise ModelDomainError("step 0, row 1: boom", row=1)
            return _small_evaluator(genomes)

        with pytest.raises(EngineError) as exc_info:
            evolve(_small_cfg(), fails_in_generation_2, SMALL_MODEL.H, np.random.default_rng(3))
        assert str(exc_info.value) == (
            "policy evaluation failed in generation 2, batch row 1: step 0, row 1: boom")
        assert exc_info.value.genome.tobytes() == batches[2][1].tobytes()

    def test_model_domain_error_names_the_first_failing_policy(self):
        # a high backstop price makes theta1 > 1, so abatement costs exceed
        # output and capital turns negative only under strong mitigation
        model = ModelParams(H=6, p_b=20000.0)

        def evaluator(genomes):
            return evaluate_batch(genomes, model)

        cfg = _small_cfg(max_iterations=0)
        genomes = initialize_population(cfg, model.H, np.random.default_rng(3))
        with pytest.raises(EngineError, match="gross output needs positive capital") as exc_info:
            evolve(cfg, evaluator, model.H, np.random.default_rng(3))
        row = exc_info.value.__cause__.row
        assert f"generation 0, batch row {row}: " in str(exc_info.value)
        assert exc_info.value.genome.tobytes() == genomes[row].tobytes()
        # the scalar path agrees: earlier rows score, this one fails
        for genome in genomes[:row]:
            evaluate_policy(PolicyMatrix.from_genome(genome), model)
        with pytest.raises(ModelDomainError, match="gross output"):
            evaluate_policy(PolicyMatrix.from_genome(genomes[row]), model)

    @pytest.mark.parametrize("shape", [(12,), (12, 3), (11, 2)])
    def test_wrongly_shaped_objectives_are_rejected(self, shape):
        cfg = _small_cfg(max_iterations=0)
        with pytest.raises(EngineError, match="evaluator returned shape"):
            evolve(cfg, lambda genomes: np.zeros(shape), SMALL_MODEL.H,
                   np.random.default_rng(3))

    def test_no_offspring_still_runs(self):
        cfg = _small_cfg(crossover_fraction=0.0, mutant_fraction=0.0)
        archive = evolve(cfg, _small_evaluator, SMALL_MODEL.H, np.random.default_rng(3))
        first = evolve(_small_cfg(max_iterations=0), _small_evaluator, SMALL_MODEL.H,
                       np.random.default_rng(3))
        assert np.array_equal(archive.objectives, first.objectives)

    def test_non_finite_objectives_are_rejected_with_the_genome(self):
        def nan_for_high_mitigation(genomes):
            objectives = _small_evaluator(genomes)
            objectives[genomes[:, 0] > 0.5, 0] = np.nan
            return objectives

        cfg = _small_cfg()
        genomes = initialize_population(cfg, SMALL_MODEL.H, np.random.default_rng(3))
        row = np.flatnonzero(genomes[:, 0] > 0.5)[0]
        with pytest.raises(EngineError, match="non-finite objectives") as exc_info:
            evolve(cfg, nan_for_high_mitigation, SMALL_MODEL.H, np.random.default_rng(3))
        assert f"generation 0, batch row {row}: " in str(exc_info.value)
        assert exc_info.value.genome.tobytes() == genomes[row].tobytes()
