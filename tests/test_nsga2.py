"""Engine behavior: domination, sorting, operators, and the evolve loop."""

from __future__ import annotations

import json

import numpy as np
import pytest

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
    dominates,
    evaluate_batch,
    evaluate_policy,
    evolve,
    initialize_population,
    mutate,
    non_dominated_sort,
    tournament_select,
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
    ])
    def test_invalid_settings_name_the_field(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**overrides)

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
        for name in ("tournament_select", "crossover", "mutate"):
            def counted(*args, _name=name, _op=getattr(engine, name)):
                calls.append(_name)
                return _op(*args)
            monkeypatch.setattr(engine, name, counted)
        evolve(_small_cfg(max_iterations=5), _small_evaluator, SMALL_MODEL.H,
               np.random.default_rng(3))
        assert calls == ["tournament_select", "crossover", "mutate"] * 5

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

    def test_evaluator_failure_serializes_offending_genome(self):
        def broken(genomes):
            raise ValueError("boom")

        cfg = _small_cfg(max_iterations=0)
        with pytest.raises(EngineError, match=r"\[0\.") as exc_info:
            evolve(cfg, broken, SMALL_MODEL.H, np.random.default_rng(3))
        assert "boom" in str(exc_info.value)

    def test_failing_row_names_its_genome(self):
        def fails_at_row_5(genomes):
            raise ModelDomainError("step 2, row 5: boom", row=5)

        cfg = _small_cfg(max_iterations=0)
        genomes = initialize_population(cfg, SMALL_MODEL.H, np.random.default_rng(3))
        with pytest.raises(EngineError, match="row 5: boom") as exc_info:
            evolve(cfg, fails_at_row_5, SMALL_MODEL.H, np.random.default_rng(3))
        assert json.dumps(genomes[5].tolist()) in str(exc_info.value)

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
        assert json.dumps(genomes[row].tolist()) in str(exc_info.value)
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
        first_bad = genomes[np.flatnonzero(genomes[:, 0] > 0.5)[0]]
        with pytest.raises(EngineError, match="non-finite objectives") as exc_info:
            evolve(cfg, nan_for_high_mitigation, SMALL_MODEL.H, np.random.default_rng(3))
        assert json.dumps(first_bad.tolist()) in str(exc_info.value)
