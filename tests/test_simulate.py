"""Trajectory-level behavior, including an independent high-precision oracle.

TestAgainstIndependentResimulation checks trajectories against the 40-digit
re-derivation in ``oracle.resimulate``, which shares no code with the
implementation under test.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf
from oracle import resimulate

from dice_pareto import (
    ModelDomainError,
    ModelParams,
    ObjectivePair,
    PolicyMatrix,
    StepDerived,
    Trajectory,
    evaluate_batch,
    evaluate_policy,
    initial_state,
    simulate,
    t_at_max,
    welfare,
)

mp.dps = 40

P = ModelParams()


def constant_policy(mu, s, H=None):
    return PolicyMatrix.constant(mu, s, P.H if H is None else H)


class TestPolicyMatrix:
    def test_clamps_entries_to_unit_interval(self):
        pol = PolicyMatrix(np.array([-0.5, 0.3, 1.7]), np.array([0.1, 2.0, -1.0]))
        assert pol.mu.tolist() == [0.0, 0.3, 1.0]
        assert pol.s.tolist() == [0.1, 1.0, 0.0]

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ModelDomainError):
            PolicyMatrix(np.array([np.nan, 0.5]), np.array([0.1, 0.2]))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ModelDomainError):
            PolicyMatrix(np.zeros(3), np.zeros(4))

    def test_genome_round_trip(self):
        rng = np.random.default_rng(0)
        genome = rng.random(2 * P.H)
        pol = PolicyMatrix.from_genome(genome)
        assert np.array_equal(pol.to_genome(), genome)
        assert pol.horizon == P.H

    def test_arrays_are_immutable(self):
        pol = constant_policy(0.5, 0.5)
        with pytest.raises(ValueError):
            pol.mu[0] = 0.9


class TestTrajectoryShape:
    def test_lengths_and_initial_state(self):
        traj = simulate(constant_policy(0.3, 0.25), P)
        assert len(traj.states) == P.H + 1
        assert len(traj.derived) == P.H
        assert traj.states[0] == initial_state(P)

    def test_zero_horizon_edge(self):
        p0 = ModelParams(H=0)
        traj = simulate(PolicyMatrix(np.zeros(0), np.zeros(0)), p0)
        assert len(traj.states) == 1
        assert len(traj.derived) == 0
        assert welfare(traj) == 0.0
        assert t_at_max(traj) == p0.T_AT0

    def test_horizon_mismatch_is_rejected(self):
        with pytest.raises(ModelDomainError):
            simulate(constant_policy(0.3, 0.25, H=10), P)

    def test_domain_error_reports_step_index(self):
        # g_A > 1 makes the TFP denominator negative on the very first step
        bad = ModelParams(g_A=1.5)
        with pytest.raises(ModelDomainError, match="step 0"):
            simulate(constant_policy(0.3, 0.25), bad)


class TestEvaluateBatch:
    def test_policy_independent_failure_names_the_same_step(self):
        bad = ModelParams(g_A=1.5)  # TFP denominator negative on step 0
        with pytest.raises(ModelDomainError, match="step 0, row 0: TFP") as exc_info:
            evaluate_batch(np.full((3, 2 * P.H), 0.5), bad)
        assert exc_info.value.row == 0

    def test_overflow_is_a_domain_error_without_warnings(self):
        explosive = ModelParams(gamma=1.5)  # output overflows within a few steps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDomainError, match="row 0"):
                evaluate_batch(np.full((2, 2 * P.H), 0.5), explosive)

    # dt = 1e6: emission intensity's exp overflows advancing state 0;
    # gamma = 1.5: K ** gamma overflows in the scalar economy of step 11;
    # dt = 1e4 and rho = 1e3: a discount factor overflows before its step
    @pytest.mark.parametrize("overrides, step", [
        ({"dt": 1e6}, 0), ({"gamma": 1.5}, 11), ({"dt": 1e4}, 5), ({"rho": 1e3}, 21)])
    def test_overflow_fails_both_paths_at_the_same_step(self, overrides, step):
        p = ModelParams(**overrides)
        with pytest.raises(ModelDomainError, match=f"^step {step}: arithmetic overflow"):
            simulate(constant_policy(0.5, 0.2), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDomainError, match=f"^step {step}, row 0: arithmetic overflow"):
                evaluate_batch(np.tile(constant_policy(0.5, 0.2).to_genome(), (3, 1)), p)

    # K < 0: a high backstop price makes abatement cost more than output under
    # strong mitigation; M_AT < 0: the atmosphere box loses more than it holds;
    # C = nan: K ** gamma overflows and inf - inf leaves no consumption
    @pytest.mark.parametrize("overrides, step, row, message", [
        ({"p_b": 20000.0}, 2, 1, "gross output needs positive capital K, got -37.26"),
        ({"zeta11": -1.0}, 1, 0, "atmospheric carbon must be positive, got -7"),
        ({"gamma": 1.5}, 11, 1, "arithmetic overflow: consumption must be positive, got nan"),
    ], ids=["capital", "carbon", "consumption"])
    def test_domain_failure_names_the_step_on_both_ranks(self, overrides, step, row, message):
        p = ModelParams(**overrides)
        failing = constant_policy(0.9, 0.2)
        with pytest.raises(ModelDomainError, match=f"^step {step}: {re.escape(message)}") as exc:
            simulate(failing, p)
        assert exc.value.row is None
        with pytest.raises(ModelDomainError, match=f"^step {step}: {re.escape(message)}"):
            evaluate_policy(failing, p)
        genomes = np.stack([constant_policy(0.0, 0.0).to_genome(), failing.to_genome()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDomainError,
                               match=f"^step {step}, row {row}: {re.escape(message)}") as exc:
                evaluate_batch(genomes, p)
        assert exc.value.row == row

    def test_rates_outside_the_unit_interval_are_clipped(self):
        genomes = np.stack([np.full(2 * P.H, 1.7), np.full(2 * P.H, -0.3)])
        clipped = np.stack([np.ones(2 * P.H), np.zeros(2 * P.H)])
        assert np.array_equal(evaluate_batch(genomes, P), evaluate_batch(clipped, P))

    @pytest.mark.parametrize("shape", [(3, 2 * P.H - 1), (2 * P.H,), (1, 2, 2 * P.H)])
    def test_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ModelDomainError, match=r"\(n, 74\)"):
            evaluate_batch(np.zeros(shape), P)

    def test_non_finite_gene_names_its_row(self):
        genomes = np.full((4, 2 * P.H), 0.5)
        genomes[2, 7] = np.nan
        with pytest.raises(ModelDomainError, match="row 2") as exc_info:
            evaluate_batch(genomes, P)
        assert exc_info.value.row == 2


class TestPurity:
    def test_bit_identical_repetition(self):
        pol = constant_policy(0.42, 0.27)
        a = simulate(pol, P)
        b = simulate(pol, P)
        assert a.states == b.states
        assert a.derived == b.derived

    def test_evaluate_policy_is_deterministic(self):
        pol = constant_policy(0.9, 0.31)
        assert evaluate_policy(pol, P) == evaluate_policy(pol, P)


class TestAccountingIdentities:
    @pytest.mark.parametrize("mu,s", [(0.0, 0.25), (0.5, 0.1), (1.0, 0.9), (0.8, 0.0)])
    def test_net_output_split_and_reduction_factors(self, mu, s):
        traj = simulate(constant_policy(mu, s), P)
        for d in traj.derived:
            assert d.Q == (1.0 - d.Lambda) * d.Omega * d.Y
            assert abs((d.C + d.I) - d.Q) <= 5e-16 * abs(d.Q)
            assert 0.0 < d.Omega <= 1.0
            assert d.Lambda >= 0.0

    def test_extreme_saving_rates(self):
        all_invest = simulate(constant_policy(0.5, 1.0), P)
        assert all(d.C == 0.0 and d.I == d.Q for d in all_invest.derived)
        all_consume = simulate(constant_policy(0.5, 0.0), P)
        assert all(d.I == 0.0 and d.C == d.Q for d in all_consume.derived)

    def test_saving_everything_scores_terribly_but_runs(self):
        starved = evaluate_policy(constant_policy(0.5, 1.0), P)
        normal = evaluate_policy(constant_policy(0.5, 0.25), P)
        assert np.isfinite(starved.W)
        assert starved.W < normal.W


class TestCarbonConservation:
    @pytest.mark.parametrize("seed", [None, 11, 12])
    def test_per_step_mass_balance(self, seed):
        if seed is None:
            pol = constant_policy(0.0, 0.25)
        else:
            rng = np.random.default_rng(seed)
            pol = PolicyMatrix(rng.random(P.H), rng.random(P.H))
        traj = simulate(pol, P)
        for i, d in enumerate(traj.derived):
            before = traj.states[i]
            after = traj.states[i + 1]
            change = (after.M_AT + after.M_UP + after.M_LO) - (
                before.M_AT + before.M_UP + before.M_LO)
            assert abs(change - P.xi2 * d.E * P.dt) <= 1.5e-7 * before.M_LO


class TestStateSequences:
    def test_exogenous_sequences_are_policy_independent(self):
        a = simulate(constant_policy(0.0, 0.1), P)
        b = simulate(constant_policy(1.0, 0.9), P)
        for st_a, st_b in zip(a.states, b.states):
            assert st_a.L == st_b.L
            assert st_a.A == st_b.A
            assert st_a.sigma == st_b.sigma
            assert st_a.E_Land == st_b.E_Land

    def test_intensity_and_land_emissions_decline(self):
        traj = simulate(constant_policy(0.5, 0.25), P)
        sigmas = [st.sigma for st in traj.states]
        lands = [st.E_Land for st in traj.states]
        assert all(a > b > 0 for a, b in zip(sigmas, sigmas[1:]))
        assert all(a > b > 0 for a, b in zip(lands, lands[1:]))
        for i, st in enumerate(traj.states):
            assert st.E_Land == pytest.approx(P.E_L0 * (1 - P.delta_EL) ** i, rel=1e-12)


class TestTemperatureBehavior:
    def test_full_mitigation_peak_band(self):
        assert 2.1 <= t_at_max(simulate(constant_policy(1.0, 0.25), P)) <= 2.7

    def test_no_mitigation_exceeds_four_degrees(self):
        assert t_at_max(simulate(constant_policy(0.0, 0.25), P)) > 4.0

    def test_more_mitigation_never_heats(self):
        rng = np.random.default_rng(123)
        for _ in range(15):
            mu = rng.random(P.H)
            s = rng.random(P.H)
            extra = rng.random(P.H) * (1.0 - mu)
            cooler = evaluate_policy(PolicyMatrix(mu + extra, s), P).T_max
            warmer = evaluate_policy(PolicyMatrix(mu, s), P).T_max
            assert cooler <= warmer + 1e-12

    def test_full_vs_zero_mitigation_via_objectives(self):
        hot = evaluate_policy(constant_policy(0.0, 0.25), P)
        cool = evaluate_policy(constant_policy(1.0, 0.25), P)
        assert cool.T_max < hot.T_max
        assert cool.W < hot.W  # mitigation costs welfare in this model


def _fake_trajectory(temps, utilities):
    base = initial_state(P)
    states = tuple(base._replace(T_AT=t) for t in temps)
    derived = tuple(
        StepDerived(Y=1, Omega=1, Lambda=0, Q=1, I=0, C=1, E=0, F=0, theta1=0, U=u)
        for u in utilities)
    return Trajectory(states=states, derived=derived, params=P)


class TestObjectiveFunctionals:
    def test_peak_of_monotone_sequence_is_final(self):
        traj = _fake_trajectory([0.1, 0.5, 0.9, 1.4], [0.0] * 3)
        assert t_at_max(traj) == 1.4

    def test_peak_of_humped_sequence(self):
        traj = _fake_trajectory([0.85, 1.5, 3.2, 2.9], [0.0] * 3)
        assert t_at_max(traj) == 3.2

    def test_first_term_is_undiscounted(self):
        traj = _fake_trajectory([0.0, 0.0], [7.5])
        assert welfare(traj) == 7.5

    def test_one_step_discount_factor(self):
        oracle = 1 / mpf("1.015") ** 5
        assert float(oracle) == pytest.approx(0.9282603254056394, rel=1e-12)
        traj = _fake_trajectory([0.0] * 3, [0.0, 1.0])
        assert welfare(traj) == pytest.approx(float(oracle), rel=1e-15)

    def test_welfare_is_linear_in_utilities(self):
        utilities = [3.0, -1.0, 2.5, 0.25]
        base = welfare(_fake_trajectory([0.0] * 5, utilities))
        scaled = welfare(_fake_trajectory([0.0] * 5, [4.0 * u for u in utilities]))
        assert scaled == pytest.approx(4.0 * base, rel=1e-14)


class TestAgainstIndependentResimulation:
    """Re-derive a short trajectory from scratch with 40-digit arithmetic."""

    @pytest.mark.parametrize("mu_val,s_val", [(0.4, 0.3), (1.0, 0.25), (0.0, 0.6)])
    def test_states_match_oracle(self, mu_val, s_val):
        H = 10
        p = ModelParams(H=H)
        traj = simulate(constant_policy(mu_val, s_val, H=H), p)
        states, _, _ = resimulate([mu_val] * H, [s_val] * H)
        for i, expected in enumerate(states):
            got = traj.states[i]
            for name, want in expected.items():
                have = getattr(got, name)
                assert have == pytest.approx(want, rel=1e-10), (i, name)

    def test_objectives_match_oracle(self):
        H = 10
        p = ModelParams(H=H)
        pol = constant_policy(0.4, 0.3, H=H)
        got = evaluate_policy(pol, p)

        alpha, rho, dt = mpf("1.45"), mpf("0.015"), mpf(5)
        traj = simulate(pol, p)
        W = mpf(0)
        for i, d in enumerate(traj.derived):
            st = traj.states[i]
            cpc = 1000 * mpf(float(d.C)) / mpf(float(st.L))
            U = mpf(float(st.L)) * (cpc ** (1 - alpha) - 1) / (1 - alpha)
            W += U / (1 + rho) ** (i * dt)
        T = max(mpf(float(st.T_AT)) for st in traj.states)
        assert got.W == pytest.approx(float(W), rel=1e-12)
        assert got.T_max == pytest.approx(float(T), rel=1e-15)

    def test_mutual_nondomination_of_reported_extremes(self):
        # the published best-welfare and best-temperature solutions trade off
        a = ObjectivePair(27.2360, 4.5380)
        f = ObjectivePair(27.1600, 2.3768)
        assert a.W > f.W and a.T_max > f.T_max
