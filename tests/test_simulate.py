"""Trajectory-level behavior, including an independent high-precision oracle.

The oracle in TestAgainstIndependentResimulation restates every constant
literally and advances the full state recursion with mpmath at 40 digits,
sharing no code with the implementation under test.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from dice_pareto import (
    ModelDomainError,
    ModelParams,
    ObjectivePair,
    PolicyMatrix,
    SimState,
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
            with pytest.raises(ModelDomainError, match=f"^step {step}, row 0: "):
                evaluate_batch(np.tile(constant_policy(0.5, 0.2).to_genome(), (3, 1)), p)

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

        # constants restated literally, independent of the params module
        ell_g, L_a = mpf("0.134"), mpf(11500)
        gamma, g_A, delta_A = mpf("0.3"), mpf("0.076"), mpf("0.005")
        delta_K, theta2 = mpf("0.1"), mpf("2.6")
        p_b, delta_pb = mpf(550), mpf("0.025")
        psi2 = mpf("0.00236")
        g_sigma, delta_sigma = mpf("0.0152"), mpf("0.001")
        delta_EL, E_L0 = mpf("0.115"), mpf("2.6")
        xi1, xi2 = mpf("0.1005"), mpf(3) / 11
        F_2x, M1750 = mpf("3.6813"), mpf(588)
        f0, f1, t_f = mpf("0.5"), mpf(1), mpf(17)
        dt = mpf(5)
        mu, s = mpf(repr(mu_val)), mpf(repr(s_val))

        L, A, K = mpf(7403), mpf("5.115"), mpf(223)
        sigma, E_Land = mpf("0.3503"), mpf("2.6")
        M_AT, M_UP, M_LO = mpf(851), mpf(460), mpf(1740)
        T_AT, T_LO = mpf("0.85"), mpf("0.0068")

        for i in range(H):
            Y = A * K**gamma * (L / 1000) ** (1 - gamma)
            Omega = 1 / (1 + psi2 * T_AT**2)
            theta1 = p_b / (1000 * theta2) * (1 - delta_pb) ** i * sigma
            Q = (1 - theta1 * mu**theta2) * Omega * Y
            I = s * Q
            E = sigma * (1 - mu) * Y + E_Land
            F = F_2x * mp.log(M_AT / M1750) / mp.log(2) + f0 + min(
                (f1 - f0) * i / t_f, f1 - f0)
            L = ((1 + L_a) / (1 + L)) ** ell_g * L
            A = A / (1 - g_A * mp.exp(-delta_A * i * dt))
            K = (1 - delta_K) ** dt * K + I * dt
            sigma = sigma / mp.exp(dt * g_sigma * (1 - delta_sigma) ** (i * dt))
            E_Land = E_L0 * (1 - delta_EL) ** (i + 1)
            M_AT, M_UP, M_LO = (
                mpf("0.88") * M_AT + mpf("0.196") * M_UP + xi2 * E * dt,
                mpf("0.12") * M_AT + mpf("0.797") * M_UP + mpf("0.001465") * M_LO,
                mpf("0.007") * M_UP + mpf("0.99853488") * M_LO,
            )
            T_AT, T_LO = (
                mpf("0.8718") * T_AT + mpf("0.0088") * T_LO + xi1 * F,
                mpf("0.025") * T_AT + mpf("0.975") * T_LO,
            )
            got = traj.states[i + 1]
            expected = SimState(
                L=float(L), A=float(A), K=float(K), sigma=float(sigma),
                E_Land=float(E_Land), M_AT=float(M_AT), M_UP=float(M_UP),
                M_LO=float(M_LO), T_AT=float(T_AT), T_LO=float(T_LO))
            for name, want in expected._asdict().items():
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
