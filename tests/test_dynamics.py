"""Single-step dynamics against high-precision oracles and closed forms.

Expected values marked "oracle" are produced by re-evaluating the closed-form
expression with mpmath at 40 significant digits, independently of the float64
implementation.
"""

from __future__ import annotations

import math

import pytest
from mpmath import mp, mpf

from dice_pareto import ModelDomainError, ModelParams
from dice_pareto.model import (
    abatement_fraction,
    damage_factor,
    exogenous_forcing,
    gross_output,
    labour_factor,
    land_emissions,
    mitigation_cost_theta1,
    radiative_forcing,
    step_capital,
    step_carbon,
    step_climate,
    step_emission_intensity,
    step_population,
    step_tfp,
    total_emissions,
    utility,
)

mp.dps = 40

P = ModelParams()


def approx(value, rel=1e-12):
    return pytest.approx(value, rel=rel)


class TestPopulation:
    def test_asymptote_is_exact_fixed_point(self):
        assert step_population(P.L_a, P) == P.L_a

    def test_2015_value_against_oracle(self):
        oracle = ((1 + mpf(11500)) / (1 + mpf(7403))) ** mpf("0.134") * 7403
        assert step_population(7403.0, P) == approx(float(oracle))
        assert float(oracle) == approx(7853.040212046873, rel=1e-12)

    def test_growth_is_monotone_and_bounded(self):
        L = 5000.0
        for _ in range(200):
            nxt = step_population(L, P)
            assert L < nxt < P.L_a
            L = nxt

    def test_rejects_non_positive_population(self):
        with pytest.raises(ModelDomainError):
            step_population(0.0, P)


class TestTfp:
    def test_first_step_against_oracle(self):
        assert step_tfp(5.115, 0, P) == approx(5.115 / 0.924)
        assert 5.115 / 0.924 == approx(5.535714285714286)

    def test_growth_factor_peaks_at_start_and_decays_to_one(self):
        # per-step growth is largest at i = 0, where it equals 1/(1 - g_A)
        peak = 1.0 / (1.0 - P.g_A)
        assert peak == approx(1.0822510822510822)
        assert step_tfp(1.0, 0, P) == approx(peak)
        factors = [step_tfp(1.0, i, P) for i in range(400)]
        assert all(1.0 < f <= peak + 1e-15 for f in factors)
        assert all(a > b for a, b in zip(factors, factors[1:]))
        assert step_tfp(1.0, 100_000, P) == approx(1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ModelDomainError):
            step_tfp(0.0, 0, P)
        with pytest.raises(ModelDomainError):
            step_tfp(1.0, 0, ModelParams(g_A=1.5))


def output(A, K, L):
    return gross_output(A, K, labour_factor(L, P), P)


class TestGrossOutput:
    def test_doubling_productivity_doubles_output(self):
        base = output(1.0, 3.0, 7000.0)
        assert output(2.0, 3.0, 7000.0) == approx(2.0 * base)

    def test_constant_returns_to_scale(self):
        base = output(2.0, 3.0, 7000.0)
        assert output(2.0, 3.0 * 1.7, 7000.0 * 1.7) == approx(1.7 * base)

    def test_identity_at_unit_inputs_with_population_one_billion(self):
        # population enters in billions, so L = 1000 (millions) is the unit input
        assert output(1.0, 1.0, 1000.0) == approx(1.0)

    def test_2015_calibration_is_near_105_trillion(self):
        oracle = mpf("5.115") * mpf(223) ** mpf("0.3") * (mpf(7403) / 1000) ** mpf("0.7")
        y0 = output(P.A0, P.K0, P.L0)
        assert y0 == approx(float(oracle))
        assert 104.0 < y0 < 107.0


class TestDamage:
    def test_no_deviation_no_damage(self):
        assert damage_factor(0.0, P) == 1.0

    def test_three_degrees_costs_about_two_percent(self):
        oracle = 1 / (1 + mpf("0.00236") * 9)
        assert damage_factor(3.0, P) == approx(float(oracle))
        assert 1.0 - damage_factor(3.0, P) == approx(0.0207982452704555, rel=1e-12)

    def test_six_degrees_against_oracle(self):
        oracle = 1 / (1 + mpf("0.00236") * 36)
        assert damage_factor(6.0, P) == approx(float(oracle))
        assert float(oracle) == approx(0.9216929656392862, rel=1e-12)

    def test_strictly_decreasing_for_positive_deviation(self):
        temps = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        factors = [damage_factor(t, P) for t in temps]
        assert all(a > b for a, b in zip(factors, factors[1:]))
        assert all(0.0 < f <= 1.0 for f in factors)


class TestMitigationCost:
    def test_initial_coefficient_against_oracle(self):
        oracle = mpf(550) / (1000 * mpf("2.6")) * mpf("0.3503")
        assert mitigation_cost_theta1(P.sigma0, 0, P) == approx(float(oracle))
        assert float(oracle) == approx(0.07410192307692308, rel=1e-12)

    def test_proportional_to_intensity(self):
        assert mitigation_cost_theta1(0.0, 3, P) == 0.0

    def test_strictly_decreasing_in_time(self):
        values = [mitigation_cost_theta1(0.3, i, P) for i in range(50)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestAbatementFraction:
    def test_endpoints(self):
        assert abatement_fraction(0.0, 0.0741, P) == 0.0
        assert abatement_fraction(1.0, 0.0741, P) == 0.0741

    def test_half_mitigation_against_oracle(self):
        oracle = mpf("0.0741") * mpf("0.5") ** mpf("2.6")
        assert abatement_fraction(0.5, 0.0741, P) == approx(float(oracle))
        assert float(oracle) == approx(0.012221942023533933, rel=1e-12)


class TestCapital:
    def test_pure_depreciation(self):
        assert step_capital(100.0, 0.0, P) == approx(59.049)

    def test_pure_investment(self):
        assert step_capital(0.0, 10.0, P) == approx(50.0)

    def test_constant_investment_fixed_point(self):
        K_star = 10.0 * P.dt / (1.0 - (1.0 - P.delta_K) ** P.dt)
        assert K_star == approx(122.09714048496984, rel=1e-12)
        assert step_capital(K_star, 10.0, P) == approx(K_star)


class TestEmissionIntensity:
    def test_first_step_against_oracle(self):
        oracle = mpf("0.3503") / mp.exp(5 * mpf("0.0152"))
        assert step_emission_intensity(P.sigma0, 0, P) == approx(float(oracle))
        assert float(oracle) == approx(0.3246637171577516, rel=1e-12)

    def test_zero_is_an_equilibrium(self):
        assert step_emission_intensity(0.0, 5, P) == 0.0

    def test_strictly_decreasing_sequence(self):
        sigma = P.sigma0
        for i in range(300):
            nxt = step_emission_intensity(sigma, i, P)
            assert 0.0 < nxt < sigma
            sigma = nxt


class TestLandEmissions:
    def test_base_year(self):
        assert land_emissions(0, P) == 2.6

    def test_first_decay_step(self):
        assert land_emissions(1, P) == approx(2.6 * 0.885)

    def test_geometric_series_sums_to_initial_over_decline_rate(self):
        # closed-form check of the infinite geometric sum from step 0
        partial = sum(land_emissions(i, P) for i in range(3000))
        assert partial == approx(P.E_L0 / P.delta_EL, rel=1e-12)
        assert P.E_L0 / P.delta_EL == approx(22.608695652173914, rel=1e-12)


class TestTotalEmissions:
    def test_full_mitigation_cancels_economic_emissions(self):
        assert total_emissions(0.35, 1.0, 100.0, 2.6) == 2.6

    def test_no_mitigation_value(self):
        assert total_emissions(0.35, 0.0, 100.0, 2.6) == approx(37.6)

    def test_linear_in_output(self):
        e1 = total_emissions(0.3, 0.4, 50.0, 0.0)
        e2 = total_emissions(0.3, 0.4, 100.0, 0.0)
        assert e2 == approx(2.0 * e1)


class TestCarbonCycle:
    def test_preindustrial_equilibrium_of_atmosphere_box(self):
        M_AT, M_UP, M_LO = step_carbon(588.0, 360.0, 1720.0, 0.0, P)
        assert M_AT == approx(588.0)

    def test_transition_column_sums(self):
        assert P.zeta11 + P.zeta21 == approx(1.0, rel=1e-15)
        assert P.zeta12 + P.zeta22 + P.zeta32 == approx(1.0, rel=1e-15)
        assert P.zeta23 + P.zeta33 == approx(0.99999988, rel=1e-15)

    def test_mass_change_equals_scaled_emission_input(self):
        masses = (851.0, 460.0, 1740.0)
        for E in (0.0, 10.0, 36.0):
            out = step_carbon(*masses, E, P)
            change = sum(out) - sum(masses)
            assert abs(change - P.xi2 * E * P.dt) <= 1.5e-7 * masses[2]


class TestForcing:
    def test_exogenous_start(self):
        assert exogenous_forcing(0, P) == 0.5

    def test_exogenous_saturates_exactly_at_ceiling(self):
        for i in range(17, 80):
            assert exogenous_forcing(i, P) == 1.0

    def test_exogenous_ramp_value(self):
        assert exogenous_forcing(8, P) == approx(0.5 + 0.5 * 8 / 17)
        assert 0.5 + 0.5 * 8 / 17 == approx(0.7352941176470589, rel=1e-12)

    def test_exogenous_non_decreasing(self):
        values = [exogenous_forcing(i, P) for i in range(40)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_preindustrial_carbon_gives_exogenous_only(self):
        assert radiative_forcing(588.0, exogenous_forcing(0, P), P) == 0.5

    def test_doubling_gives_reference_forcing_exactly(self):
        assert radiative_forcing(1176.0, exogenous_forcing(17, P), P) == P.F_2x + 1.0

    def test_2015_forcing_against_oracle(self):
        oracle = mpf("3.6813") * mp.log(mpf(851) / 588) / mp.log(2) + mpf("0.5")
        assert radiative_forcing(851.0, exogenous_forcing(0, P), P) == approx(float(oracle))
        assert float(oracle) == approx(2.463395500676426, rel=1e-12)


class TestClimate:
    def test_origin_is_fixed_under_zero_forcing(self):
        assert step_climate(0.0, 0.0, 0.0, P) == (0.0, 0.0)

    def test_first_column_of_transition(self):
        assert step_climate(1.0, 0.0, 0.0, P) == (0.8718, 0.025)

    def test_forcing_input_coefficient(self):
        assert step_climate(0.0, 0.0, 1.0, P) == (0.1005, 0.0)


class TestUtility:
    def test_zero_at_unit_per_capita_consumption(self):
        # cpc = 1000 * C / L = 1 (thousand USD per person)
        assert utility(0.001, 1.0, P) == 0.0

    def test_value_against_oracle(self):
        a = mpf("1.45")
        oracle = (mpf(10) ** (1 - a) - 1) / (1 - a)
        assert utility(0.01, 1.0, P) == approx(float(oracle))
        assert float(oracle) == approx(1.4337480239253879, rel=1e-12)

    def test_strictly_increasing_in_consumption(self):
        values = [utility(c, 7403.0, P) for c in (10.0, 20.0, 40.0, 80.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_population_scaling_at_fixed_per_capita(self):
        # same cpc, double population: utility doubles
        u1 = utility(0.01, 1.0, P)
        u2 = utility(0.02, 2.0, P)
        assert u2 == approx(2.0 * u1)
