from __future__ import annotations

import pytest

from dice_pareto import ConfigError, ModelParams


def test_reference_constants_are_exact_defaults():
    p = ModelParams()
    assert p.t0 == 2015.0
    assert p.dt == 5.0
    assert p.ell_g == 0.134
    assert p.L_a == 11500.0
    assert p.gamma == 0.3
    assert p.g_A == 0.076
    assert p.delta_A == 0.005
    assert p.delta_K == 0.1
    assert p.theta2 == 2.6
    assert p.p_b == 550.0
    assert p.delta_pb == 0.025
    assert p.psi1 == 0.0
    assert p.psi2 == 0.00236
    assert p.g_sigma == 0.0152
    assert p.delta_sigma == 0.001
    assert p.delta_EL == 0.115
    assert p.E_L0 == 2.6
    assert p.zeta11 == 0.88
    assert p.zeta12 == 0.196
    assert p.zeta21 == 0.12
    assert p.zeta22 == 0.797
    assert p.zeta23 == 0.001465
    assert p.zeta32 == 0.007
    assert p.zeta33 == 0.99853488
    assert p.xi1 == 0.1005
    assert p.xi2 == 3.0 / 11.0
    assert p.phi11 == 0.8718
    assert p.phi12 == 0.0088
    assert p.phi21 == 0.025
    assert p.phi22 == 0.975
    assert p.F_2x == 3.6813
    assert p.M_AT_1750 == 588.0
    assert p.f0 == 0.5
    assert p.f1 == 1.0
    assert p.t_f == 17.0
    assert p.alpha == 1.45
    assert p.rho == 0.015
    assert p.H == 37


def test_initial_conditions_match_dice2016r_release():
    p = ModelParams()
    assert p.L0 == 7403.0
    assert p.A0 == 5.115
    assert p.K0 == 223.0
    assert p.sigma0 == 0.3503
    assert p.M_AT0 == 851.0
    assert p.M_UP0 == 460.0
    assert p.M_LO0 == 1740.0
    assert p.T_AT0 == 0.85
    assert p.T_LO0 == 0.0068


@pytest.mark.parametrize("overrides, field", [
    ({"dt": 0.0}, "dt"),
    ({"dt": -5.0}, "dt"),
    ({"H": -1}, "H"),
    ({"delta_K": 1.5}, "delta_K"),
    ({"delta_pb": -0.1}, "delta_pb"),
    ({"delta_sigma": 2.0}, "delta_sigma"),
    ({"delta_EL": -0.2}, "delta_EL"),
    ({"alpha": 1.0}, "alpha"),
    ({"alpha": -0.5}, "alpha"),
    ({"L_a": 0.0}, "L_a"),
    ({"L0": 0.0}, "L0"),
    ({"K0": -1.0}, "K0"),
    ({"K0": 0.0}, "K0"),
    ({"psi1": -0.1}, "psi1"),
    ({"psi2": -0.5}, "psi2"),
    ({"t_f": 0.0}, "t_f"),
    ({"t_f": -17.0}, "t_f"),
    ({"theta2": 0.0}, "theta2"),
    ({"theta2": -2.6}, "theta2"),
    ({"M_AT_1750": 0.0}, "M_AT_1750"),
    ({"M_AT_1750": -588.0}, "M_AT_1750"),
    ({"rho": -1.0}, "rho"),
    ({"rho": -2.0, "dt": 2.5}, "rho"),
    ({"H": 0}, "H"),
])
def test_invariant_violations_name_the_field(overrides, field):
    with pytest.raises(ConfigError, match=field):
        ModelParams(**overrides)


def test_from_dict_rejects_unknown_keys_by_name():
    with pytest.raises(ConfigError, match="gammaa"):
        ModelParams.from_dict({"gammaa": 0.4})


def test_from_dict_rejects_non_numeric_values():
    with pytest.raises(ConfigError, match="gamma"):
        ModelParams.from_dict({"gamma": "0.3"})
    with pytest.raises(ConfigError, match="gamma"):
        ModelParams.from_dict({"gamma": True})
    with pytest.raises(ConfigError, match="gamma"):
        ModelParams.from_dict({"gamma": float("nan")})
    with pytest.raises(ConfigError, match="H"):
        ModelParams.from_dict({"H": float("inf")})
    with pytest.raises(ConfigError, match="gamma"):
        ModelParams.from_dict({"gamma": 10**400})


def test_from_dict_requires_integer_horizon():
    assert ModelParams.from_dict({"H": 10.0}).H == 10
    with pytest.raises(ConfigError, match="H"):
        ModelParams.from_dict({"H": 10.5})


def test_dict_round_trip():
    p = ModelParams(H=12, T_AT0=1.0)
    q = ModelParams.from_dict(p.to_dict())
    assert q == p


def test_year_mapping():
    p = ModelParams()
    assert p.year(0) == 2015.0
    assert p.year(37) == 2200.0
