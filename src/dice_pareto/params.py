"""DICE-2016R model constants and initial conditions.

All defaults follow the published DICE-2016R calibration. Time is a 5-year
grid starting in 2015; step index i maps to year t0 + i*dt. Monetary units
are trillions of 2010 USD, population is in millions of people, carbon
masses in GtC, emissions in GtCO2 per year, temperatures in degrees C of
deviation relative to 1900.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigError


@dataclass(frozen=True)
class ModelParams:
    # Time grid
    t0: float = 2015.0           # start year
    dt: float = 5.0              # step length, years
    # Population dynamics
    ell_g: float = 0.134         # population convergence exponent
    L_a: float = 11500.0         # asymptotic population, millions
    # Economy
    gamma: float = 0.3           # capital elasticity
    g_A: float = 0.076           # initial TFP growth per step
    delta_A: float = 0.005       # annual decline of TFP growth
    delta_K: float = 0.1         # annual capital depreciation rate
    theta2: float = 2.6          # abatement cost exponent
    p_b: float = 550.0           # backstop price, 2010 USD/tCO2
    delta_pb: float = 0.025      # backstop price decline per step
    psi1: float = 0.0            # linear damage coefficient
    psi2: float = 0.00236        # quadratic damage coefficient
    # Carbon cycle
    g_sigma: float = 0.0152      # initial annual decline of emission intensity
    delta_sigma: float = 0.001   # annual decline of g_sigma
    delta_EL: float = 0.115      # land-use emission decline per step
    E_L0: float = 2.6            # initial land-use emissions, GtCO2/yr
    zeta11: float = 0.88         # carbon transition: atmosphere <- atmosphere
    zeta12: float = 0.196        # carbon transition: atmosphere <- upper ocean
    zeta21: float = 0.12         # carbon transition: upper ocean <- atmosphere
    zeta22: float = 0.797        # carbon transition: upper ocean <- upper ocean
    zeta23: float = 0.001465     # carbon transition: upper ocean <- lower ocean
    zeta32: float = 0.007        # carbon transition: lower ocean <- upper ocean
    zeta33: float = 0.99853488   # carbon transition: lower ocean <- lower ocean
    xi1: float = 0.1005          # forcing-to-temperature input coefficient
    xi2: float = 3.0 / 11.0      # emission-to-carbon-mass conversion, GtC/GtCO2
    # Climate
    phi11: float = 0.8718        # temperature transition: atmosphere <- atmosphere
    phi12: float = 0.0088        # temperature transition: atmosphere <- lower ocean
    phi21: float = 0.025         # temperature transition: lower ocean <- atmosphere
    phi22: float = 0.975         # temperature transition: lower ocean <- lower ocean
    F_2x: float = 3.6813         # forcing at CO2 doubling, W/m^2
    M_AT_1750: float = 588.0     # pre-industrial atmospheric carbon, GtC
    f0: float = 0.5              # exogenous forcing in 2015, W/m^2
    f1: float = 1.0              # exogenous forcing ceiling, W/m^2
    t_f: float = 17.0            # steps until the exogenous forcing ceiling
    # Preferences
    alpha: float = 1.45          # elasticity of marginal utility of consumption
    rho: float = 0.015           # annual discount rate
    # Horizon
    H: int = 37                  # number of 5-year steps (2015..2200)
    # Initial state (2015), from the published DICE-2016R release
    L0: float = 7403.0           # millions of people
    A0: float = 5.115            # total factor productivity
    K0: float = 223.0            # trillions 2010 USD
    sigma0: float = 0.3503       # tCO2 per 1000 USD of gross output
    M_AT0: float = 851.0         # GtC
    M_UP0: float = 460.0         # GtC
    M_LO0: float = 1740.0        # GtC
    T_AT0: float = 0.85          # deg C vs 1900
    T_LO0: float = 0.0068        # deg C vs 1900

    def __post_init__(self) -> None:
        _require(self, "be positive", lambda v: v > 0, "dt")
        # a run needs at least one step to score: W and T_max of no step are constants
        _require(self, "be a positive integer", lambda v: isinstance(v, int) and v >= 1, "H")
        _require(self, "lie in [0, 1]", lambda v: 0.0 <= v <= 1.0,
                 "delta_K", "delta_pb", "delta_sigma", "delta_EL")
        # a discount factor (1 + rho) ** (i * dt) must be real and positive
        _require(self, "be greater than -1", lambda v: v > -1.0, "rho")
        _require(self, "be >= 0 and != 1", lambda v: not (v < 0 or v == 1.0), "alpha")
        # L_a bounds the population; the forcing ramp divides by t_f, the
        # mitigation cost by theta2, and forcing takes log2(M_AT / M_AT_1750);
        # gross output needs K > 0 from step 0 on
        _require(self, "be positive", lambda v: v > 0, "L_a", "t_f", "theta2", "M_AT_1750",
                 "L0", "A0", "K0", "sigma0", "M_AT0", "M_UP0", "M_LO0")
        # a negative damage coefficient can push the damage factor past 1 or
        # through a pole, and every policy then fails inside the model
        _require(self, "be non-negative", lambda v: v >= 0, "psi1", "psi2")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ModelParams":
        """Build params from a key-value mapping; unknown keys are rejected."""
        return cls(**_checked_fields(cls, data, "model"))

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def year(self, i: int) -> float:
        """Calendar year of step index i."""
        return self.t0 + i * self.dt


def _checked_fields(cls: type, data: dict[str, Any], section: str) -> dict[str, Any]:
    """Validate a config mapping against a dataclass: strict keys, numeric coercion."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a mapping, got {type(data).__name__}")
    read = {f.name: _integer if f.type in ("int", int) else _number
            for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(read))
    if unknown:
        raise ConfigError(f"unknown key(s) in section '{section}': {', '.join(unknown)}")
    return {key: read[key](value, f"{section}.{key}") for key, value in data.items()}


def _require(settings: Any, rule: str, holds: Callable[[Any], bool], *names: str) -> None:
    """Raise a ConfigError "<name> must <rule>, got <value>" for the first of
    ``names`` whose value on ``settings`` fails ``holds``."""
    for name in names:
        value = getattr(settings, name)
        if not holds(value):
            raise ConfigError(f"{name} must {rule}, got {value!r}")


def _integer(value: Any, where: str) -> int:
    """A config value as an int: one read by ``_number`` that is an int, kept
    as given beyond 2**53 where a float cannot hold it, or a whole float."""
    number = _number(value, where)
    if not (isinstance(value, int) or number.is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _number(value: Any, where: str) -> float:
    """A config value as a float: a finite JSON number, so booleans, strings,
    NaN, infinities and integers beyond the float range fail with a
    ConfigError naming ``where``."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where} must be a finite number, got {value!r}")
