"""DICE-2016R dynamics, trajectory simulation, and the two control objectives.

Everything here is a pure function of its arguments: identical inputs give
bit-identical outputs. Step indices are 0-based; step i covers year t0 + i*dt.

A policy is a pair of control sequences over the horizon H:

* mu(i) in [0, 1] - mitigation rate, scales down emissions from economic
  activity (mu = 1 cancels them entirely);
* s(i)  in [0, 1] - saving rate, splits net output between investment and
  consumption.

The two objectives are social welfare W (discounted sum of population-
weighted isoelastic utility of per-capita consumption, to be maximized) and
the peak atmospheric temperature deviation T_AT,max over the horizon (to be
minimized).

Two paths run the recursion. ``simulate`` / ``evaluate_policy`` advance one
policy on Python floats and keep the whole trajectory; they are the n = 1
path (``cli simulate``, representatives) and the reference the batch is
tested against. ``evaluate_batch`` scores an (n, 2H) table of genomes at
once, each dynamic state a length-n array, and is what the search calls once
per generation. Both read the policy-independent paths (population, TFP,
emission intensity, land-use emissions, and the per-step terms built from
them) from one cache keyed on the frozen ``ModelParams``, filled on first
use with the scalar step functions below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ModelDomainError
from .params import ModelParams

# Consumption is floored here (trillions/yr) before the utility evaluation so
# that s = 1, which the search space can represent, scores terribly instead of
# crashing.
CONSUMPTION_FLOOR = 1e-6


class SimState(NamedTuple):
    """The ten dynamic state variables at one time step."""

    L: float        # population, millions
    A: float        # total factor productivity
    K: float        # capital, trillions 2010 USD
    sigma: float    # emission intensity of gross output
    E_Land: float   # land-use emissions, GtCO2/yr
    M_AT: float     # atmospheric carbon, GtC
    M_UP: float     # upper-ocean carbon, GtC
    M_LO: float     # lower-ocean carbon, GtC
    T_AT: float     # atmospheric temperature deviation, deg C
    T_LO: float     # lower-ocean temperature deviation, deg C


class StepDerived(NamedTuple):
    """Per-step derived quantities; defined for steps 0..H-1."""

    Y: float        # gross output, trillions/yr
    Omega: float    # climate damage factor in (0, 1]
    Lambda: float   # abatement cost fraction of gross output
    Q: float        # net output, trillions/yr
    I: float        # investment, trillions/yr
    C: float        # consumption, trillions/yr
    E: float        # total emissions, GtCO2/yr
    F: float        # radiative forcing, W/m^2
    theta1: float   # mitigation cost coefficient
    U: float        # undiscounted utility contribution


class ObjectivePair(NamedTuple):
    """Social welfare (maximize) and peak temperature deviation (minimize)."""

    W: float
    T_max: float


@dataclass(frozen=True)
class PolicyMatrix:
    """Control trajectory: H mitigation rates and H saving rates, each in [0, 1]."""

    mu: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if mu.ndim != 1 or s.ndim != 1 or mu.shape != s.shape:
            raise ModelDomainError("mu and s must be 1-d sequences of equal length")
        if not (np.isfinite(mu).all() and np.isfinite(s).all()):
            raise ModelDomainError("policy entries must be finite")
        mu = np.clip(mu, 0.0, 1.0)
        s = np.clip(s, 0.0, 1.0)
        mu.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "s", s)

    @property
    def horizon(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def constant(cls, mu: float, s: float, H: int) -> "PolicyMatrix":
        """Policy holding both control inputs constant over the horizon."""
        return cls(np.full(H, float(mu)), np.full(H, float(s)))

    @classmethod
    def from_genome(cls, genome: np.ndarray) -> "PolicyMatrix":
        """Split a flat vector of 2H genes into the mu row and the s row."""
        genome = np.asarray(genome, dtype=float)
        if genome.ndim != 1 or genome.shape[0] % 2 != 0:
            raise ModelDomainError("genome must be a flat vector of even length")
        H = genome.shape[0] // 2
        return cls(genome[:H].copy(), genome[H:].copy())

    def to_genome(self) -> np.ndarray:
        return np.concatenate([self.mu, self.s])


@dataclass(frozen=True)
class Trajectory:
    """H+1 states (indices 0..H) plus the H per-step derived records."""

    states: tuple[SimState, ...]
    derived: tuple[StepDerived, ...]
    params: ModelParams


def initial_state(p: ModelParams) -> SimState:
    """State at step 0 (year t0), from the configured initial conditions."""
    return SimState(
        L=p.L0, A=p.A0, K=p.K0, sigma=p.sigma0, E_Land=p.E_L0,
        M_AT=p.M_AT0, M_UP=p.M_UP0, M_LO=p.M_LO0, T_AT=p.T_AT0, T_LO=p.T_LO0,
    )


def step_population(L: float, p: ModelParams) -> float:
    """Advance population one step; L_a is a fixed point and an upper bound."""
    if not L > 0:
        raise ModelDomainError(f"population must be positive, got {L}")
    return ((1.0 + p.L_a) / (1.0 + L)) ** p.ell_g * L


def step_tfp(A: float, i: int, p: ModelParams) -> float:
    """Advance total factor productivity; per-step growth tends to 1/(1-g_A)."""
    if not A > 0:
        raise ModelDomainError(f"TFP must be positive, got {A}")
    denom = 1.0 - p.g_A * math.exp(-p.delta_A * i * p.dt)
    if not denom > 0:
        raise ModelDomainError(f"TFP growth denominator non-positive at step {i}")
    return A / denom


def gross_output(A: float, K: float, L: float, p: ModelParams) -> float:
    """Cobb-Douglas gross output in trillions/yr.

    Population enters in billions (L/1000, with L in millions): the standard
    DICE-2016R calibration of A is built around that scaling and keeps output
    near 105 trillion USD/yr in 2015.
    """
    if not (A > 0 and K > 0 and L > 0):
        raise ModelDomainError(f"gross output needs positive A, K, L; got {A}, {K}, {L}")
    return A * K**p.gamma * labour_factor(L, p)


def labour_factor(L: float, p: ModelParams) -> float:
    """Labour input of gross output, (L/1000) ** (1 - gamma), with L in millions."""
    return (L / 1000.0) ** (1.0 - p.gamma)


def damage_factor(T_AT: float, p: ModelParams) -> float:
    """Multiplicative output-loss factor from temperature deviation, in (0, 1]."""
    return 1.0 / (1.0 + p.psi1 * T_AT + p.psi2 * T_AT * T_AT)


def mitigation_cost_theta1(sigma: float, i: int, p: ModelParams) -> float:
    """Cost coefficient of mitigation effort; declines with the backstop price."""
    return (p.p_b / (1000.0 * p.theta2)) * (1.0 - p.delta_pb) ** i * sigma


def abatement_fraction(mu: float, theta1: float, p: ModelParams) -> float:
    """Share of gross output spent on mitigation: theta1 * mu ** theta2."""
    if not 0.0 <= mu <= 1.0:
        raise ModelDomainError(f"mitigation rate must lie in [0, 1], got {mu}")
    return theta1 * mu**p.theta2


def step_capital(K: float, I: float, p: ModelParams) -> float:
    """Advance capital: depreciate over dt years and add the invested flow."""
    return (1.0 - p.delta_K) ** p.dt * K + I * p.dt


def step_emission_intensity(sigma: float, i: int, p: ModelParams) -> float:
    """Advance emission intensity; strictly decreasing toward 0 for sigma > 0."""
    return sigma / math.exp(p.dt * p.g_sigma * (1.0 - p.delta_sigma) ** (i * p.dt))


def land_emissions(i: int, p: ModelParams) -> float:
    """Land-use emissions at step i, a decaying geometric sequence."""
    return p.E_L0 * (1.0 - p.delta_EL) ** i


def total_emissions(sigma: float, mu: float, Y: float, E_Land: float) -> float:
    """Emissions from economic activity, scaled down by mitigation, plus land use."""
    if not 0.0 <= mu <= 1.0:
        raise ModelDomainError(f"mitigation rate must lie in [0, 1], got {mu}")
    return sigma * (1.0 - mu) * Y + E_Land


def step_carbon(
    M_AT: float, M_UP: float, M_LO: float, E: float, p: ModelParams
) -> tuple[float, float, float]:
    """Advance the three carbon reservoirs.

    Emissions enter the atmosphere box only, as xi2 * E * dt: E is a rate in
    GtCO2/yr accumulated over the dt-year step and converted to GtC.
    """
    M_AT1 = p.zeta11 * M_AT + p.zeta12 * M_UP + p.xi2 * E * p.dt
    M_UP1 = p.zeta21 * M_AT + p.zeta22 * M_UP + p.zeta23 * M_LO
    M_LO1 = p.zeta32 * M_UP + p.zeta33 * M_LO
    return M_AT1, M_UP1, M_LO1


def exogenous_forcing(i: int, p: ModelParams) -> float:
    """Non-CO2 forcing: ramps from f0 to f1 over t_f steps, then stays at f1."""
    return p.f0 + min((p.f1 - p.f0) * i / p.t_f, p.f1 - p.f0)


def radiative_forcing(M_AT: float, i: int, p: ModelParams) -> float:
    """Total forcing: logarithmic in atmospheric carbon plus the exogenous term."""
    if not M_AT > 0:
        raise ModelDomainError(f"atmospheric carbon must be positive, got {M_AT}")
    return p.F_2x * math.log2(M_AT / p.M_AT_1750) + exogenous_forcing(i, p)


def step_climate(T_AT: float, T_LO: float, F: float, p: ModelParams) -> tuple[float, float]:
    """Advance the two temperature states; forcing acts on the atmosphere only."""
    T_AT1 = p.phi11 * T_AT + p.phi12 * T_LO + p.xi1 * F
    T_LO1 = p.phi21 * T_AT + p.phi22 * T_LO
    return T_AT1, T_LO1


def utility(C: float, L: float, p: ModelParams) -> float:
    """Population-weighted isoelastic utility of per-capita consumption.

    Per-capita consumption is expressed in thousands of 2010 USD per person
    per year (C in trillions, L in millions).
    """
    if not C > 0:
        raise ModelDomainError(f"consumption must be positive, got {C}")
    if not L > 0:
        raise ModelDomainError(f"population must be positive, got {L}")
    cpc = 1000.0 * C / L
    return L * (cpc ** (1.0 - p.alpha) - 1.0) / (1.0 - p.alpha)


def discount_factor(i: int, p: ModelParams) -> float:
    """Divisor of step i's utility in the welfare sum: (1 + rho) ** (i * dt)."""
    return (1.0 + p.rho) ** (i * p.dt)


def economy_step(state: SimState, mu: float, s: float, i: int, p: ModelParams) -> StepDerived:
    """All derived quantities of step i in one pass.

    C = Q - I by construction, so consumption plus investment reconstructs
    net output to the last bit.
    """
    if not 0.0 <= s <= 1.0:
        raise ModelDomainError(f"saving rate must lie in [0, 1], got {s}")
    Y = gross_output(state.A, state.K, state.L, p)
    Omega = damage_factor(state.T_AT, p)
    theta1 = mitigation_cost_theta1(state.sigma, i, p)
    Lambda = abatement_fraction(mu, theta1, p)
    Q = (1.0 - Lambda) * Omega * Y
    I = s * Q
    C = Q - I
    E = total_emissions(state.sigma, mu, Y, state.E_Land)
    F = radiative_forcing(state.M_AT, i, p)
    U = utility(max(C, CONSUMPTION_FLOOR), state.L, p)
    return StepDerived(Y=Y, Omega=Omega, Lambda=Lambda, Q=Q, I=I, C=C,
                       E=E, F=F, theta1=theta1, U=U)


class _Exogenous(NamedTuple):
    """The policy-independent paths of one ``ModelParams``.

    State paths hold indices 0..H and step paths 0..H-1. When advancing the
    exogenous states past state k fails, the state paths stop at k, the step
    paths at step k, and ``failure`` holds the error message: a simulation
    then fails at step k once that step's economy has been computed, just
    where the one-step-at-a-time recursion would fail.
    """

    L: tuple[float, ...]
    A: tuple[float, ...]
    sigma: tuple[float, ...]
    E_Land: tuple[float, ...]
    theta1: tuple[float, ...]
    labour: tuple[float, ...]     # labour_factor(L)
    forcing: tuple[float, ...]    # exogenous_forcing
    discount: tuple[float, ...]   # discount_factor
    failure: str | None


@functools.lru_cache(maxsize=16)
def _exogenous(p: ModelParams) -> _Exogenous:
    """Compute, once per parameter set, every path the policy cannot move."""
    L, A, sigma, E_Land = [p.L0], [p.A0], [p.sigma0], [p.E_L0]
    failure = None
    for i in range(p.H):
        try:
            advanced = (step_population(L[i], p), step_tfp(A[i], i, p),
                        step_emission_intensity(sigma[i], i, p), land_emissions(i + 1, p))
        except ModelDomainError as exc:
            failure = str(exc)
            break
        for path, value in zip((L, A, sigma, E_Land), advanced):
            path.append(value)
    steps = range(min(len(L), p.H))
    return _Exogenous(
        L=tuple(L), A=tuple(A), sigma=tuple(sigma), E_Land=tuple(E_Land),
        theta1=tuple(mitigation_cost_theta1(sigma[i], i, p) for i in steps),
        labour=tuple(labour_factor(L[i], p) for i in steps),
        forcing=tuple(exogenous_forcing(i, p) for i in steps),
        discount=tuple(discount_factor(i, p) for i in steps),
        failure=failure,
    )


def simulate(policy: PolicyMatrix, p: ModelParams) -> Trajectory:
    """Run the closed-loop dynamics over the horizon.

    Returns H+1 states and H derived records. Pure: repeated calls with the
    same inputs give bit-identical trajectories.
    """
    if policy.horizon != p.H:
        raise ModelDomainError(
            f"policy horizon {policy.horizon} does not match configured H = {p.H}"
        )
    ex = _exogenous(p)
    # plain Python floats keep the scalar recursion off numpy's slower
    # scalar path; the arithmetic is bit-identical either way
    mu = policy.mu.tolist()
    s = policy.s.tolist()
    states = [initial_state(p)]
    derived: list[StepDerived] = []
    st = states[0]
    for i in range(p.H):
        try:
            d = economy_step(st, mu[i], s[i], i, p)
            if i + 1 == len(ex.L):
                raise ModelDomainError(ex.failure)
        except ModelDomainError as exc:
            raise ModelDomainError(f"step {i}: {exc}") from exc
        M_AT, M_UP, M_LO = step_carbon(st.M_AT, st.M_UP, st.M_LO, d.E, p)
        T_AT, T_LO = step_climate(st.T_AT, st.T_LO, d.F, p)
        st = SimState(
            L=ex.L[i + 1], A=ex.A[i + 1], K=step_capital(st.K, d.I, p),
            sigma=ex.sigma[i + 1], E_Land=ex.E_Land[i + 1],
            M_AT=M_AT, M_UP=M_UP, M_LO=M_LO, T_AT=T_AT, T_LO=T_LO,
        )
        derived.append(d)
        states.append(st)
    return Trajectory(states=tuple(states), derived=tuple(derived), params=p)


def welfare(traj: Trajectory, p: ModelParams | None = None) -> float:
    """Discounted utility sum over steps 0..H-1 (horizon-truncated)."""
    if p is None:
        p = traj.params
    total = 0.0
    for i, d in enumerate(traj.derived):
        total += d.U / discount_factor(i, p)
    return total


def t_at_max(traj: Trajectory) -> float:
    """Peak atmospheric temperature deviation over states 0..H."""
    return max(st.T_AT for st in traj.states)


def evaluate_policy(policy: PolicyMatrix, p: ModelParams) -> ObjectivePair:
    """Simulate a policy and score it: (welfare, peak temperature deviation)."""
    traj = simulate(policy, p)
    return ObjectivePair(W=welfare(traj, p), T_max=t_at_max(traj))


def _require(ok: np.ndarray, step: int, message: str, values: np.ndarray) -> None:
    """Raise for the first row where ``ok`` is False, naming the step, the row
    and that row's value."""
    if not ok.all():
        row = int(np.argmin(ok))
        raise ModelDomainError(f"step {step}, row {row}: {message}, got {values[row]}",
                               row=row)


# Overflow and invalid operations give inf/nan without a warning: a nan in K,
# M_AT or C fails its domain check, and the engine rejects rows whose
# objectives are not finite.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def evaluate_batch(genomes: np.ndarray, p: ModelParams) -> np.ndarray:
    """Score n policies at once: (n, 2H) genomes to an (n, 2) table of (W, T_max).

    Row k scores like ``evaluate_policy(PolicyMatrix.from_genome(genomes[k]), p)``:
    genes are clipped to [0, 1], and each step repeats the scalar path's
    operations term by term on length-n arrays. The two agree to a few ulps,
    not bitwise, because numpy's vectorised ``power`` and ``log2`` may round
    the last bit differently from the C library. A domain failure raises
    ``ModelDomainError`` naming the step and the first failing row, which it
    also carries as ``exc.row``.
    """
    genomes = np.asarray(genomes, dtype=float)
    H = p.H
    if genomes.ndim != 2 or genomes.shape[1] != 2 * H:
        raise ModelDomainError(
            f"genomes must form an (n, 2H) = (n, {2 * H}) table, got shape {genomes.shape}")
    finite = np.isfinite(genomes).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ModelDomainError(f"row {row}: policy entries must be finite", row=row)
    n = len(genomes)
    if n == 0:
        return np.empty((0, 2))
    ex = _exogenous(p)
    steps = len(ex.theta1)
    # policy terms of every step at once, one row per step
    mu = np.clip(genomes[:, :steps].T, 0.0, 1.0)
    s = np.clip(genomes[:, H:H + steps].T, 0.0, 1.0)
    kept = 1.0 - np.array(ex.theta1)[:, None] * mu**p.theta2   # 1 - Lambda
    emitting = np.array(ex.sigma[:steps])[:, None] * (1.0 - mu)

    K = np.full(n, p.K0)
    M_AT, M_UP, M_LO = np.full(n, p.M_AT0), np.full(n, p.M_UP0), np.full(n, p.M_LO0)
    T_AT, T_LO = np.full(n, p.T_AT0), np.full(n, p.T_LO0)
    W = np.zeros(n)
    T_max = T_AT.copy()
    for i in range(steps):
        _require(K > 0, i, "gross output needs positive capital K", K)
        Y = ex.A[i] * K**p.gamma * ex.labour[i]
        Q = kept[i] * damage_factor(T_AT, p) * Y
        I = s[i] * Q
        E = emitting[i] * Y + ex.E_Land[i]
        _require(M_AT > 0, i, "atmospheric carbon must be positive", M_AT)
        F = p.F_2x * np.log2(M_AT / p.M_AT_1750) + ex.forcing[i]
        C = np.maximum(Q - I, CONSUMPTION_FLOOR)
        _require(C > 0, i, "consumption must be positive", C)
        cpc = 1000.0 * C / ex.L[i]
        W += ex.L[i] * (cpc ** (1.0 - p.alpha) - 1.0) / (1.0 - p.alpha) / ex.discount[i]
        if i + 1 == len(ex.L):
            raise ModelDomainError(f"step {i}, row 0: {ex.failure}", row=0)
        M_AT, M_UP, M_LO = step_carbon(M_AT, M_UP, M_LO, E, p)
        T_AT, T_LO = step_climate(T_AT, T_LO, F, p)
        K = step_capital(K, I, p)
        np.maximum(T_max, T_AT, out=T_max)
    return np.column_stack((W, T_max))
