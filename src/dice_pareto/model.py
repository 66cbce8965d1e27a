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

The policy recursion is written once, in ``_recursion``, and numpy
broadcasting runs it on either rank: one genome (2H,) advances numpy-scalar
states, an (n, 2H) table advances length-n arrays. ``simulate`` and
``evaluate_policy`` run it on one policy (``cli simulate``, representatives);
``evaluate_batch`` runs it on the whole population, once per generation. The
per-step kernels below take floats or arrays alike and never raise: the
recursion checks K > 0, M_AT > 0 and C > 0 for every step and row after its
loop, and names the first failure. The policy-independent paths (population,
TFP, emission intensity, land-use emissions, and the per-step terms built
from them) come from one cache keyed on the frozen ``ModelParams``, filled on
first use with the scalar step functions below.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

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


def gross_output(A: float, K: float, labour: float, p: ModelParams) -> float:
    """Cobb-Douglas gross output in trillions/yr; ``labour`` is ``labour_factor(L, p)``."""
    return A * K**p.gamma * labour


def labour_factor(L: float, p: ModelParams) -> float:
    """Labour input of gross output, (L/1000) ** (1 - gamma), with L in millions.

    Population enters in billions: the standard DICE-2016R calibration of A is
    built around that scaling and keeps output near 105 trillion USD/yr in 2015.
    """
    return (L / 1000.0) ** (1.0 - p.gamma)


def damage_factor(T_AT: float, p: ModelParams) -> float:
    """Multiplicative output-loss factor from temperature deviation, in (0, 1]."""
    return 1.0 / (1.0 + p.psi1 * T_AT + p.psi2 * T_AT * T_AT)


def mitigation_cost_theta1(sigma: float, i: int, p: ModelParams) -> float:
    """Cost coefficient of mitigation effort; declines with the backstop price."""
    return (p.p_b / (1000.0 * p.theta2)) * (1.0 - p.delta_pb) ** i * sigma


def abatement_fraction(mu: float, theta1: float, p: ModelParams) -> float:
    """Share of gross output spent on mitigation: theta1 * mu ** theta2."""
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


def radiative_forcing(M_AT: float, exogenous: float, p: ModelParams) -> float:
    """Total forcing: logarithmic in atmospheric carbon plus the exogenous term
    ``exogenous_forcing(i, p)``."""
    return p.F_2x * np.log2(M_AT / p.M_AT_1750) + exogenous


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
    cpc = 1000.0 * C / L
    return L * (cpc ** (1.0 - p.alpha) - 1.0) / (1.0 - p.alpha)


def discount_factor(i: int, p: ModelParams) -> float:
    """Divisor of step i's utility in the welfare sum: (1 + rho) ** (i * dt)."""
    return (1.0 + p.rho) ** (i * p.dt)


class _Exogenous(NamedTuple):
    """The policy-independent paths of one ``ModelParams``.

    State paths hold indices 0..H and step paths 0..H-1. When step k fails
    (its terms or advancing the exogenous states past state k), the state
    paths stop at k, the step paths hold step k only if its terms were
    computed, and ``failure`` holds the error message. The recursion then
    fails at step k, after that step's economy where it could be computed,
    just where a one-step-at-a-time recursion would fail.
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
    terms = []  # (theta1, labour, forcing, discount) of each step
    failure = None
    for i in range(p.H):
        try:
            terms.append((mitigation_cost_theta1(sigma[i], i, p), labour_factor(L[i], p),
                          exogenous_forcing(i, p), discount_factor(i, p)))
            advanced = (step_population(L[i], p), step_tfp(A[i], i, p),
                        step_emission_intensity(sigma[i], i, p), land_emissions(i + 1, p))
        except ModelDomainError as exc:
            failure = str(exc)
            break
        except OverflowError as exc:  # a float overflow counts as a domain error
            failure = f"arithmetic overflow: {exc}"
            break
        for path, value in zip((L, A, sigma, E_Land), advanced):
            path.append(value)
    theta1, labour, forcing, discount = tuple(zip(*terms)) or ((),) * 4
    return _Exogenous(
        L=tuple(L), A=tuple(A), sigma=tuple(sigma), E_Land=tuple(E_Land), theta1=theta1,
        labour=labour, forcing=forcing, discount=discount, failure=failure,
    )


# what the recursion checks for every step, in this order: K, M_AT and C
_CHECKS = ("gross output needs positive capital K", "atmospheric carbon must be positive",
           "consumption must be positive")


def _fail(step: int, row: int | None, message: str) -> NoReturn:
    """Raise a domain error naming the step and, for a table, the row."""
    where = f"step {step}" if row is None else f"step {step}, row {row}"
    raise ModelDomainError(f"{where}: {message}", row=row)


class _Run(NamedTuple):
    """One pass of the recursion: the objectives and each step's values."""

    W: np.ndarray
    T_max: np.ndarray
    states: list[tuple]  # states 0..H: K, M_AT, M_UP, M_LO, T_AT, T_LO
    flows: list[tuple]   # steps 0..H-1: Y, Omega, Q, I, C, E, F
    Lambda: np.ndarray   # steps 0..H-1, one row per step
    U: np.ndarray        # steps 0..H-1, one row per step


# Overflow and invalid operations give inf/nan without a warning; the checks
# after the loop report them.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _recursion(genomes: np.ndarray, p: ModelParams) -> _Run:
    """Run the closed-loop dynamics for one genome (2H,) or a table (n, 2H).

    The same lines serve both ranks: one genome advances numpy scalars, a
    table advances length-n arrays. Genes are clipped to [0, 1]. Utility
    feeds nothing back, so it is evaluated for every step at once after the
    loop. A capital stock, carbon mass or consumption that is not positive
    raises ``ModelDomainError`` naming the first failing step (and row, for
    a table); a non-finite one is reported as an arithmetic overflow.
    """
    ex = _exogenous(p)
    steps = len(ex.theta1)
    zero = np.zeros(genomes.shape[:-1])  # 0-d for one genome: states are scalars
    column = (steps,) + (1,) * zero.ndim  # a step path against one row per step
    # policy terms of every step at once, one row per step
    mu = np.clip(genomes[..., :steps].T, 0.0, 1.0)
    s = np.clip(genomes[..., p.H:p.H + steps].T, 0.0, 1.0)
    Lambda = abatement_fraction(mu, np.reshape(ex.theta1, column), p)
    kept = 1.0 - Lambda

    K, M_AT, M_UP, M_LO, T_AT, T_LO = (
        zero + v for v in (p.K0, p.M_AT0, p.M_UP0, p.M_LO0, p.T_AT0, p.T_LO0))
    states = [(K, M_AT, M_UP, M_LO, T_AT, T_LO)]
    flows, checked = [], []
    for i in range(steps):
        Y = gross_output(ex.A[i], K, ex.labour[i], p)
        Omega = damage_factor(T_AT, p)
        Q = kept[i] * Omega * Y
        I = s[i] * Q
        E = total_emissions(ex.sigma[i], mu[i], Y, ex.E_Land[i])
        F = radiative_forcing(M_AT, ex.forcing[i], p)
        C = Q - I
        flows.append((Y, Omega, Q, I, C, E, F))
        checked.append((K, M_AT, C))
        M_AT, M_UP, M_LO = step_carbon(M_AT, M_UP, M_LO, E, p)
        T_AT, T_LO = step_climate(T_AT, T_LO, F, p)
        K = step_capital(K, I, p)
        states.append((K, M_AT, M_UP, M_LO, T_AT, T_LO))

    checked = np.reshape(checked, (steps, 3) + zero.shape)  # K, M_AT, C of each step
    floored = np.maximum(checked[:, 2], CONSUMPTION_FLOOR, out=checked[:, 2])
    U = utility(floored, np.reshape(ex.L[:steps], column), p)
    ok = checked > 0
    if not ok.all():
        step, check, *row = np.unravel_index(np.argmin(ok), ok.shape)
        value = checked[(step, check, *row)]
        message = f"{_CHECKS[check]}, got {value}"
        if not np.isfinite(value):
            message = f"arithmetic overflow: {message}"
        _fail(int(step), int(row[0]) if row else None, message)
    if ex.failure is not None:
        _fail(len(ex.L) - 1, 0 if zero.ndim else None, ex.failure)
    W = sum(U / np.reshape(ex.discount, column), zero)  # step by step, in order
    T_max = np.max([state[4] for state in states], axis=0)
    return _Run(W=W, T_max=T_max, states=states, flows=flows, Lambda=Lambda, U=U)


def _genome(policy: PolicyMatrix, p: ModelParams) -> np.ndarray:
    """The policy as one genome, once its horizon is checked against ``p``."""
    if policy.horizon != p.H:
        raise ModelDomainError(
            f"policy horizon {policy.horizon} does not match configured H = {p.H}"
        )
    return policy.to_genome()


def simulate(policy: PolicyMatrix, p: ModelParams) -> Trajectory:
    """Run the closed-loop dynamics over the horizon.

    Returns H+1 states and H derived records. Pure: repeated calls with the
    same inputs give bit-identical trajectories. A domain error or a float
    overflow in step i raises ``ModelDomainError`` naming step i.
    """
    run = _recursion(_genome(policy, p), p)
    ex = _exogenous(p)
    K, M_AT, M_UP, M_LO, T_AT, T_LO = np.array(run.states).T.tolist()
    Y, Omega, Q, I, C, E, F = np.reshape(run.flows, (-1, 7)).T.tolist()
    return Trajectory(
        states=tuple(map(SimState, ex.L, ex.A, K, ex.sigma, ex.E_Land,
                         M_AT, M_UP, M_LO, T_AT, T_LO)),
        derived=tuple(map(StepDerived, Y, Omega, run.Lambda.tolist(), Q, I, C, E, F,
                          ex.theta1, run.U.tolist())),
        params=p,
    )


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
    run = _recursion(_genome(policy, p), p)
    return ObjectivePair(W=float(run.W), T_max=float(run.T_max))


def evaluate_batch(genomes: np.ndarray, p: ModelParams) -> np.ndarray:
    """Score n policies at once: (n, 2H) genomes to an (n, 2) table of (W, T_max).

    Row k scores like ``evaluate_policy(PolicyMatrix.from_genome(genomes[k]), p)``,
    through the same recursion on length-n arrays. The two agree to a few
    ulps, not bitwise, because numpy's vectorised ``power`` and ``log2`` may
    round the last bit differently from its scalar ones. A domain failure
    raises ``ModelDomainError`` naming the step and the first failing row,
    which it also carries as ``exc.row``.
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
    if len(genomes) == 0:
        return np.empty((0, 2))
    run = _recursion(genomes, p)
    return np.column_stack((run.W, run.T_max))
