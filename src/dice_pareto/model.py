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

``_recursion`` is the one place W and T_AT,max are computed. The terms that
need no state come first, for every step at once. Then the step loop of the
input's rank returns the run's history, one row per state index 0..H (see
``_HISTORY``), which ``_recursion`` reads once: it checks K > 0, M_AT > 0 and
C > 0 for every step and row, one reduction each, and only on a failure
looks for the first one to name it; it takes the T_AT peak in one
reduction, and sums the discounted utilities step by step. So neither step
loop raises. The whole-horizon terms, from the clipped genes to the
discounted utilities, are written in place into one set of arrays
(``_Terms``): new ones for one genome, the workspace's for a table.

Each formula of a step is stated here only where the recursion runs it: in
the two step loops and the whole-horizon terms around them. The tests hold
these bit for bit to the step kernels of ``tests/oracle.py``, from
``gross_output`` to ``utility``, whose operations they make in their order.

* One genome (2H,) steps on Python floats, the recursion written out on
  locals, and appends a row of 13 columns per step. ``simulate`` and
  ``evaluate_policy`` run it on one policy (``cli simulate``, representatives);
  ``simulate`` names the history's columns in a ``Trajectory``.
* An (n, 2H) table steps on length-n rows. Step i writes its C into box i
  of one (H+1, 15, n) history and the states after it into box i + 1. The
  six linear states advance as one stacked array, each row (head + middle)
  + tail of the products of the capital, carbon and climate steps in their
  order, so on the same rows it gives those steps' values bit for bit (the
  oracle's ``step_capital``, ``step_carbon`` and ``step_climate``).
  ``evaluate_batch`` runs it on the whole population, once per generation.
  The history and every other array the call writes, the whole-horizon
  terms included, live in a workspace (``_Workspace``) built on the first
  call for a ``ModelParams``, width n and thread and reused by later calls,
  so a warm call looks up one cache and allocates no (H, n) array: 6808 * n
  bytes for the 37-step horizon, 408,480 at n = 60 and 1,361,600 at
  n = 200. An ``lru_cache`` keeps the 8 most recently used.

The cost of a table's loop is numpy's per-call dispatch, not arithmetic: an
operation on a short array costs about 0.5 us, whatever its length, or twice
that when an operand broadcasts a (k, 1) column or strides (0.06 us on numpy
scalars, 0.02 us on Python floats). A table's step makes 17 array calls (46
before the stacking, 25 before the workspace, 22 before the row layout below),
each on C-contiguous blocks of whole rows or on 0-d constants, written through
a prebuilt view with ``out``, with the ufuncs read from locals. Calls of one
form run on stacked rows, laid out so that each operand is one block:

    box i of the history (15 rows)      shared rows (58 per workspace)
    0-5     M_LO T_LO M_UP M_AT K T_AT  0       1.0
    6, 7    A, exogenous forcing        1-14    heads, psi1 T_AT, middles, psi2 T_AT
    8, 9    psi2 T_AT T_AT, A K**gamma  15, 16  K (then K**gamma), M_LO
    10, 11  F_2x, labour factor         17-20   xi2 E, I, F, damage divisor D
    12      M_AT / M_AT_1750, its log2  21-24   Omega, Y, F_2x log2, 1 + psi1 T_AT
    13, 14  C, -0.0                     25-30   head + middle of the next states
    policy rows of step i: xi2, s,      31-33   kept Omega, residual Y (then E), Q
    kept share, residual intensity      34-39   tails: -0.0, -0.0, zeta23 M_LO,
                                                dt xi2 E, dt I, xi1 F
                                        40-57   coefficients of 1-14 and 36-39

An array call with a Python-float operand pays for numpy 2's weak-scalar
conversion (about 0.75 against 0.48 us with a 0-d array operand at n = 60), so
a table's step reads 0-d constants. ``evaluate_policy`` took 0.33 ms as a
one-row table, 0.19 ms on numpy scalars and 0.11 ms on Python floats. The
policy-independent paths (population, TFP, emission intensity, land-use
emissions, and the per-step terms built from them) come from one cache keyed
on the frozen ``ModelParams``, filled on first use with the scalar step
functions below.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import ModelDomainError
from .params import ModelParams

# Consumption is floored here (trillions/yr) before the utility evaluation so
# that s = 1, which the search space can represent, scores terribly instead of
# crashing.
CONSUMPTION_FLOOR = 1e-6


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
    """One simulated policy: the recursion's objectives and its named columns.

    ``states`` maps each state to its H+1 values (indices 0..H): K (capital,
    trillions 2010 USD), M_AT, M_UP, M_LO (carbon, GtC), T_AT, T_LO
    (temperature deviations, deg C), L (population, millions), A (TFP), sigma
    (emission intensity) and E_Land (land-use emissions, GtCO2/yr).
    ``derived`` maps each per-step quantity to its H values (steps 0..H-1):
    Y (gross output, trillions/yr), Omega (damage factor), Lambda (abatement
    cost fraction), Q (net output), I (investment), C (consumption), E
    (emissions, GtCO2/yr), F (forcing, W/m^2), theta1 (mitigation cost
    coefficient) and U (undiscounted utility).
    """

    W: float
    T_max: float
    states: dict[str, np.ndarray]
    derived: dict[str, np.ndarray]
    policy: PolicyMatrix
    params: ModelParams


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


def labour_factor(L: float, p: ModelParams) -> float:
    """Labour input of gross output, (L/1000) ** (1 - gamma), with L in millions.

    Population enters in billions: the standard DICE-2016R calibration of A is
    built around that scaling and keeps output near 105 trillion USD/yr in 2015.
    """
    return (L / 1000.0) ** (1.0 - p.gamma)


def mitigation_cost_theta1(sigma: float, i: int, p: ModelParams) -> float:
    """Cost coefficient of mitigation effort; declines with the backstop price."""
    return (p.p_b / (1000.0 * p.theta2)) * (1.0 - p.delta_pb) ** i * sigma


def abatement_fraction(mu: float, theta1: float, p: ModelParams) -> float:
    """Share of gross output spent on mitigation: theta1 * mu ** theta2."""
    return theta1 * mu**p.theta2


def step_emission_intensity(sigma: float, i: int, p: ModelParams) -> float:
    """Advance emission intensity; strictly decreasing toward 0 for sigma > 0."""
    return sigma / math.exp(p.dt * p.g_sigma * (1.0 - p.delta_sigma) ** (i * p.dt))


def land_emissions(i: int, p: ModelParams) -> float:
    """Land-use emissions at step i, a decaying geometric sequence."""
    return p.E_L0 * (1.0 - p.delta_EL) ** i


def exogenous_forcing(i: int, p: ModelParams) -> float:
    """Non-CO2 forcing: ramps from f0 to f1 over t_f steps, then stays at f1."""
    return p.f0 + min((p.f1 - p.f0) * i / p.t_f, p.f1 - p.f0)


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
    failure: str | None
    columns: np.ndarray           # (4, steps, 1): theta1, sigma, L and discount_factor


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def _exogenous(p: ModelParams) -> _Exogenous:
    """Compute, once per parameter set, every path the policy cannot move."""
    L, A, sigma, E_Land = [p.L0], [p.A0], [p.sigma0], [p.E_L0]
    terms = []  # (theta1, labour, forcing, discount) of each step
    failure = None
    for i in range(p.H):
        computed = []  # the step's four terms, then the four advanced states
        try:
            for name, f, *args in (
                    ("mitigation cost coefficient", mitigation_cost_theta1, sigma[i], i, p),
                    ("labour factor", labour_factor, L[i], p),
                    ("exogenous forcing", exogenous_forcing, i, p),
                    ("discount factor", discount_factor, i, p),
                    ("population", step_population, L[i], p),
                    ("TFP", step_tfp, A[i], i, p),
                    ("emission intensity", step_emission_intensity, sigma[i], i, p),
                    ("land-use emissions", land_emissions, i + 1, p)):
                computed.append(f(*args))
        except ModelDomainError as exc:
            failure = str(exc)
        except OverflowError:  # a float overflow counts as a domain error
            failure = f"arithmetic overflow in the {name}"
        if len(computed) >= 4:
            terms.append(computed[:4])
        if failure is not None:
            break
        for state, value in zip((L, A, sigma, E_Land), computed[4:]):
            state.append(value)
    theta1, labour, forcing, discount = tuple(zip(*terms)) or ((),) * 4
    steps = len(terms)
    return _Exogenous(
        L=tuple(L), A=tuple(A), sigma=tuple(sigma), E_Land=tuple(E_Land), theta1=theta1,
        labour=labour, forcing=forcing, failure=failure,
        columns=_read_only([theta1, sigma[:steps], L[:steps], discount])[..., None],
    )


# what the recursion checks for every step, in this order: K, M_AT and C
_CHECKS = ("gross output needs positive capital K", "atmospheric carbon must be positive",
           "consumption must be positive")


def _fail(step: int, row: int | None, message: str) -> NoReturn:
    """Raise a domain error naming the step and, for a table, the row."""
    where = f"step {step}" if row is None else f"step {step}, row {row}"
    raise ModelDomainError(f"{where}: {message}", row=row)


class _Run(NamedTuple):
    """One pass of the recursion: the objectives, the run history (see
    ``_HISTORY``), each step's utility and the policy-independent paths."""

    W: np.ndarray
    T_max: np.ndarray
    history: np.ndarray
    U: np.ndarray  # steps 0..H-1, one row per step
    ex: _Exogenous


class _Terms(NamedTuple):
    """The whole-horizon arrays ``_recursion`` writes around a step loop, one
    row per step in the rank of its input. A table's belong to its workspace
    and every call rewrites them; one genome's are new on every call."""

    ex: _Exogenous
    columns: np.ndarray    # theta1, sigma, L and discount factor: ``_Exogenous.columns``
    mu: np.ndarray         # the clipped mu, then the floored C and its utility U
    policy: np.ndarray     # (steps, 4) + shape: xi2 (a table's step reads it), then
    s: np.ndarray          # the saving rate, the kept share 1 - Lambda and the
    kept: np.ndarray       # residual intensity sigma * (1 - mu), whose rows these
    residual: np.ndarray   # three views are
    welfare: np.ndarray    # (steps + 1,) + shape: 0, then each step's U / discount
    theta2: np.ndarray     # 0-d
    one_minus_alpha: np.ndarray  # 0-d


def _terms(p: ModelParams, shape: tuple[int, ...]) -> _Terms:
    """New ``_Terms`` of ``p`` for one genome (``shape`` ()) or n rows ((n,))."""
    ex = _exogenous(p)
    steps = len(ex.theta1)
    policy = np.empty((steps, 4) + shape)
    welfare = np.empty((steps + 1,) + shape)
    welfare[0] = 0.0
    return _Terms(ex, ex.columns if shape else ex.columns[..., 0], np.empty((steps,) + shape),
                  policy, *policy.swapaxes(0, 1)[1:], welfare,
                  *map(_read_only, (p.theta2, 1.0 - p.alpha)))


# A run history has one row per state index 0..H. One genome's row holds 13
# columns: the linear states K, M_AT, M_UP, M_LO, T_AT and T_LO, then its
# step's I, F, C, Y, Omega, Q and E, which are NaN in the last row (the states
# after the last step). A table's row is a box of _BOX rows, laid out for its
# step's calls (see the module docstring).
_HISTORY = ("K", "M_AT", "M_UP", "M_LO", "T_AT", "T_LO", "I", "F", "C", "Y", "Omega", "Q", "E")
_BOX = ("M_LO", "T_LO", "M_UP", "M_AT", "K", "T_AT", "A", "forcing", "psi2_T2", "A_K_gamma",
        "F_2x", "labour", "log", "C", "zero")
# the history columns the recursion reads, K, M_AT, T_AT and C, by rank
_READS = tuple(tuple(map(names.index, ("K", "M_AT", "T_AT", "C"))) for names in (_HISTORY, _BOX))

# What a table's step gathers from its box: the factors of the heads of the
# next states' sums (in _BOX order), of psi1 * T_AT, of the middles and of
# psi2 * T_AT, which ``_coefficients`` multiply, then K and M_LO as they are.
_TAKE = np.array([2, 5, 3, 3, 4, 5, 5,    # M_UP, T_AT, M_AT, M_AT, K, T_AT; T_AT
                  0, 1, 2, 2, 14, 1, 5,   # M_LO, T_LO, M_UP, M_UP, -0.0, T_LO; T_AT
                  4, 0])                  # K, M_LO


def _coefficients(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of a table's step: of the 14 gathered products, in
    ``_TAKE`` order, and of the tails zeta23 * M_LO, dt * xi2 * E, dt * I and
    xi1 * F of M_UP, M_AT, K and T_AT."""
    return (np.array([p.zeta32, p.phi21, p.zeta21, p.zeta11, (1.0 - p.delta_K) ** p.dt, p.phi11,
                      p.psi1, p.zeta33, p.phi22, p.zeta22, p.zeta12, 0.0, p.phi12, p.psi2]),
            np.array([p.zeta23, p.dt, p.dt, p.xi1]))


def _checked_consumption(K: np.ndarray, M_AT: np.ndarray, C: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Floor the consumption path into ``out`` (a new array if None) and
    return it, once every step's capital, atmospheric carbon and floored
    consumption is positive, which takes one reduction per path.

    Otherwise raise for the first step, then check (``_CHECKS`` order), then
    row that fails.
    """
    paths = (K, M_AT, np.maximum(C, CONSUMPTION_FLOOR, out=out))
    # a NaN minimum is not positive; a path of no steps passes
    if all(path.min(initial=math.inf) > 0 for path in paths):
        return paths[2]
    failures = []
    for check, path in enumerate(paths):
        ok = path > 0
        if not ok.all():
            step, *row = np.unravel_index(np.argmin(ok), ok.shape)
            failures.append((step, check, row))
    step, check, row = min(failures)
    value = paths[check][(step, *row)]
    message = f"{_CHECKS[check]}, got {value}"
    if not np.isfinite(value):
        message = f"arithmetic overflow: {message}"
    _fail(int(step), int(row[0]) if row else None, message)


def _genome_steps(ex: _Exogenous, kept, s, residual, p: ModelParams) -> np.ndarray:
    """The step loop of one genome, on Python floats; returns its history.

    A step makes the operations of the oracle's kernels from ``gross_output``
    to ``step_capital`` in their order, on locals. Python floats round +, -, *
    and / as numpy's float64 scalars do; three operations differ and are
    guarded, so the history is bit for bit that of numpy scalars. K ** gamma
    raises on overflow and, for K <= 0, may raise or turn complex: numpy's
    scalar power takes those. 1 / D raises at D = 0, where numpy gives inf.
    log2 stays numpy's, since ``math.log2`` rounds some quotients differently.
    """
    gamma, psi1, psi2, F_2x, M_AT_1750, xi1, xi2, dt = (
        p.gamma, p.psi1, p.psi2, p.F_2x, p.M_AT_1750, p.xi1, p.xi2, p.dt)
    zeta11, zeta12, zeta21, zeta22, zeta23, zeta32, zeta33 = (
        p.zeta11, p.zeta12, p.zeta21, p.zeta22, p.zeta23, p.zeta32, p.zeta33)
    phi11, phi12, phi21, phi22 = p.phi11, p.phi12, p.phi21, p.phi22
    depreciation, log2 = (1.0 - p.delta_K) ** dt, np.log2
    K, M_AT, M_UP, M_LO, T_AT, T_LO = map(float, (p.K0, p.M_AT0, p.M_UP0, p.M_LO0, p.T_AT0,
                                                  p.T_LO0))
    history = []
    for A, labour, E_Land, forcing, kept_i, s_i, residual_i in zip(
            ex.A, ex.labour, ex.E_Land, ex.forcing, kept.tolist(), s.tolist(), residual.tolist()):
        try:
            K_gamma = K**gamma if K > 0.0 else float(np.float64(K) ** gamma)
        except OverflowError:
            K_gamma = float(np.float64(K) ** gamma)
        Y = A * K_gamma * labour
        D = 1.0 + psi1 * T_AT + psi2 * T_AT * T_AT  # 1.0 + x is never -0.0
        Omega = 1.0 / D if D else math.inf
        Q = kept_i * Omega * Y
        I = s_i * Q
        E = residual_i * Y + E_Land
        F = F_2x * float(log2(M_AT / M_AT_1750)) + forcing
        history.append((K, M_AT, M_UP, M_LO, T_AT, T_LO, I, F, Q - I, Y, Omega, Q, E))
        M_AT, M_UP, M_LO = (zeta11 * M_AT + zeta12 * M_UP + xi2 * E * dt,
                            zeta21 * M_AT + zeta22 * M_UP + zeta23 * M_LO,
                            zeta32 * M_UP + zeta33 * M_LO)
        T_AT, T_LO = phi11 * T_AT + phi12 * T_LO + xi1 * F, phi21 * T_AT + phi22 * T_LO
        K = depreciation * K + I * dt
    history.append((K, M_AT, M_UP, M_LO, T_AT, T_LO) + (math.nan,) * 7)  # no step
    return np.array(history)


# What every step of a table reads, by the names ``_table_steps`` gives it
_Shared = NamedTuple("_Shared", [(name, np.ndarray) for name in """gathered coefficients
    products K_gamma one_heads psi1_T_middles sums psi2_T_K_gamma Y_F_2x_log F_2x_log_sum F_D
    D Omega Omega_Y kept_Omega_residual_Y kept_Omega Y Q E E_Q xi2_E_I I tail_coefficients
    M_LO_xi2_E_I_F tail_products pairs tails gamma M_AT_1750 one""".split()])


class _Workspace(NamedTuple):
    """What a table's step loop writes for one ``ModelParams`` and width n.

    Built on the first call for that pair and reused by every later call, so
    a warm call allocates no whole-horizon array and makes no views. The
    initial states and the constant rows are written once; every other value
    the loop reads it has written earlier in the same call.
    """

    terms: _Terms          # the policy terms (policy: (steps, 4, n)) and welfare rows
    history: np.ndarray    # (steps + 1, 15, n), see ``_BOX``
    shared: _Shared        # views of the shared rows and 0-d constants
    steps: tuple[tuple[np.ndarray, ...], ...]  # what step i reads, in the loop's order


@functools.lru_cache(maxsize=8)
def _workspace(p: ModelParams, n: int, thread: int) -> _Workspace:
    """The workspace of thread ``thread`` for ``p`` and width n. The key names
    the thread, so two threads never share a workspace; at most 8 are kept,
    the least recently used dropped first."""
    terms = _terms(p, (n,))
    ex, policy = terms.ex, terms.policy
    steps = len(ex.theta1)
    history = np.empty((steps + 1, len(_BOX), n))
    history[0, :6] = np.reshape((p.M_LO0, p.T_LO0, p.M_UP0, p.M_AT0, p.K0, p.T_AT0), (6, 1))
    history[:steps, 6:8] = np.transpose((ex.A[:steps], ex.forcing))[..., None]
    history[:, 10], history[:, 14] = p.F_2x, -0.0
    history[:steps, 11] = np.reshape(ex.labour, (-1, 1))
    policy[:, 0] = p.xi2
    rows = np.empty((58, n))  # the shared rows, see the module docstring
    rows[0], rows[34:36] = 1.0, -0.0
    rows[40:54], rows[54:] = (c[:, None] for c in _coefficients(p))
    views = (rows[r] for r in (
        slice(1, 17), slice(40, 54), slice(1, 15), 15, slice(0, 7), slice(7, 14),
        slice(24, 31), slice(14, 16), slice(22, 24), slice(23, 25), slice(19, 21), 20, 21,
        slice(21, 23), slice(31, 33), 31, 22, 33, 32, slice(32, 34), slice(17, 19), 18,
        slice(54, 58), slice(16, 20), slice(36, 40), slice(25, 31), slice(34, 40)))
    boxes = history[:-1]
    return _Workspace(
        terms=terms, history=history,
        shared=_Shared(*views, *map(_read_only, (p.gamma, p.M_AT_1750, 1.0))),
        steps=tuple(zip(boxes, boxes[:, 3], boxes[:, 12], boxes[:, 5:7], boxes[:, 8:10],
                        boxes[:, 9:11], boxes[:, 11:13], boxes[:, 7:9], policy[:, 2:],
                        map(_read_only, ex.E_Land[:steps]), policy[:, :2], boxes[:, 13],
                        history[1:, :6])))


def _table_steps(ws: _Workspace) -> np.ndarray:
    """The step loop of a table, on length-n rows of the workspace ``ws``
    (``_Workspace``), whose policy rows ``_recursion`` has written; returns
    its history, which the thread's next call at the same width overwrites.

    Step i reads box i of the history and the shared rows (see the module
    docstring) and writes the next states into box i + 1, each (head +
    middle) + tail in the order of the oracle's kernel: K's middle and the
    M_LO and T_LO tails are -0.0, and x + -0.0 is x for every x. Every
    kernel's operations keep their order and operands (a single * or + may
    take its two operands swapped), so the values are the kernels' bit for bit.
    """
    (gathered, coefficients, products, K_gamma, one_heads, psi1_T_middles, sums, psi2_T_K_gamma,
     Y_F_2x_log, F_2x_log_sum, F_D, D, Omega, Omega_Y, kept_Omega_residual_Y, kept_Omega, Y, Q,
     E, E_Q, xi2_E_I, I, tail_coefficients, M_LO_xi2_E_I_F, tail_products, pairs, tails,
     gamma, M_AT_1750, one) = ws.shared
    power, multiply, add, divide, subtract, log2 = (
        np.power, np.multiply, np.add, np.divide, np.subtract, np.log2)
    for (box, M_AT, log, T_AT_A, psi2_T2_A_K_gamma, A_K_gamma_F_2x, labour_log, forcing_psi2_T2,
         kept_residual, E_Land, xi2_s, C, states) in ws.steps:
        box.take(_TAKE, 0, gathered, "clip")  # "clip": an unbuffered take
        multiply(coefficients, products, products)
        power(K_gamma, gamma, K_gamma)
        divide(M_AT, M_AT_1750, log)
        add(one_heads, psi1_T_middles, sums)  # 1 + psi1 * T_AT, head + middle
        multiply(psi2_T_K_gamma, T_AT_A, psi2_T2_A_K_gamma)
        log2(log, log)
        multiply(A_K_gamma_F_2x, labour_log, Y_F_2x_log)  # gross output Y
        add(F_2x_log_sum, forcing_psi2_T2, F_D)  # forcing F, damage divisor D
        divide(one, D, Omega)
        multiply(kept_residual, Omega_Y, kept_Omega_residual_Y)
        multiply(kept_Omega, Y, Q)
        add(E, E_Land, E)  # emissions E = residual * Y + E_Land
        multiply(xi2_s, E_Q, xi2_E_I)
        subtract(Q, I, C)
        multiply(tail_coefficients, M_LO_xi2_E_I_F, tail_products)
        add(pairs, tails, states)
    return ws.history


# Overflow and invalid operations give inf/nan without a warning; the checks
# after the loop report them.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _recursion(genomes: np.ndarray, p: ModelParams) -> _Run:
    """Run the closed-loop dynamics for one genome (2H,) or a table (n, 2H)
    and read the objectives from its history (see the module docstring).

    The terms that need no state and utility, which feeds nothing back, are
    evaluated for every step at once, in place in the input's ``_Terms``:
    the workspace's for a table, new arrays for one genome. A capital stock,
    carbon mass or consumption that is not positive raises
    ``ModelDomainError`` naming the first failing step (and row, for a
    table); a non-finite one is reported as an arithmetic overflow.
    """
    shape = genomes.shape[:-1]  # () for one genome, (n,) for a table
    ws = _workspace(p, shape[0], threading.get_ident()) if shape else None
    (ex, (theta1, sigma, L, discount), mu, _, s, kept, residual, welfare, theta2,
     one_minus_alpha) = ws.terms if shape else _terms(p, ())
    subtract, multiply, divide, power = np.subtract, np.multiply, np.divide, np.power
    # the genes clipped to [0, 1], then the residual intensity sigma * (1 - mu)
    # and the kept share 1 - abatement_fraction, each in its formula's order
    steps = len(mu)
    genomes[..., :steps].T.clip(0.0, 1.0, mu)
    genomes[..., p.H:p.H + steps].T.clip(0.0, 1.0, s)
    subtract(1.0, mu, residual)
    multiply(sigma, residual, residual)
    power(mu, theta2, kept)
    multiply(theta1, kept, kept)
    subtract(1.0, kept, kept)
    history = _table_steps(ws) if shape else _genome_steps(ex, kept, s, residual, p)
    k, m, t, c = _READS[len(shape)]  # the columns of K, M_AT, T_AT and C
    rows = history[:-1]
    # mu is spent, so its rows take the floored C; the history keeps C as
    # computed, so a trajectory shows C = 0 at s = 1
    U = _checked_consumption(rows[:, k], rows[:, m], rows[:, c], mu)
    if ex.failure is not None:
        _fail(len(ex.L) - 1, 0 if shape else None, ex.failure)
    T_max = history[:, t].max(axis=0)
    # utility L * ((1000 * C / L) ** (1 - alpha) - 1) / (1 - alpha), in this order
    multiply(1000.0, U, U)
    divide(U, L, U)
    power(U, one_minus_alpha, U)
    subtract(U, 1.0, U)
    multiply(L, U, U)
    divide(U, one_minus_alpha, U)
    divide(U, discount, welfare[1:])
    # W adds the discounted utilities to 0 step by step, in order, so a row's
    # W does not depend on the rows scored with it
    W = np.add.accumulate(welfare, axis=0, out=welfare)[-1]
    return _Run(W=W, T_max=T_max, history=history, U=U, ex=ex)


def _genome(policy: PolicyMatrix, p: ModelParams) -> np.ndarray:
    """The policy as one genome, once its horizon is checked against ``p``."""
    if policy.horizon != p.H:
        raise ModelDomainError(
            f"policy horizon {policy.horizon} does not match configured H = {p.H}"
        )
    return policy.to_genome()


def simulate(policy: PolicyMatrix, p: ModelParams) -> Trajectory:
    """Run the closed-loop dynamics over the horizon and keep its columns.

    Pure: repeated calls with the same inputs give bit-identical
    trajectories. A domain error or a float overflow in step i raises
    ``ModelDomainError`` naming step i.
    """
    run = _recursion(_genome(policy, p), p)
    ex = run.ex
    columns = dict(zip(_HISTORY, run.history.T))
    states = {name: columns[name] for name in _HISTORY[:6]}
    states.update(L=np.array(ex.L), A=np.array(ex.A), sigma=np.array(ex.sigma),
                  E_Land=np.array(ex.E_Land))
    derived = {name: columns[name][:-1] for name in ("Y", "Omega", "Q", "I", "C", "E", "F")}
    theta1 = np.array(ex.theta1)
    derived.update(Lambda=abatement_fraction(policy.mu, theta1, p), theta1=theta1, U=run.U)
    return Trajectory(W=float(run.W), T_max=float(run.T_max), states=states,
                      derived=derived, policy=policy, params=p)


def evaluate_policy(policy: PolicyMatrix, p: ModelParams) -> ObjectivePair:
    """Simulate a policy and score it: (welfare, peak temperature deviation)."""
    run = _recursion(_genome(policy, p), p)
    return ObjectivePair(W=float(run.W), T_max=float(run.T_max))


def evaluate_batch(genomes: np.ndarray, p: ModelParams) -> np.ndarray:
    """Score n policies at once: (n, 2H) genomes to an (n, 2) table of (W, T_max).

    Row k scores like ``evaluate_policy(PolicyMatrix.from_genome(genomes[k]), p)``,
    through the same recursion on length-n rows. The two agree to a few
    ulps, not bitwise, because numpy's vectorised ``power`` (SIMD) may round
    the last bit differently from its scalar one (libm); its ``log2`` rounds
    alike on both. A row's bytes do not depend on the other rows of its
    table. A domain failure
    raises ``ModelDomainError`` naming the step and the first failing row,
    which it also carries as ``exc.row``.
    """
    genomes = np.asarray(genomes, dtype=float)
    H = p.H
    if genomes.ndim != 2 or genomes.shape[1] != 2 * H:
        raise ModelDomainError(
            f"genomes must form an (n, 2H) = (n, {2 * H}) table, got shape {genomes.shape}")
    if not np.isfinite(genomes).all():
        row = int(np.argmin(np.isfinite(genomes).all(axis=1)))
        raise ModelDomainError(f"row {row}: policy entries must be finite", row=row)
    scores = np.empty((len(genomes), 2))
    if len(genomes):
        run = _recursion(genomes, p)
        scores[:, 0], scores[:, 1] = run.W, run.T_max
    return scores
