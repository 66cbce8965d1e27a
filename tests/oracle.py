"""Independent references for the tests: a high-precision re-derivation of
the DICE-2016R recursion, the per-step kernels of the recursion, Pareto
dominance of two objective pairs, brute-force front ranks with
front-by-front crowding distance and the survivor cut, earlier forms of the
model's policy terms and two step loops, and a row-by-row scan that picks
representatives.

``resimulate`` restates every constant literally, independent of the params
module, and advances the full state recursion with mpmath at 40 digits,
sharing no code with the implementation under test. The kernels state each
formula of one step on its own, on floats or arrays alike, and never raise;
the model's two step loops make their operations in their order. The
step-loop references call the kernels and differ from the model's loops
only in their bookkeeping."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from mpmath import mp, mpf

if TYPE_CHECKING:
    from dice_pareto.params import ModelParams


def gross_output(A: float, K: float, labour: float, p: ModelParams) -> float:
    """Cobb-Douglas gross output in trillions/yr; ``labour`` is ``labour_factor(L, p)``."""
    return A * K**p.gamma * labour


def damage_factor(T_AT: float, p: ModelParams) -> float:
    """Multiplicative output-loss factor from temperature deviation, in (0, 1]."""
    return 1.0 / (1.0 + p.psi1 * T_AT + p.psi2 * T_AT * T_AT)


def step_capital(K: float, I: float, p: ModelParams) -> float:
    """Advance capital: depreciate over dt years and add the invested flow."""
    return (1.0 - p.delta_K) ** p.dt * K + I * p.dt


def residual_intensity(sigma: float, mu: float) -> float:
    """Emission intensity left after mitigation at rate mu."""
    return sigma * (1.0 - mu)


def total_emissions(residual: float, Y: float, E_Land: float) -> float:
    """Emissions from economic activity, at the ``residual_intensity`` left
    after mitigation, plus land use."""
    return residual * Y + E_Land


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


def dominates(a, b) -> bool:
    """True iff objective pair a (``.W``, ``.T_max``) is at least as good as b
    in both objectives and better in one.

    Orientation: W is maximized, T_max is minimized.
    """
    if not (a.W >= b.W and a.T_max <= b.T_max):
        return False
    return a.W > b.W or a.T_max < b.T_max


# (W, T_max) reference point of ``hypervolume``: below every front's W and
# above every front's T_max for the default calibration
HYPERVOLUME_REFERENCE = (217000.0, 5.5)


def hypervolume(objectives, reference=HYPERVOLUME_REFERENCE) -> float:
    """Exact area of the (W, T_max) region that the rows of ``objectives``
    dominate, bounded by ``reference``: W maximized, T_max minimized
    (Zitzler & Thiele 1999).

    Sweep from the highest W down: each row inside the reference box whose
    T_max undercuts every row seen adds the strip between its T_max and the
    lowest one before it.
    """
    w_ref, t_ref = reference
    area, lowest = 0.0, t_ref
    for w, t in sorted(map(tuple, objectives), key=lambda wt: (-wt[0], wt[1])):
        if w > w_ref and t < lowest:
            area += (w - w_ref) * (lowest - t)
            lowest = t
    return area


STATE_NAMES = ("L", "A", "K", "sigma", "E_Land", "M_AT", "M_UP", "M_LO", "T_AT", "T_LO")


def resimulate(mu, s):
    """Advance the default calibration under control rows ``mu`` and ``s``
    (H floats each, in [0, 1]).

    Returns the H+1 states as dicts of floats keyed by ``STATE_NAMES``, the
    welfare W and the peak temperature T_max.
    """
    with mp.workdps(40):
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
        alpha, rho, floor = mpf("1.45"), mpf("0.015"), mpf("1e-6")
        dt = mpf(5)

        L, A, K = mpf(7403), mpf("5.115"), mpf(223)
        sigma, E_Land = mpf("0.3503"), mpf("2.6")
        M_AT, M_UP, M_LO = mpf(851), mpf(460), mpf(1740)
        T_AT, T_LO = mpf("0.85"), mpf("0.0068")

        states = [(L, A, K, sigma, E_Land, M_AT, M_UP, M_LO, T_AT, T_LO)]
        W = mpf(0)
        for i, (mu_i, s_i) in enumerate(zip(mu, s)):
            mu_i, s_i = mpf(float(mu_i)), mpf(float(s_i))
            Y = A * K**gamma * (L / 1000) ** (1 - gamma)
            Omega = 1 / (1 + psi2 * T_AT**2)
            theta1 = p_b / (1000 * theta2) * (1 - delta_pb) ** i * sigma
            Q = (1 - theta1 * mu_i**theta2) * Omega * Y
            I = s_i * Q
            E = sigma * (1 - mu_i) * Y + E_Land
            F = F_2x * mp.log(M_AT / M1750) / mp.log(2) + f0 + min(
                (f1 - f0) * i / t_f, f1 - f0)
            cpc = 1000 * max(Q - I, floor) / L
            W += L * (cpc ** (1 - alpha) - 1) / (1 - alpha) / (1 + rho) ** (i * dt)
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
            states.append((L, A, K, sigma, E_Land, M_AT, M_UP, M_LO, T_AT, T_LO))
        T_max = max(state[8] for state in states)
        return ([dict(zip(STATE_NAMES, map(float, state))) for state in states],
                float(W), float(T_max))


def brute_force_rank(objectives):
    """Peel fronts by scanning every pair for domination (W up, T_max down)."""
    rank = np.zeros(len(objectives), dtype=int)
    front = 0
    while not rank.all():
        front += 1
        left = np.flatnonzero(rank == 0)
        for q in left:
            w_q, t_q = objectives[q]
            if not any(objectives[k][0] >= w_q and objectives[k][1] <= t_q
                       and (objectives[k][0] > w_q or objectives[k][1] < t_q)
                       for k in left):
                rank[q] = front
    return rank


def rank_and_crowd(objectives):
    """Brute-force ranks and front-by-front crowding of an (n, 2) table."""
    rank = brute_force_rank(objectives)
    return rank, crowding_by_front(objectives, rank)


def survivors_reference(rank, crowding, target):
    """Row indices of the next population, in order (Deb et al. 2002): whole
    fronts are kept while they fit, each in ascending row order, and the front
    that overflows is cut by descending crowding, ties in row order."""
    rows = sorted(range(len(rank)), key=lambda i: rank[i])
    if len(rows) <= target:
        return rows
    cut_rank = rank[rows[target]]
    whole = [i for i in rows if rank[i] < cut_rank]
    cut = sorted((i for i in rows if rank[i] == cut_rank), key=lambda i: -crowding[i])
    return whole + cut[:target - len(whole)]


def front_one_archive(genomes, objectives):
    """The archive of a population, the reference for the engine's: its
    brute-force rank-1 rows sorted by (T_max, -W), ties in row order, each
    row equal in both objectives to the row before it dropped."""
    rank = brute_force_rank(objectives)
    rows = sorted(np.flatnonzero(rank == 1).tolist(),
                  key=lambda i: (objectives[i, 1], -objectives[i, 0]))
    kept = [i for k, i in enumerate(rows)
            if k == 0 or objectives[i].tolist() != objectives[rows[k - 1]].tolist()]
    return genomes[kept], objectives[kept]


def crowding_by_front(objectives, rank):
    """Crowding distance computed front by front, the reference for the
    engine's one-pass crowding: each front's rows, in ascending row order,
    are crowded on their own.

    Within a front, each objective in minimization form (-W, T_max) is sorted
    stably; the first and last sorted rows get +inf, and interior rows add
    their neighbors' gap over the front's span when that span is positive.
    Fronts of one or two rows are all +inf.
    """
    crowding = np.empty(len(rank))
    for front in range(1, rank.max(initial=0) + 1):
        members = np.flatnonzero(rank == front)
        crowding[members] = _front_crowding(objectives[members])
    return crowding


def _front_crowding(objectives):
    m = len(objectives)
    if m <= 2:
        return np.full(m, np.inf)
    f = np.column_stack((-objectives[:, 0], objectives[:, 1]))
    d = np.zeros(m)
    for obj in range(f.shape[1]):
        order = np.argsort(f[:, obj], kind="stable")
        vals = f[order, obj]
        d[order[0]] = np.inf
        d[order[-1]] = np.inf
        span = vals[-1] - vals[0]
        if span > 0:
            d[order[1:-1]] += (vals[2:] - vals[:-2]) / span
    return d


# The stacked linear step of a table as it was first written: row r of the
# next states (K, M_AT, M_UP, M_LO, T_AT, T_LO) is
#     c[r] * box[t[r]] + c[6 + r] * box[t[6 + r]] + c[12 + r] * box[t[12 + r]]
# over a box of the states, I, xi2 * E, F and -0.0 (rows 0-9), with t below
# and c = linear_coefficients(p).
LINEAR_TAKE = np.array([0, 1, 1, 2, 4, 4,   # K, M_AT, M_AT, M_UP, T_AT, T_AT
                        6, 2, 2, 3, 5, 5,   # I, M_UP, M_UP, M_LO, T_LO, T_LO
                        9, 7, 3, 9, 8, 9])  # -0.0, xi2 * E, M_LO, -0.0, F, -0.0


def linear_coefficients(p):
    return np.array([(1.0 - p.delta_K) ** p.dt, p.zeta11, p.zeta21, p.zeta32, p.phi11, p.phi21,
                     p.dt, p.zeta12, p.zeta22, p.zeta33, p.phi12, p.phi22,
                     0.0, p.dt, p.zeta23, 0.0, p.xi1, 0.0])


def policy_terms_reference(genomes, theta1, sigma, p):
    """The terms of every step that need no state, as the model built them
    before it wrote them in place: the kept share 1 - Lambda, the saving
    rate s and the residual emission intensity, one row per step, from genes
    clipped to [0, 1] with ``np.clip``. ``theta1`` and ``sigma`` are
    ``_Exogenous.columns`` in the rank of ``genomes``."""
    from dice_pareto.model import abatement_fraction

    mu = np.clip(genomes[..., :p.H].T, 0.0, 1.0)
    s = np.clip(genomes[..., p.H:].T, 0.0, 1.0)
    Lambda = abatement_fraction(mu, theta1, p)
    return np.subtract(1.0, Lambda, out=Lambda), s, residual_intensity(sigma, mu)


def table_steps_reference(ex, kept, s, residual, p):
    """The table step loop before its constants became cached 0-d arrays:
    every kernel reads Python-float parameters from ``p`` and the step's
    exogenous terms from the cached tuples, and each box of the history is
    indexed per step. Like ``model._table_steps`` it returns a
    (H + 1, len(_BOX), n) history holding the states and C in the rows
    that ``model._BOX`` names."""
    from dice_pareto.model import _BOX

    n = kept.shape[1]
    coefficients = np.repeat(linear_coefficients(p)[:, None], n, axis=1)
    history = np.empty((p.H + 1, 11, n))
    history[0, :6] = np.reshape((p.K0, p.M_AT0, p.M_UP0, p.M_LO0, p.T_AT0, p.T_LO0), (6, 1))
    history[:, 9] = -0.0
    for i in range(p.H):
        box = history[i]
        K, M_AT, T_AT = box[0], box[1], box[4]
        Y = gross_output(ex.A[i], K, ex.labour[i], p)
        Omega = damage_factor(T_AT, p)
        Q = kept[i] * Omega * Y
        I = np.multiply(s[i], Q, out=box[6])
        np.subtract(Q, I, out=box[10])
        np.multiply(p.xi2, total_emissions(residual[i], Y, ex.E_Land[i]), out=box[7])
        box[8] = radiative_forcing(M_AT, ex.forcing[i], p)
        terms = coefficients * box.take(LINEAR_TAKE, axis=0)
        out = history[i + 1, :6]
        np.add(terms[:6], terms[6:12], out=out)
        np.add(out, terms[12:], out=out)
    table = np.full((p.H + 1, len(_BOX), n), np.nan)
    for column, name in enumerate(("K", "M_AT", "M_UP", "M_LO", "T_AT", "T_LO")):
        table[:, _BOX.index(name)] = history[:, column]
    table[:-1, _BOX.index("C")] = history[:-1, 10]
    return table


def batch_reference(genomes, p):
    """``model.evaluate_batch`` on a non-empty, finite (n, 2H) table as it was
    built before the model wrote its whole-horizon terms in place: new
    policy-term tables, ``table_steps_reference`` for the loop, a floored copy
    of C, and ``utility`` over new tables. Returns the (n, 2) table of
    (W, T_max) or raises the same ``ModelDomainError``."""
    from dice_pareto.model import _READS, _checked_consumption, _exogenous, _fail

    ex = _exogenous(p)
    if ex.failure is not None:
        step, message = ex.failure
        _fail(step, 0, message)
    theta1, sigma, L, discount = ex.columns
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        history = table_steps_reference(
            ex, *policy_terms_reference(genomes, theta1, sigma, p), p)
        k, m, t, c = _READS[1]
        steps = history[:-1]
        C = _checked_consumption(steps[:, k], steps[:, m], steps[:, c])
        T_max = history[:, t].max(axis=0)
        terms = np.zeros((len(L) + 1, len(genomes)))
        np.divide(utility(C, L, p), discount, out=terms[1:])
        W = np.add.accumulate(terms, axis=0, out=terms)[-1]
    return np.column_stack((W, T_max))


def genome_steps_reference(ex, kept, s, residual, p):
    """The step loop of one genome before it kept a run history: states,
    flows, the checked values and the peaks each go to a list, the checks run
    on the checked list and the peak is one reduction over the peaks list.
    Returns the checked consumption path, T_max, the states and the flows."""
    from dice_pareto.model import _checked_consumption

    K, M_AT, M_UP, M_LO, T_AT, T_LO = (
        np.float64(v) for v in (p.K0, p.M_AT0, p.M_UP0, p.M_LO0, p.T_AT0, p.T_LO0))
    states = [(K, M_AT, M_UP, M_LO, T_AT, T_LO)]
    flows, checked, peaks = [], [], [T_AT]
    for i in range(len(kept)):
        Y = gross_output(ex.A[i], K, ex.labour[i], p)
        Omega = damage_factor(T_AT, p)
        Q = kept[i] * Omega * Y
        I = s[i] * Q
        E = total_emissions(residual[i], Y, ex.E_Land[i])
        F = radiative_forcing(M_AT, ex.forcing[i], p)
        C = Q - I
        checked.append((K, M_AT, C))
        M_AT, M_UP, M_LO = step_carbon(M_AT, M_UP, M_LO, E, p)
        T_AT, T_LO = step_climate(T_AT, T_LO, F, p)
        K = step_capital(K, I, p)
        peaks.append(T_AT)
        flows.append((Y, Omega, Q, I, C, E, F))
        states.append((K, M_AT, M_UP, M_LO, T_AT, T_LO))
    C = _checked_consumption(*np.reshape(checked, (-1, 3)).T)
    return C, np.max(peaks), states, flows


def simulate_reference(policy, p):
    """``model.simulate`` as it was built on ``genome_steps_reference``:
    returns W, T_max and a dict of every trajectory column, or raises the
    same ``ModelDomainError``."""
    from dice_pareto.model import _exogenous, _fail, abatement_fraction

    ex = _exogenous(p)
    if ex.failure is not None:
        step, message = ex.failure
        _fail(step, None, message)
    theta1, sigma, L, discount = ex.columns[..., 0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        C, T_max, states, flows = genome_steps_reference(
            ex, *policy_terms_reference(policy.to_genome(), theta1, sigma, p), p)
        U = utility(C, L, p)
        terms = np.zeros(len(L) + 1)
        np.divide(U, discount, out=terms[1:])
        W = np.add.accumulate(terms, axis=0, out=terms)[-1]
    columns = dict(zip(("K", "M_AT", "M_UP", "M_LO", "T_AT", "T_LO"), np.array(states).T))
    columns.update(L=np.array(ex.L), A=np.array(ex.A), sigma=np.array(ex.sigma),
                   E_Land=np.array(ex.E_Land))
    columns.update(zip(("Y", "Omega", "Q", "I", "C", "E", "F"), np.reshape(flows, (-1, 7)).T))
    theta1 = np.array(ex.theta1)
    columns.update(Lambda=abatement_fraction(policy.mu, theta1, p), theta1=theta1, U=U)
    return float(W), float(T_max), columns


def select_representatives_reference(archive, k):
    """``harness.select_representatives`` as a scan over the archive: each
    target takes the not-yet-chosen row with the least key (distance to the
    target, -W, row)."""
    from dice_pareto.harness import _labels

    n = len(archive)
    if n <= k:
        return list(zip(_labels(n), reversed(range(n))))
    w = archive.objectives[:, 0]
    t = archive.objectives[:, 1]
    taken: set[int] = set()
    chosen = []
    for target in np.linspace(t[-1], t[0], k):
        best_idx = None
        best_key = None
        for idx in range(n):
            if idx in taken:
                continue
            key = (abs(t[idx] - target), -w[idx], idx)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
        taken.add(best_idx)
        chosen.append(best_idx)
    return list(zip(_labels(k), chosen))
