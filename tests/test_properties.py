"""Property-based checks of the model recursion, the front sort, crowding,
representatives and front files.

Each ``evaluate_batch`` row is checked against the single-policy
``evaluate_policy``, and both against the 40-digit ``oracle.resimulate``;
each step loop is checked bit for bit against an earlier form of it in
``oracle``; a brute-force dominance scan is the reference for
``non_dominated_sort``, crowding each front on its own is the reference for
the one-pass crowding, and a row-by-row scan is the reference for
``select_representatives``.
"""

from __future__ import annotations

import functools
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracle import (
    batch_reference,
    brute_force_rank,
    crowding_by_front,
    resimulate,
    select_representatives_reference,
    simulate_reference,
)
from test_dynamics import DISTINCT, P

from dice_pareto import (
    FrontArchive,
    ModelDomainError,
    ModelParams,
    PolicyMatrix,
    crowding_distance,
    evaluate_batch,
    evaluate_policy,
    load_front,
    non_dominated_sort,
    simulate,
)
from dice_pareto import model
from dice_pareto.errors import ConfigError
from dice_pareto.harness import format_front_csv, select_representatives
from dice_pareto.model import _CHECKS, CONSUMPTION_FLOOR, _checked_consumption, discount_factor
from dice_pareto.nsga2 import _rank_and_crowd

# numpy's vectorised pow may differ from its scalar one in the last bit, so
# a batch row and the single-policy path agree to a few ulps, not bitwise
BATCH_REL_TOL = 1e-13
# float64 against 40 digits; the largest deviation seen is about 3e-15
ORACLE_REL_TOL = 1e-12

unit_floats = st.floats(-0.5, 1.5)  # both paths clip genes into [0, 1]


@st.composite
def genome_batches(draw):
    H = draw(st.sampled_from([1, 6, 37]))
    p = ModelParams(H=H, psi1=draw(st.sampled_from([0.0, 0.001, 0.05])))
    n = draw(st.integers(1, 8))
    return p, draw(arrays(float, (n, 2 * H), elements=unit_floats))


def assert_objectives_close(got, want, genome, p, rtol):
    """W within rtol of the sum of the absolute discounted utility terms that
    add up to it (that sum is |W| unless the terms cancel, and it sets the
    scale of W's rounding error either way); T_max within rtol of itself."""
    traj = simulate(PolicyMatrix.from_genome(genome), p)
    scale = sum(abs(U) / discount_factor(i, p) for i, U in enumerate(traj.derived["U"].tolist()))
    assert abs(got[0] - want[0]) <= rtol * scale, (got[0], want[0], scale)
    assert abs(got[1] - want[1]) <= rtol * abs(want[1]), (got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(genome_batches())
def test_batch_matches_scalar_row_by_row(case):
    p, genomes = case
    got = evaluate_batch(genomes, p)
    assert got.shape == (len(genomes), 2)
    for row, genome in zip(got, genomes):
        want = evaluate_policy(PolicyMatrix.from_genome(genome), p)
        assert_objectives_close(row, want, genome, p, BATCH_REL_TOL)


@st.composite
def oracle_batches(draw):
    H = draw(st.sampled_from([1, 6, 10]))
    n = draw(st.integers(1, 4))
    mu = draw(arrays(float, (n, H), elements=st.floats(0.0, 1.0)))
    # C = Q - s * Q loses relative accuracy in float64 as s nears 1, which
    # the 40-digit oracle does not; the batch-against-scalar property above
    # covers the whole range
    s = draw(arrays(float, (n, H), elements=st.floats(0.0, 0.9)))
    return ModelParams(H=H), np.hstack((mu, s))


@settings(max_examples=30, deadline=None)
@given(oracle_batches())
def test_batch_single_policy_and_oracle_agree(case):
    p, genomes = case
    batch = evaluate_batch(genomes, p)
    for row, genome in zip(batch, genomes):
        single = evaluate_policy(PolicyMatrix.from_genome(genome), p)
        assert_objectives_close(row, single, genome, p, BATCH_REL_TOL)
        _, W, T_max = resimulate(genome[:p.H], genome[p.H:])
        assert_objectives_close(single, (W, T_max), genome, p, ORACLE_REL_TOL)


def test_empty_batch_gives_empty_table():
    p = ModelParams(H=3)
    assert evaluate_batch(np.empty((0, 6)), p).shape == (0, 2)


# what a row scores must not depend on the rows scored with it: not on the
# size of its table, nor on its position there
COMPOSED = np.random.default_rng(11).random((120, 2 * ModelParams().H))


@functools.cache
def composed_whole() -> np.ndarray:
    return evaluate_batch(COMPOSED, ModelParams())


def assert_rows_as_in_whole(offset, size):
    part = evaluate_batch(COMPOSED[offset:offset + size], ModelParams())
    for k, row in enumerate(part):
        assert row.tobytes() == composed_whole()[offset + k].tobytes(), (offset, size, k)


def test_batch_row_does_not_depend_on_its_batch():
    for k in range(50):
        assert_rows_as_in_whole(k, 1)
    for offset in (0, 1, 7, 60):
        for size in (2, 13, 60):
            assert_rows_as_in_whole(offset, size)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, len(COMPOSED)).flatmap(
    lambda size: st.tuples(st.just(size), st.integers(0, len(COMPOSED) - size))))
def test_any_contiguous_slice_scores_as_in_the_whole_batch(drawn):
    size, offset = drawn
    assert_rows_as_in_whole(offset, size)


# T_AT runs +0.0, -0.0, +0.0, ... and ends on -0.0, whatever the policy: no
# forcing reaches it (xi1 = 0, and xi1 * F is -0.0 since F < 0), T_LO stays
# negative so phi12 * T_LO is -0.0, and phi11 < 0 flips the sign of its zero
SIGNED_ZERO_T_AT = ModelParams(T_AT0=0.0, T_LO0=-1.0, xi1=0.0, phi11=-0.5, phi12=0.0,
                               phi21=0.0, f0=-20.0, f1=-20.0)

# gamma = 0.5 and 2 take numpy's sqrt and square fast paths for K ** gamma;
# psi1 = 0 is the default; p_b = 20000, zeta11 = -1 and gamma = 1.5 make rows
# fail in K, M_AT and C; rho = 1000 overflows a discount factor at step 21,
# so every run fails before step 0; in SIGNED_ZERO_T_AT the peak is a tie of
# +0.0 and -0.0. The last four guard the operations that Python floats do
# not take as numpy scalars do: a zero damage divisor at step 0 (1 + psi1
# T_AT0 = 0), a negative and a zero gamma, and K = 0 at step 1 under a
# negative gamma (delta_K = 1 and s = 0)
TABLE_LOOP_CALIBRATIONS = [ModelParams(), ModelParams(gamma=0.5), ModelParams(gamma=2.0),
                           ModelParams(psi1=0.05), DISTINCT, ModelParams(p_b=20000.0),
                           ModelParams(zeta11=-1.0), ModelParams(gamma=1.5),
                           ModelParams(rho=1000.0), SIGNED_ZERO_T_AT,
                           ModelParams(T_AT0=-1.0, psi1=1.0, psi2=0.0), ModelParams(gamma=-0.5),
                           ModelParams(gamma=0.0), ModelParams(delta_K=1.0, gamma=-0.5)]


def batch_outcome(genomes, p, score=evaluate_batch):
    """The bytes of ``score(genomes, p)``, or its error's message and row."""
    try:
        return score(genomes, p).tobytes()
    except ModelDomainError as exc:
        return str(exc), exc.row


@st.composite
def table_calls(draw):
    """A sequence of calls over up to 10 (calibration, width) keys, more than
    the workspaces kept, so that a workspace is reused, also after a call
    with failing rows, and dropped: (p, n, seed) for each call."""
    keys = draw(st.lists(st.tuples(st.sampled_from(TABLE_LOOP_CALIBRATIONS), st.integers(1, 80)),
                         min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=12))
    return [(*keys[k], draw(st.integers(0, 2**32 - 1))) for k in picks]


@settings(max_examples=60, deadline=None)
@given(table_calls())
def test_table_loop_matches_its_reference(calls):
    for p, n, seed in calls:
        genomes = np.random.default_rng(seed).uniform(-0.5, 1.5, (n, 2 * p.H))
        want = batch_outcome(genomes, p, batch_reference)
        assert batch_outcome(genomes, p) == want


def test_threads_at_one_width_get_the_serial_results():
    p = ModelParams()
    tables = [np.random.default_rng(seed).random((60, 2 * p.H)) for seed in (1, 2)]
    serial = [evaluate_batch(table, p).tobytes() for table in tables]
    got = [[], []]

    def score(k):
        for _ in range(30):
            got[k].append(evaluate_batch(tables[k], p).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the step loop
    try:
        threads = [threading.Thread(target=score, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[serial[0]] * 30, [serial[1]] * 30]


def test_workspaces_are_reused_and_bounded():
    p = ModelParams(H=3)
    evaluate_batch(np.full((5, 6), 0.5), p)
    ws = model._workspace(p, 5, threading.get_ident())
    hits = model._workspace.cache_info().hits
    evaluate_batch(np.full((5, 6), 0.25), p)
    assert model._workspace.cache_info().hits == hits + 1
    assert model._workspace(p, 5, threading.get_ident()) is ws
    bound = model._workspace.cache_info().maxsize
    assert bound == 8
    for n in range(1, 3 * bound):
        evaluate_batch(np.full((n, 6), 0.5), p)
    assert model._workspace.cache_info().currsize == bound


def test_a_table_step_reads_whole_rows_or_0d_constants():
    # a (k, 1) column broadcasts and a strided view strides, each at about
    # twice the cost of a call on contiguous rows
    p, n = ModelParams(), 3
    ws = model._workspace(p, n, threading.get_ident())
    assert len(ws.steps) == p.H
    for views in (ws.shared, *ws.steps):
        for a in views:
            assert a.ndim == 0 or (a.flags.c_contiguous and a.shape[-1] == n), a.shape


def test_a_failing_parameter_set_builds_no_workspace():
    # rho = 1000 overflows the discount factor of step 21: the call raises
    # before step 0, and nothing is built or cached for the parameter set
    p = ModelParams(rho=1000.0)
    model._workspace.cache_clear()
    for n in (1, 3):
        with pytest.raises(ModelDomainError, match="^step 21, row 0: arithmetic overflow"):
            evaluate_batch(np.full((n, 2 * p.H), 0.5), p)
    assert model._workspace.cache_info().currsize == 0


def test_a_warm_call_allocates_no_history():
    # the (H+1, 15, n) history alone is 891 KiB at n = 200, and one (H, n)
    # table 58 KiB; a warm call writes its history and whole-horizon terms
    # into its workspace and peaks at about 176 KiB at n = 200 and 190 KiB at
    # n = 400: numpy's iteration buffers (up to 64 KiB per operand) for the
    # operations whose operands broadcast or stride
    p = ModelParams()
    for n in (200, 400):
        genomes = np.random.default_rng(4).random((n, 2 * p.H))
        evaluate_batch(genomes, p)
        tracemalloc.start()
        try:
            evaluate_batch(genomes, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, n


def as_bytes(*values):
    return np.array(values, dtype=float).tobytes()


GENOME_STEPS = model._genome_steps


def strictly(run, policy, p):
    """``run(policy, p)`` with every warning raised as an error, checking
    that its step loop ran once and returned a float64 history (a complex
    power would make it complex128), or never ran when the policy-independent
    paths of ``p`` fail."""
    histories = []

    def steps(*args):
        histories.append(GENOME_STEPS(*args))
        return histories[-1]

    with warnings.catch_warnings(), mock.patch.object(model, "_genome_steps", steps):
        warnings.simplefilter("error")
        try:
            return run(policy, p)
        finally:
            runs = 0 if model._exogenous(p).failure else 1
            assert [history.dtype for history in histories] == [np.float64] * runs


@settings(max_examples=160, deadline=None)
@given(st.sampled_from(TABLE_LOOP_CALIBRATIONS), st.integers(0, 2**32 - 1))
def test_genome_loop_matches_its_reference(p, seed):
    policy = PolicyMatrix.from_genome(np.random.default_rng(seed).uniform(-0.5, 1.5, 2 * p.H))
    try:
        W, T_max, columns = simulate_reference(policy, p)
    except ModelDomainError as exc:
        for run in (simulate, evaluate_policy):
            with pytest.raises(ModelDomainError) as got:
                strictly(run, policy, p)
            assert (str(got.value), got.value.row) == (str(exc), None)
        return
    traj = strictly(simulate, policy, p)
    assert as_bytes(traj.W, traj.T_max) == as_bytes(W, T_max)
    assert as_bytes(*strictly(evaluate_policy, policy, p)) == as_bytes(W, T_max)
    got = {**traj.states, **traj.derived}
    assert list(got) == list(columns)
    for name, column in columns.items():
        assert got[name].tobytes() == column.tobytes(), name


def test_signed_zero_peak_is_the_last_of_its_ties():
    # a step-by-step maximum keeps the later of two equal values, so the
    # peak of +0.0, -0.0, ..., -0.0 is -0.0 on either rank
    p = SIGNED_ZERO_T_AT
    genomes = np.random.default_rng(5).random((7, 2 * p.H))
    policy = PolicyMatrix.from_genome(genomes[0])
    T_AT = simulate(policy, p).states["T_AT"]
    assert (T_AT == 0).all()
    assert np.signbit(T_AT).tolist() == [i % 2 == 1 for i in range(p.H + 1)]
    assert np.signbit(evaluate_policy(policy, p).T_max)
    peaks = evaluate_batch(genomes, p)[:, 1]
    assert (peaks == 0).all() and np.signbit(peaks).all()


# T_max at mu = 1 under the default calibration: every step then emits only
# its land-use emissions, whatever the saving rates, and the carbon and
# climate steps are monotone in emissions (non-negative coefficients,
# forcing rising with M_AT), so no genome in the box peaks lower
T_MAX_FLOOR = 2.203851932646312


def unit_tables(mu=st.floats(0.0, 1.0)):
    """(n, 2H) genomes at the default calibration: mu genes drawn from ``mu``
    and s genes from [0, 1]."""
    return st.integers(1, 8).flatmap(lambda n: st.tuples(
        arrays(float, (n, P.H), elements=mu), arrays(float, (n, P.H), elements=st.floats(0.0, 1.0))
    ).map(np.hstack))


@settings(max_examples=40, deadline=None)
@given(unit_tables())
def test_the_last_step_controls_never_raise_the_peak_or_lower_welfare(genomes):
    # mu and s of step H - 1 reach only its emissions and investment, which
    # first move the states after the horizon, and zeroing them raises the
    # step's consumption: the last two genes are free for W alone
    zeroed = genomes.copy()
    zeroed[:, [P.H - 1, 2 * P.H - 1]] = 0.0
    scores = evaluate_batch(np.vstack((genomes, zeroed)), P)
    before, after = np.split(scores, 2)
    assert after[:, 1].tobytes() == before[:, 1].tobytes()
    assert (after[:, 0] >= before[:, 0]).all()


@settings(max_examples=40, deadline=None)
@given(st.one_of(unit_tables(), unit_tables(mu=st.floats(0.95, 1.0))))
def test_no_genome_peaks_below_full_mitigation(genomes):
    assert (evaluate_batch(genomes, P)[:, 1] >= T_MAX_FLOOR).all()


@settings(max_examples=40, deadline=None)
@given(unit_tables(mu=st.just(1.0)))
def test_full_mitigation_peaks_at_the_floor_for_any_saving_rates(genomes):
    constant_s = np.repeat(genomes[:, P.H:P.H + 1], P.H, axis=1)
    for s in (genomes[:, P.H:], constant_s):
        genomes[:, P.H:] = s
        peaks = evaluate_batch(genomes, P)[:, 1]
        assert peaks.tobytes() == np.full(len(genomes), T_MAX_FLOOR).tobytes()


# what the drawn calibrations scale from the default by factors in [0, 2]:
# the carbon, forcing and climate coefficients, which the floor argument
# above needs non-negative, and the damage, output, emission-intensity,
# land-use and non-CO2 forcing terms
FLOOR_SCALED = ("zeta11", "zeta12", "zeta21", "zeta22", "zeta23", "zeta32", "zeta33", "phi11",
                "phi12", "phi21", "phi22", "xi1", "xi2", "F_2x", "psi1", "psi2", "gamma", "E_L0",
                "g_sigma", "sigma0", "f0", "f1")


@st.composite
def floor_tables(draw):
    """A drawn calibration (H in 1..59, each of ``FLOOR_SCALED`` scaled,
    delta_EL anywhere in [0, 1] so that land-use emissions stay
    non-negative) and a table of its genomes: row 0 is mu = 1, the other
    rows are drawn from the box."""
    factors = {name: draw(st.floats(0.0, 2.0)) for name in FLOOR_SCALED}
    try:
        p = ModelParams(H=draw(st.integers(1, 59)), delta_EL=draw(st.floats(0.0, 1.0)),
                        **{name: getattr(P, name) * f for name, f in factors.items()})
    except ConfigError:
        assume(False)
    genomes = draw(arrays(float, (draw(st.integers(2, 8)), 2 * p.H), elements=st.floats(0.0, 1.0)))
    genomes[0, :p.H] = 1.0
    return p, genomes


@settings(max_examples=40, deadline=None)
@given(floor_tables())
def test_no_genome_peaks_below_full_mitigation_on_drawn_calibrations(case):
    p, genomes = case
    try:
        peaks = evaluate_batch(genomes, p)[:, 1]
    except ModelDomainError:
        assume(False)
    assert (peaks >= peaks[0]).all(), peaks


def first_failure(K, M_AT, C):
    """The message and row of the first value that is not positive, scanning
    step by step, then K, M_AT and floored C, then row by row."""
    paths = (K, M_AT, np.maximum(C, CONSUMPTION_FLOOR))
    for step in range(len(K)):
        for check, path in enumerate(paths):
            for row, value in enumerate(np.atleast_1d(path[step])):
                if not value > 0:
                    where = f"step {step}" if K.ndim == 1 else f"step {step}, row {row}"
                    prefix = "" if np.isfinite(value) else "arithmetic overflow: "
                    return f"{where}: {prefix}{_CHECKS[check]}, got {value}", K.ndim > 1
    return None


check_values = st.sampled_from([2.0, 1.0, 1e-300, 0.0, -0.0, -1.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(), (1,), (3,)]).flatmap(lambda rows: st.integers(0, 4).flatmap(
    lambda steps: arrays(float, (3, steps) + rows, elements=check_values))))
def test_checks_name_the_first_failure_in_step_check_row_order(paths):
    K, M_AT, C = paths.copy()
    want = first_failure(K, M_AT, C)
    if want is None:
        assert np.array_equal(_checked_consumption(K, M_AT, C),
                              np.maximum(paths[2], CONSUMPTION_FLOOR))
        return
    message, has_row = want
    with pytest.raises(ModelDomainError) as exc:
        _checked_consumption(K, M_AT, C)
    assert str(exc.value) == message
    assert (exc.value.row is not None) == has_row


# a coarse grid makes ties, duplicates and chains common
objective_tables = st.integers(0, 30).flatmap(lambda n: st.one_of(
    arrays(float, (n, 2), elements=st.integers(0, 4).map(float)),
    arrays(float, (n, 2), elements=st.floats(-1e6, 1e6)),
))


@settings(max_examples=200, deadline=None)
@given(objective_tables)
def test_non_dominated_sort_matches_brute_force(objectives):
    assert non_dominated_sort(objectives).tolist() == brute_force_rank(objectives).tolist()


# integer-valued objectives keep ties common and make scaling preserve them
grid_tables = st.integers(0, 12).flatmap(
    lambda n: arrays(float, (n, 2), elements=st.integers(-50, 50).map(float)))


@settings(max_examples=200, deadline=None)
@given(grid_tables, st.floats(1e-3, 1e3), st.sampled_from([0, 1]))
def test_crowding_invariants(objectives, scale, column):
    d = crowding_distance(objectives)
    assert d.shape == (len(objectives),)
    assert not np.isnan(d).any()
    assert (d >= 0).all()
    if len(objectives) <= 2:
        assert np.isinf(d).all()
    for values in objectives.T if len(objectives) else ():
        # one of the rows at each end of either objective is a boundary row
        assert np.isinf(d[values == values.min()]).any()
        assert np.isinf(d[values == values.max()]).any()
    scaled = objectives.copy()
    scaled[:, column] *= scale
    d_scaled = crowding_distance(scaled)
    assert np.array_equal(np.isinf(d_scaled), np.isinf(d))
    finite = np.isfinite(d)
    np.testing.assert_allclose(d_scaled[finite], d[finite], rtol=1e-12, atol=0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(objective_tables, grid_tables))
def test_rank_and_crowd_matches_front_by_front_reference(objectives):
    rank, crowding = _rank_and_crowd(objectives, len(objectives))
    assert rank.tolist() == brute_force_rank(objectives).tolist()
    assert np.array_equal(crowding, crowding_by_front(objectives, rank))


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def archives(draw):
    """Fronts as ``optimize`` writes them, in ``load_front``'s order: sorted
    distinct T_max values paired with sorted distinct W values, so no row
    dominates another, and genes in [0, 1] (signed zeros and subnormals
    included)."""
    n = draw(st.integers(1, 6))
    genes = 2 * draw(st.integers(0, 3))
    W, T_max = (sorted(draw(st.lists(finite_floats, min_size=n, max_size=n, unique=True)))
                for _ in range(2))
    genomes = draw(arrays(float, (n, genes), elements=st.floats(-0.0, 1.0)))
    return FrontArchive(genomes=genomes, objectives=np.column_stack((W, T_max)))


@settings(max_examples=100, deadline=None)
@given(archives())
def test_front_file_round_trips_exactly(archive):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "front.csv"
        path.write_text(format_front_csv(archive))
        loaded = load_front(path)
    assert loaded.objectives.tobytes() == archive.objectives.tobytes()
    assert loaded.genomes.tobytes() == archive.genomes.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.sampled_from([-0.0, 1.0]),
                          st.booleans()), min_size=1, max_size=8))
def test_a_repeated_front_row_names_its_line_and_the_first(rows):
    # the first row, in file order, whose (W, T_max) an earlier row holds
    # (+0.0 == -0.0), with blank lines counted
    text, number, first_lines, want = "W,T_max,mu_0,s_0\n", 1, {}, None
    for W, T_max, blank_before in rows:
        number += 1 + blank_before
        text += "\n" * blank_before + f"{W!r},{T_max!r},0.5,0.5\n"
        first = first_lines.setdefault((W, T_max), number)
        if want is None and first != number:
            want = f"{number}: (W, T_max) repeats line {first}"
    # without a repeat: the first row, in file order, that another row
    # dominates, and the first row that dominates it
    rows_by_line = {line: row for row, line in first_lines.items()}
    for line, (W, T_max) in rows_by_line.items() if want is None else ():
        by = [other for other, (W_o, T_o) in rows_by_line.items()
              if W_o >= W and T_o <= T_max and (W_o, T_o) != (W, T_max)]
        if by:
            want = f"{line}: (W, T_max) is dominated by line {by[0]}"
            break
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "front.csv"
        path.write_text(text)
        if want is None:
            assert len(load_front(path)) == len(rows)
            return
        with pytest.raises(ConfigError) as exc:
            load_front(path)
    assert str(exc.value) == f"{path}:{want}"


@st.composite
def sorted_archives(draw):
    """Archives in ``load_front``'s order, half of them on an integer grid
    where ties in T_max, in W and in the distance to a target are common."""
    n = draw(st.integers(1, 40))
    values = draw(st.sampled_from([st.integers(0, 6).map(float),
                                   st.floats(-1e3, 1e3, allow_nan=False)]))
    objectives = draw(arrays(float, (n, 2), elements=values))
    objectives = objectives[np.lexsort((-objectives[:, 0], objectives[:, 1]))]
    return FrontArchive(genomes=np.empty((n, 0)), objectives=objectives)


@settings(max_examples=300, deadline=None)
@given(sorted_archives(), st.integers(2, 12))
def test_representatives_match_the_row_by_row_scan(archive, k):
    assert select_representatives(archive, k) == select_representatives_reference(archive, k)
