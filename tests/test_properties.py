"""Property-based checks of the model recursion, the front sort, crowding and
front files.

Each ``evaluate_batch`` row is checked against the single-policy
``evaluate_policy``, and both against the 40-digit ``oracle.resimulate``; a
brute-force dominance scan is the reference for ``non_dominated_sort``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracle import resimulate

from dice_pareto import (
    FrontArchive,
    ModelParams,
    PolicyMatrix,
    crowding_distance,
    evaluate_batch,
    evaluate_policy,
    load_front,
    non_dominated_sort,
    simulate,
)
from dice_pareto.harness import format_front_csv
from dice_pareto.model import discount_factor

# numpy's vectorised pow/log2 may differ from its scalar ones in the last
# bit, so a batch row and the single-policy path agree to a few ulps, not
# bitwise
BATCH_REL_TOL = 1e-13
# float64 against 40 digits; the largest deviation seen is about 3e-15
ORACLE_REL_TOL = 1e-12

unit_floats = st.floats(-0.5, 1.5)  # both paths clip genes into [0, 1]


@st.composite
def genome_batches(draw):
    H = draw(st.sampled_from([0, 1, 6, 37]))
    p = ModelParams(H=H, psi1=draw(st.sampled_from([0.0, 0.001, 0.05])))
    n = draw(st.integers(1, 8))
    return p, draw(arrays(float, (n, 2 * H), elements=unit_floats))


def assert_objectives_close(got, want, genome, p, rtol):
    """W within rtol of the sum of the absolute discounted utility terms that
    add up to it (that sum is |W| unless the terms cancel, and it sets the
    scale of W's rounding error either way); T_max within rtol of itself."""
    traj = simulate(PolicyMatrix.from_genome(genome), p)
    scale = sum(abs(d.U) / discount_factor(i, p) for i, d in enumerate(traj.derived))
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
    H = draw(st.sampled_from([0, 1, 6, 10]))
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


def _brute_force_rank(objectives):
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


# a coarse grid makes ties, duplicates and chains common
objective_tables = st.integers(0, 30).flatmap(lambda n: st.one_of(
    arrays(float, (n, 2), elements=st.integers(0, 4).map(float)),
    arrays(float, (n, 2), elements=st.floats(-1e6, 1e6)),
))


@settings(max_examples=200, deadline=None)
@given(objective_tables)
def test_non_dominated_sort_matches_brute_force(objectives):
    assert non_dominated_sort(objectives).tolist() == _brute_force_rank(objectives).tolist()


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


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def archives(draw):
    n = draw(st.integers(1, 6))
    genes = 2 * draw(st.integers(0, 3))
    objectives = draw(arrays(float, (n, 2), elements=finite_floats))
    genomes = draw(arrays(float, (n, genes), elements=finite_floats))
    order = np.lexsort((-objectives[:, 0], objectives[:, 1]))  # load_front's order
    return FrontArchive(genomes=genomes[order], objectives=objectives[order])


@settings(max_examples=100, deadline=None)
@given(archives())
def test_front_file_round_trips_exactly(archive):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "front.csv"
        path.write_text(format_front_csv(archive))
        loaded = load_front(path)
    assert loaded.objectives.tobytes() == archive.objectives.tobytes()
    assert loaded.genomes.tobytes() == archive.genomes.tobytes()
