"""Property-based checks of the batch simulator, the front sort, crowding and
front files.

The scalar ``evaluate_policy`` is the reference for ``evaluate_batch``; a
brute-force dominance scan is the reference for ``non_dominated_sort``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dice_pareto import (
    FrontArchive,
    ModelParams,
    PolicyMatrix,
    crowding_distance,
    evaluate_batch,
    evaluate_policy,
    load_front,
    non_dominated_sort,
)
from dice_pareto.harness import format_front_csv

# numpy's vectorised pow/log2 may differ from the C library in the last bit,
# so the batch and the scalar path agree to a few ulps, not bitwise
BATCH_REL_TOL = 1e-13

unit_floats = st.floats(-0.5, 1.5)  # both paths clip genes into [0, 1]


@st.composite
def genome_batches(draw):
    H = draw(st.sampled_from([0, 1, 6, 37]))
    p = ModelParams(H=H, psi1=draw(st.sampled_from([0.0, 0.001, 0.05])))
    n = draw(st.integers(1, 8))
    return p, draw(arrays(float, (n, 2 * H), elements=unit_floats))


@settings(max_examples=60, deadline=None)
@given(genome_batches())
def test_batch_matches_scalar_row_by_row(case):
    p, genomes = case
    got = evaluate_batch(genomes, p)
    assert got.shape == (len(genomes), 2)
    for row, genome in zip(got, genomes):
        want = evaluate_policy(PolicyMatrix.from_genome(genome), p)
        np.testing.assert_allclose(row, want, rtol=BATCH_REL_TOL, atol=0)


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
