import math

import numpy as np
import pytest

from hypervolume import T_REF, W_REF, hypervolume_2d


def union_area(points):
    """Brute-force oracle: area of the union of the boxes [W_REF, W] x [T, T_REF],
    summed cell by cell over the grid their corners span."""
    boxes = [(w, t) for w, t in points if w > W_REF and t < T_REF]
    ws = sorted({W_REF, *(w for w, _ in boxes)})
    ts = sorted({T_REF, *(t for _, t in boxes)})
    area = 0.0
    for w_lo, w_hi in zip(ws, ws[1:]):
        for t_lo, t_hi in zip(ts, ts[1:]):
            if any(w >= w_hi and t <= t_lo for w, t in boxes):
                area += (w_hi - w_lo) * (t_hi - t_lo)
    return area


def test_single_point_is_its_box():
    assert hypervolume_2d([(W_REF + 10.0, T_REF - 2.0)]) == 20.0


def test_empty_and_outside_box_score_zero():
    assert hypervolume_2d([]) == 0.0
    outside = [(W_REF, 3.0), (W_REF - 1.0, 3.0), (W_REF + 5.0, T_REF), (W_REF + 5.0, 9.0)]
    assert hypervolume_2d(outside) == 0.0


def test_ties_duplicates_and_dominated_points():
    base = [(W_REF + 4, 3.0), (W_REF + 2, 2.0)]
    noisy = base + [(W_REF + 4, 3.0),          # duplicate
                    (W_REF + 4, 4.0),          # tie in W, dominated
                    (W_REF + 1, 2.0),          # tie in T, dominated
                    (W_REF + 1, 5.0),          # dominated
                    (W_REF - 3, 1.0)]          # outside the box
    assert hypervolume_2d(base) == union_area(base) == 4 * 2.5 + 2 * 1.0
    assert hypervolume_2d(noisy) == hypervolume_2d(base)


@pytest.mark.parametrize("seed", range(40))
def test_matches_oracle_on_integer_grids(seed):
    # small integer grids force ties and duplicates; sums are exact in float
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 25))
    points = [(W_REF + float(w), T_REF - float(t))
              for w, t in rng.integers(-3, 8, size=(n, 2))]
    assert hypervolume_2d(points) == union_area(points)
    assert hypervolume_2d(points[::-1]) == hypervolume_2d(points)


@pytest.mark.parametrize("seed", range(20))
def test_matches_oracle_on_front_like_floats(seed):
    rng = np.random.default_rng(1000 + seed)
    w = W_REF + rng.uniform(-500.0, 3000.0, size=30)
    t = rng.uniform(2.0, 6.0, size=30)
    points = list(zip(w, t))
    assert math.isclose(hypervolume_2d(points), union_area(points), rel_tol=1e-12)


def test_rejects_non_finite_points():
    with pytest.raises(ValueError):
        hypervolume_2d([(W_REF + 1.0, float("nan"))])
