"""Exact 2-D hypervolume of a welfare/temperature front (Zitzler & Thiele 1999).

Orientation follows the package: welfare W is maximised, peak temperature
T_max is minimised. The hypervolume is the area of the union of the boxes
spanned by each point and the reference point, so only points with
W > W_REF and T_max < T_REF contribute.
"""

from __future__ import annotations

import math
from typing import Iterable

# Fixed reference point for every front the benchmark scores. W_REF lies
# below every front seen at the seed commit (about 2.18e5 to 2.20e5) and
# T_REF above every front's hot end (about 4.3 to 5.1 degC). The box is
# wide enough that the seed-to-seed spread of the score stays small.
W_REF = 217000.0
T_REF = 5.5


def hypervolume_2d(points: Iterable[tuple[float, float]]) -> float:
    """Area dominated by ``points`` (W, T_max) inside the reference box.

    Sort-and-sweep in O(n log n): walk the points from the highest W down;
    each point whose T_max undercuts every point seen so far adds the strip
    between its T_max and the previous lowest T_max. Ties, duplicates,
    dominated points and points outside the box are all allowed.
    """
    inside = []
    for w, t in points:
        w, t = float(w), float(t)
        if not (math.isfinite(w) and math.isfinite(t)):
            raise ValueError(f"non-finite point ({w}, {t})")
        if w > W_REF and t < T_REF:
            inside.append((w, t))
    inside.sort(key=lambda wt: (-wt[0], wt[1]))
    area = 0.0
    lowest_t = T_REF
    for w, t in inside:
        if t < lowest_t:
            area += (w - W_REF) * (lowest_t - t)
            lowest_t = t
    return area
