"""Small 2-D geometry helpers for payoff-region export."""
from __future__ import annotations

import math

# a point this close to the chord between its hull neighbours lies on their
# edge and is dropped; far below the LP tolerances, so it only absorbs the
# rounding of support points that solve to the same edge
EDGE_TOL = 1e-12


def dedup_points(points, tol: float = 1e-7) -> list[tuple[float, float]]:
    """Drop points within ``tol`` (Euclidean) of an already kept one."""
    kept: list[tuple[float, float]] = []
    for p in points:
        p = (float(p[0]), float(p[1]))
        if all(_square_distance(p, q) > tol * tol for q in kept):
            kept.append(p)
    return kept


def convex_hull_ccw(points) -> list[tuple[float, float]]:
    """Convex hull in counter-clockwise order (monotone chain).

    Boundary points within EDGE_TOL of the chord between their neighbours
    are dropped, collinear ones included. Degenerate inputs return the
    single point or the two extreme points of a segment.
    """
    pts = sorted(set((float(p[0]), float(p[1])) for p in points))
    if len(pts) <= 2:
        return pts

    def on_edge(o, a, b):
        """The turn o -> a -> b is clockwise, straight, or counter-clockwise
        with a within EDGE_TOL of the chord o -> b: a is no hull vertex."""
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        return cross <= EDGE_TOL * math.hypot(b[0] - o[0], b[1] - o[1])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) > 1 and on_edge(lower[-2], lower[-1], p):
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) > 1 and on_edge(upper[-2], upper[-1], p):
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    # each chain keeps the extreme points it starts and ends at; drop those
    # too when they lie on the edge between their neighbours
    for p in (pts[0], pts[-1]):
        j = hull.index(p)
        if len(hull) > 3 and on_edge(hull[j - 1], p, hull[(j + 1) % len(hull)]):
            hull.pop(j)
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


def _square_distance(p, q) -> float:
    """Squared distance by multiplication: a float ``** 2`` raises
    OverflowError where a product goes to inf."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy
