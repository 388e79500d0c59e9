"""Small 2-D geometry helpers for payoff-region export."""
from __future__ import annotations


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

    Collinear boundary points are dropped. Degenerate inputs return the
    single point or the two extreme points of a segment.
    """
    pts = sorted(set((float(p[0]), float(p[1])) for p in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) > 1 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) > 1 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else [pts[0], pts[-1]]


def _square_distance(p, q) -> float:
    """Squared distance by multiplication: a float ``** 2`` raises
    OverflowError where a product goes to inf."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy
