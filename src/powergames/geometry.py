"""Small 2-D geometry helpers for payoff-region export."""
from __future__ import annotations

import numpy as np


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
    return hull if len(hull) >= 3 else pts[:1] if len(pts) == 1 else [pts[0], pts[-1]]


def polygon_contains(polygon, point, tol: float = 1e-7) -> bool:
    """Point-in-convex-polygon with absolute slack ``tol``.

    Accepts degenerate polygons (one point, a segment).
    """
    x, y = float(point[0]), float(point[1])
    verts = [(float(p[0]), float(p[1])) for p in polygon]
    if not verts:
        return False
    if len(verts) == 1:
        return _square_distance((x, y), verts[0]) <= tol * tol
    if len(verts) == 2:
        return _segment_distance(verts[0], verts[1], (x, y)) <= tol
    n = len(verts)
    for k in range(n):
        ax, ay = verts[k]
        bx, by = verts[(k + 1) % n]
        cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
        edge = max(abs(bx - ax), abs(by - ay), 1.0)
        if cross < -tol * edge:
            return False
    return True


def _square_distance(p, q) -> float:
    """Squared distance by multiplication: a float ``** 2`` raises
    OverflowError where a product goes to inf."""
    dx, dy = p[0] - q[0], p[1] - q[1]
    return dx * dx + dy * dy


def _segment_distance(a, b, p) -> float:
    av = np.asarray(a)
    bv = np.asarray(b)
    pv = np.asarray(p)
    d = bv - av
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.hypot(*(pv - av)))
    t = float(np.clip((pv - av) @ d / denom, 0.0, 1.0))
    return float(np.hypot(*(pv - (av + t * d))))
