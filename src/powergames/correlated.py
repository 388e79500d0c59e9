"""Correlated equilibria: constraint systems, welfare/directional optima by LP,
candidate verification, payoff-region tracing, and mediator sampling.

The CE polytope of a payoff tensor is ``{p on the profile simplex :
sum_{a_-i} p(a_i, a_-i) (u_i(a_i, a_-i) - u_i(b, a_-i)) >= 0}`` for every
player i and ordered action pair (a_i, b). Optimizing a linear objective over
it is done by delayed row generation: solve a small master LP over the rows
violated so far, scan the full deviation system, add the worst offenders,
repeat until clean. This is exact (the final point is feasible for the full
system and optimal for a relaxation of it) and keeps each LP at a size the
dense simplex handles comfortably.

Every master row, here and in ``communication``, is written in one profile
layout: ``_told_index(dims, i)``, whose row a lists the profiles where
player i is told a. Payoffs and the master's point are laid out by it once
(``v[told]``), and ``_map_rows`` builds every deviation-map row from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import SolverStallError
from .geometry import convex_hull_ccw, dedup_points
from .model import PayoffTensor, _decode
from .simplex import make_problem, solve_lp

# a freshly solved report must verify at least this cleanly
ACCEPT_VIOLATION = 1e-8
# deviation rows with expected gain above this are added to the master LP
ROW_GEN_TOL = 1e-10
ROW_GEN_BATCH = 8
# directions of a payoff-region trace
REGION_DIRECTIONS = 64


@dataclass(frozen=True)
class JointDistribution:
    """Probability vector over joint action profiles (mixed-radix layout)."""

    dims: tuple[int, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = int(np.prod(self.dims))
        if self.probs.shape != (n,):
            raise ValueError("probability vector length mismatch")
        if self.probs.min(initial=0.0) < -1e-12:
            raise ValueError("negative probability beyond tolerance")
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        self.probs.setflags(write=False)

    def as_array(self) -> np.ndarray:
        """Probabilities reshaped to ``dims``."""
        return self.probs.reshape(self.dims)

    @staticmethod
    def from_raw(dims, raw: np.ndarray) -> "JointDistribution":
        """Clamp solver dust in [-1e-12, 0) to zero and renormalize."""
        p = np.asarray(raw, dtype=float).copy()
        if p.min(initial=0.0) < -1e-12:
            raise ValueError("negative probability beyond tolerance")
        np.clip(p, 0.0, None, out=p)
        total = p.sum()
        if total <= 0:
            raise ValueError("distribution has no mass")
        return JointDistribution(tuple(dims), p / total)


@dataclass(frozen=True)
class EquilibriumReport:
    distribution: JointDistribution
    per_player_value: tuple[float, ...]
    welfare: float
    max_violation: float
    solver_iterations: int


def _told_index(dims: tuple[int, ...], i: int) -> np.ndarray:
    """The profile layout every master row is written in: row a holds the
    flat indices of the profiles of ``dims`` where player i is told a, the
    other players' actions in mixed-radix order. ``v[told]`` lays a flat
    vector over profiles out by player i's action."""
    return np.moveaxis(np.arange(int(np.prod(dims))).reshape(dims), i, 0).reshape(dims[i], -1)


def _deviation_table(x: np.ndarray, told: np.ndarray, terms) -> np.ndarray:
    """D[a, b]: what playing b when told a is worth to player i at the point
    ``x`` over p(a|t): per term (w, _, fr, u), w times the expectation under
    reported-type block fr of u, player i's payoffs laid out by ``told``."""
    d = np.zeros((told.shape[0],) * 2)
    for w, _, fr, u in terms:
        d += w * (x[fr * told.size + told] @ u.T)
    return d


def _top(gains: np.ndarray) -> np.ndarray:
    """Flat indices of the ROW_GEN_BATCH largest ``gains`` above
    ROW_GEN_TOL, largest first."""
    top = np.argsort(gains, axis=None)[::-1][:ROW_GEN_BATCH]
    return top[gains.reshape(-1)[top] > ROW_GEN_TOL]


def _map_rows(terms, told: np.ndarray, devs: np.ndarray, n: int) -> np.ndarray:
    """One row over p(a|t) per row d of ``devs``, a deviation map (d[a] is
    played when told a): the sum over the terms (w, _, fr, u) of w * u[d(a)]
    on the profiles where player i is told a, in reported-type block fr."""
    s = told.size
    rows = np.zeros((len(devs), n))
    for w, _, fr, u in terms:
        rows[:, fr * s + told] += w * u[devs]
    return rows


def _canonical_cuts(blocks, x: np.ndarray):
    """Separation for the canonical family at the device ``x``. In each
    block, D[a, b] is what playing b when told a is worth after the report.
    An honest report (its ``truth`` unused) gets the most violated obedience
    rows D[a, a] >= D[a, b], built in one array (a diagonal gain is exactly
    0, so never picked); a lie gets the cut of its best deviation map, truth
    >= sum_a D[a, d(a)] with d(a) = argmax_b D[a, b], which no other map
    violates more."""
    for i, t_i, t_rep, terms, truth, told in blocks:
        mi, s = told.shape[0], told.size
        d = _deviation_table(x, told, terms)
        if t_rep == t_i:
            a, b = np.divmod(_top(d - np.diag(d)[:, None]), mi)
            if a.size:
                rows = np.zeros((a.size, x.size))
                for w, _, fr, u in terms:
                    rows[np.arange(a.size)[:, None], fr * s + told[a]] += w * (u[a] - u[b])
                yield from zip([(i, t_i, int(ak), int(bk)) for ak, bk in zip(a, b)], rows)
            continue
        dev = d.argmax(axis=1)
        if d[np.arange(mi), dev].sum() - truth @ x > ROW_GEN_TOL:
            yield (i, t_i, t_rep, tuple(dev)), truth - _map_rows(terms, told, dev[None], x.size)[0]


class CePolytopeSolver:
    """Cutting-plane master over {x >= 0 : ``eq_rows`` hold, and so does every
    row ``row . x >= 0`` that ``separate(x)`` yields as ``(key, row)`` when
    x violates it}. Each key is added once. ``for_tensor`` is the CE polytope,
    separated by ``_canonical_cuts`` as ``solve_commeq``'s canonical master is.

    Generated rows describe the polytope, not the objective, so they are kept
    and reused across objectives (directional sweeps get cheap after the
    first few solves). The master's final basis stays resident across rounds
    and objectives: each solve starts from the last optimal one
    (``solve_lp``'s ``start``), which takes a round's new rows with their
    surplus columns basic for the dual simplex to repair, or a new objective
    for primal phase 2 to follow. When ``solve_lp`` abandons that start it runs its cold
    two-phase solve, so the answers never depend on it. ``check_size(rows,
    columns)``, when given, runs before each master solve and may raise to
    refuse a master that has grown too large. Not safe for concurrent use;
    make one per worker.
    """

    def __init__(self, eq_rows, separate, check_size=None):
        self.eq_rows = eq_rows
        self.separate = separate
        self.check_size = check_size
        # the generated rows, unit max each, are the first _m rows of _rows;
        # a round's rows are appended and no row is changed once written
        self._rows: np.ndarray | None = None
        self._m = 0
        self._keys: set = set()
        self._start = None

    @classmethod
    def for_tensor(cls, tensor: PayoffTensor):
        """The CE polytope of ``tensor``: the profile simplex and obedience
        rows, cut as the canonical family at one joint type (one honest block
        per player, with one term)."""
        told = [_told_index(tensor.dims, i) for i in range(tensor.players)]
        blocks = [(i, 0, 0, [(1.0, 0, 0, tensor.flat(i)[told[i]])], None, told[i])
                  for i in range(tensor.players)]
        return cls([(np.ones(tensor.profile_count), 1.0)], partial(_canonical_cuts, blocks))

    def maximize(self, objective: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Maximize a linear objective over the polytope.

        Returns (point, objective value, simplex pivots).
        """
        base = make_problem(objective, eq_rows=self.eq_rows, name="master")
        if self._rows is None:
            self._rows = np.empty((0, base.n))
        total_iters = 0
        for _ in range(10 * len(objective) + 100):
            m = self._m
            if self.check_size is not None:
                self.check_size(m + len(self.eq_rows), len(objective))
            # only this round's rows were checked; solve_lp sees the earlier
            # ones as the same memory as the last problem's
            prob = base._with_rows(self._rows[:m], np.zeros(m))
            sol = solve_lp(prob, start=self._start)
            total_iters += sol.iterations
            if sol.status != "optimal":
                # the polytope is nonempty and bounded, so this is internal
                raise SolverStallError(f"master LP reported {sol.status}")
            self._start = sol.resident
            for key, row in self.separate(sol.x):
                if key not in self._keys:
                    self._keys.add(key)
                    self._append(row)
            if self._m == m:
                return sol.x, float(sol.objective_value), total_iters
            # scaled to unit max coefficient: payoff differences span orders
            # of magnitude, and unscaled rows give bases ill-conditioned
            # enough that pricing cycles on noise
            new = self._rows[m:self._m]
            new /= np.abs(new).max(axis=1, keepdims=True)
            if not np.isfinite(new).all():
                raise ValueError("coefficients must be finite")
        raise SolverStallError("row generation failed to converge")

    def _append(self, row: np.ndarray):
        """Write ``row`` after the others, in a buffer grown to twice the
        rows when full."""
        if self._m == self._rows.shape[0]:
            grown = np.empty((max(16, 2 * self._m), self._rows.shape[1]))
            grown[:self._m] = self._rows[:self._m]
            self._rows = grown
        self._rows[self._m] = row
        self._m += 1


def _report(tensor: PayoffTensor, flat: np.ndarray, iters: int) -> EquilibriumReport:
    dist = JointDistribution.from_raw(tensor.dims, flat)
    values = tuple(float(dist.probs @ tensor.flat(i)) for i in range(tensor.players))
    violation = ce_violation(tensor, dist)
    if violation > ACCEPT_VIOLATION:
        raise SolverStallError(f"CE solution failed verification ({violation:.3e})")
    return EquilibriumReport(dist, values, float(sum(values)), violation, iters)


def solve_welfare_ce(tensor: PayoffTensor) -> EquilibriumReport:
    """Correlated equilibrium maximizing the sum of expected utilities."""
    solver = CePolytopeSolver.for_tensor(tensor)
    flat, _, iters = solver.maximize(tensor.welfare_flat())
    return _report(tensor, flat, iters)


def solve_directional_ce(tensor: PayoffTensor, weights,
                         solver: CePolytopeSolver | None = None) -> EquilibriumReport:
    """CE maximizing a weighted sum of the players' expected utilities."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (tensor.players,) or not np.isfinite(w).all():
        raise ValueError("need one finite weight per player")
    if not w.any():
        raise ValueError("weight vector must not be all zero")
    objective = np.zeros(tensor.profile_count)
    for i in range(tensor.players):
        objective += w[i] * tensor.flat(i)
    solver = solver or CePolytopeSolver.for_tensor(tensor)
    flat, _, iters = solver.maximize(objective)
    return _report(tensor, flat, iters)


def ce_violation(tensor: PayoffTensor, dist: JointDistribution) -> float:
    """Worst expected deviation gain; zero (up to fp) iff ``dist`` is a CE.

    Computes every (recommendation, deviation) gain directly against the
    tensor, one matrix product per player, independently of any LP
    bookkeeping (none of the master's row helpers is called).
    """
    if tuple(dist.dims) != tuple(tensor.dims):
        raise ValueError("distribution dims do not match tensor")
    p = dist.as_array()
    worst = 0.0
    for i in range(tensor.players):
        mi = tensor.dims[i]
        pm = np.moveaxis(p, i, 0).reshape(mi, -1)
        um = np.moveaxis(tensor.player_payoffs(i), i, 0).reshape(mi, -1)
        s = pm @ um.T  # s[a, b]: expected payoff of playing b when told a
        # the diagonal gains are exactly 0, no more than the floor ``worst`` starts at
        worst = max(worst, float((s - np.diag(s)[:, None]).max()))
    return worst


def ce_payoff_region(tensor: PayoffTensor,
                     directions: int = REGION_DIRECTIONS) -> list[tuple[float, float]]:
    """Support-function trace of the 2-player CE payoff region.

    Solves one directional LP per angle 2*pi*k/directions, deduplicates the
    resulting expected-payoff points (1e-7 metric) and returns them as a
    convex polygon in counter-clockwise order.
    """
    if tensor.players != 2:
        raise ValueError("payoff-region export is 2-player only")
    if directions < 4:
        raise ValueError("need at least 4 directions")
    solver = CePolytopeSolver.for_tensor(tensor)
    points = []
    for k in range(directions):
        theta = 2.0 * math.pi * k / directions
        rep = solve_directional_ce(tensor, (math.cos(theta), math.sin(theta)),
                                   solver=solver)
        points.append(rep.per_player_value)
    return convex_hull_ccw(dedup_points(points, tol=1e-7))


def mediator_sample(dist: JointDistribution, seed: int) -> tuple[int, ...]:
    """Draw one joint profile by inverse CDF in mixed-radix order.

    The same seed always returns the same draw.
    """
    return _decode(_draw(np.random.default_rng(seed), dist.probs), dist.dims)


def _draw(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Index drawn by inverse CDF from nonnegative weights ``probs`` (one
    ``rng.random()`` call)."""
    total = probs.sum()
    if total <= 0:
        raise ValueError("cannot sample from an all-zero distribution")
    u = rng.random() * total
    return min(int(np.searchsorted(np.cumsum(probs), u, side="left")), probs.size - 1)
