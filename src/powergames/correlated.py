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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import SolverStallError
from .geometry import convex_hull_ccw, dedup_points
from .model import PayoffTensor, _decode
from .simplex import LpProblem, make_problem, solve_lp

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


def build_ce_constraints(tensor: PayoffTensor, objective: np.ndarray | None = None) -> LpProblem:
    """The full CE linear program: one row per (player, recommendation,
    deviation) pair, the probability-simplex equality, and nonnegativity.

    Default objective is social welfare.
    """
    n = tensor.profile_count
    rows = []
    for i, u in enumerate(_moved_payoffs(tensor)):
        for a in range(tensor.dims[i]):
            for b in range(tensor.dims[i]):
                if b != a:
                    rows.append((_told(u[a] - u[b], tensor.dims, i, a), 0.0))
    if objective is None:
        objective = tensor.welfare_flat()
    return make_problem(objective, ineq_rows=rows,
                        eq_rows=[(np.ones(n), 1.0)], name="ce")


def _moved_payoffs(tensor: PayoffTensor) -> list[np.ndarray]:
    """Each player's payoffs with the player's own action as axis 0."""
    return [np.moveaxis(tensor.player_payoffs(i), i, 0) for i in range(tensor.players)]


def _told(values: np.ndarray, dims: tuple[int, ...], i: int,
          a: int | None = None) -> np.ndarray:
    """Flat coefficients over the profiles of ``dims``: ``values`` (an array
    over the other players' actions, e.g. u_i(b, a_-i)) on the profiles where
    player i is told ``a``, or on every profile when ``a`` is None; zero
    elsewhere. Every obedience and deviation row places its payoffs here."""
    out = np.zeros(dims)
    # index tuples, not np.moveaxis views: this runs once per LP row
    lead = (slice(None),) * i
    out[lead + (slice(None) if a is None else slice(a, a + 1),)] = values[lead + (None,)]
    return out.reshape(-1)


def _own_first(dims: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Axis order with player i's action first, the others after in order
    (what np.moveaxis(_, i, 0) does, without its argument checks)."""
    return (i,) + tuple(k for k in range(len(dims)) if k != i)


def _deviation_table(p: np.ndarray, dims: tuple[int, ...], i: int, terms) -> np.ndarray:
    """D[a, b]: what playing b when told a is worth to player i at ``p`` (one
    row per joint type): per term (w, _, fr, u), w times the expectation under
    row fr of u, player i's payoffs with its own action as axis 0."""
    mi, order = dims[i], _own_first(dims, i)
    d = np.zeros((mi, mi))
    for w, _, fr, u in terms:
        pm = p[fr].reshape(dims).transpose(order).reshape(mi, -1)
        d += w * (pm @ u.reshape(mi, -1).T)
    return d


def _most_violated(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of the ROW_GEN_BATCH largest gains, a != b, above ROW_GEN_TOL,
    largest first."""
    top = np.argsort(gains, axis=None)[::-1][:ROW_GEN_BATCH]
    a, b = np.divmod(top, gains.shape[0])
    keep = (a != b) & (gains.reshape(-1)[top] > ROW_GEN_TOL)
    return a[keep], b[keep]


def _reported(terms, n: int, s: int, place) -> np.ndarray:
    """Row over p(a|t): ``w * place(u)`` in each term's reported-type block."""
    row = np.zeros(n)
    for w, _, fr, u in terms:
        row[fr * s:(fr + 1) * s] += w * place(u)
    return row


def _canonical_cuts(blocks, dims: tuple[int, ...], x: np.ndarray):
    """Separation for the canonical family at the device ``x``. In each
    block, D[a, b] is what playing b when told a is worth after the report.
    An honest report (its ``truth`` unused) gets the most violated obedience
    rows D[a, a] >= D[a, b], built in one array; a lie gets the cut of its
    best deviation map, truth >= sum_a D[a, d(a)] with d(a) = argmax_b
    D[a, b], which no other map violates more. A row places player i's
    payoffs u[c] (over the others' actions) on the profiles where i is told
    a, which are row a of ``told``."""
    s = int(np.prod(dims))
    p = x.reshape(-1, s)
    for i, t_i, t_rep, terms, truth in blocks:
        mi = dims[i]
        told = np.arange(s).reshape(dims).transpose(_own_first(dims, i)).reshape(mi, -1)
        d = _deviation_table(p, dims, i, terms)
        if t_rep == t_i:
            a, b = _most_violated(d - np.diag(d)[:, None])
            if a.size:
                rows = np.zeros((a.size, x.size))
                for w, _, fr, u in terms:
                    u = u.reshape(mi, -1)
                    rows[np.arange(a.size)[:, None], fr * s + told[a]] += w * (u[a] - u[b])
                yield from zip([(i, t_i, int(ak), int(bk)) for ak, bk in zip(a, b)], rows)
            continue
        dev = d.argmax(axis=1)
        if d[np.arange(mi), dev].sum() - truth @ x > ROW_GEN_TOL:
            row = np.zeros(x.size)
            for w, _, fr, u in terms:
                row[fr * s + told] += w * u.reshape(mi, -1)[dev]
            yield (i, t_i, t_rep, tuple(dev)), truth - row


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
        blocks = [(i, 0, 0, [(1.0, 0, 0, u)], None)
                  for i, u in enumerate(_moved_payoffs(tensor))]
        return cls([(np.ones(tensor.profile_count), 1.0)],
                   partial(_canonical_cuts, blocks, tensor.dims))

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
