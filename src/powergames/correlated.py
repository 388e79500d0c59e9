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

An LP master's columns are only the profiles of actions that survive
iterated strict dominance by a pure action (``surviving_actions``): every CE
puts probability 0 on the others (Brandenburger and Dekel 1987), so the
master over the survivors has the CE polytope's points, padded with zeros.
The reduction runs only when a master needs an LP: the best profile for the
objective is separated first over every profile, and when nothing cuts it
off it is the answer, and the best over the survivors is that same profile
(a CE has no mass off them, and both take the first index on a tie). A
master that needs an LP opens warm at that cut point, its cuts added, with
no cold solve; a master with cuts answers a new objective from its
resident basis when no column prices out under it. The separation still
ranges over every deviation, ``maximize`` returns the point over every
profile, and ``ce_violation`` checks it against the full tensor, sharing no
code with the reduction.

Every master row, here and in ``communication``, is written in one profile
layout: ``_told_index(dims, i)``, whose row a lists the profiles where
player i is told a. Payoffs and the master's point are laid out by it once
(``v[told]``), and ``_map_rows`` builds every deviation-map row from them.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce

import numpy as np

from .errors import BudgetError, SolverStallError
from .geometry import convex_hull_ccw, dedup_points
from .model import PayoffTensor, _decode
from .simplex import LpProblem, Resident, solve_lp

# a freshly solved report must verify at least this cleanly
ACCEPT_VIOLATION = 1e-8
# deviation rows with expected gain above this are added to the master LP
ROW_GEN_TOL = 1e-10
ROW_GEN_BATCH = 8
# directions of a payoff-region trace
REGION_DIRECTIONS = 64
# payoff comparisons made at once by the dominance test, a bound on its scratch
DOMINANCE_CHUNK = 1 << 22
# profile layouts kept by _told_index, one per game shape and player
TOLD_CACHE = 16
# cap on the entries of an LP's simplex data A_all, rows * (columns + rows)
# with a surplus or artificial column per row; 12e6 float64 entries are 96 MB
MASTER_BUDGET = 12 * 10**6

log = logging.getLogger(__name__)


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


@lru_cache(maxsize=TOLD_CACHE)
def _told_index(dims: tuple[int, ...], i: int) -> np.ndarray:
    """The profile layout every master row is written in: row a holds the
    flat indices of the profiles of ``dims`` where player i is told a, the
    other players' actions in mixed-radix order. ``v[told]`` lays a flat
    vector over profiles out by player i's action. Computed once per shape
    and player while cached, and read-only."""
    told = np.moveaxis(np.arange(int(np.prod(dims))).reshape(dims), i, 0).reshape(dims[i], -1)
    told.setflags(write=False)
    return told


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


def _dominated(u: np.ndarray) -> np.ndarray:
    """Which rows of ``u`` some other row beats strictly in every column,
    compared at most DOMINANCE_CHUNK entries at a time."""
    m, n = u.shape
    step = max(1, DOMINANCE_CHUNK // (m * n))
    return reduce(np.logical_or, [(u[c:c + step, None] > u).all(axis=2).any(axis=0)
                                  for c in range(0, m, step)])


def surviving_actions(tensors: list[PayoffTensor], prior: np.ndarray) -> list[list[np.ndarray]]:
    """Iterated strict dominance by a pure action, per player and type.

    ``tensors[t]`` is the game at joint type t, in the mixed-radix order of
    ``prior``'s shape; a plain game is one joint type, ``prior`` of shape
    (1,) * K. Returns ``alive[i][t_i]``, the ascending actions of player i
    at type t_i that survive. Action a goes when some action c beats it,
    ``u_i(c, a_-i) > u_i(a, a_-i)`` on the stored floats (no tolerance, and
    a tie keeps both), at every joint type of positive prior where i has
    type t_i and at every opponent profile that survives at those types.
    Repeats until nothing goes.
    """
    k = prior.ndim
    dims = tensors[0].dims
    joints = list(itertools.product(*map(range, prior.shape)))
    alive = [[np.ones(dims[i], dtype=bool) for _ in range(prior.shape[i])] for i in range(k)]
    # per player i and type t_i with a joint type of positive prior: the
    # joint types it meets, and i's payoffs there, a row per own action and
    # the opponent profiles of each joint type side by side
    blocks = []
    for i in range(k):
        own_first = [i] + [j for j in range(k) if j != i]
        for t_i in range(prior.shape[i]):
            meets = [t for t, joint in enumerate(joints) if joint[i] == t_i and prior[joint] > 0]
            if meets:
                u = np.concatenate([tensors[t].player_payoffs(i).transpose(own_first)
                                    .reshape(dims[i], -1) for t in meets], axis=1)
                blocks.append((i, alive[i][t_i], [[alive[j][joints[t][j]] for j in own_first[1:]]
                                                 for t in meets], u))
    # a block is checked again only after an opponent lost an action: what
    # its own check removed leaves no survivor beaten by another
    removals = [0] * k
    seen = [-1] * len(blocks)
    changed = True
    while changed:
        changed = False
        for b, (i, own, opponents, u) in enumerate(blocks):
            others = sum(removals) - removals[i]
            if seen[b] == others or np.count_nonzero(own) < 2:
                continue
            seen[b] = others
            # the surviving opponent profiles, joint type by joint type
            cols = np.concatenate([reduce(np.multiply.outer, masks).reshape(-1)
                                   for masks in opponents])
            gone = _dominated(u[own][:, cols])
            if gone.any():
                own[np.flatnonzero(own)[gone]] = False
                removals[i] += 1
                changed = True
    return [[np.flatnonzero(own) for own in per_type] for per_type in alive]


def dominance_support(tensors: list[PayoffTensor], prior: np.ndarray) -> np.ndarray:
    """The ascending columns of p(a|t) (type-major, ``tensors`` and ``prior``
    as in ``surviving_actions``) that can carry mass: at a joint type of
    positive prior, the profiles of surviving actions; at one of zero prior,
    every profile, since no honest player's obedience binds there.

    Every CE, and every device of the canonical family, puts no mass off
    these columns: a player told an action that c beats everywhere it can
    be told it gains by playing c (Brandenburger and Dekel 1987), and by
    induction the same holds at each round of the elimination. So a master
    over them has the full polytope's points, padded with zeros.
    """
    alive = surviving_actions(tensors, prior)
    dims = tensors[0].dims
    s = tensors[0].profile_count
    profiles = np.arange(s).reshape(dims)
    support = np.concatenate([
        t * s + (profiles[np.ix_(*[alive[i][t_i] for i, t_i in enumerate(joint)])].reshape(-1)
                 if prior[joint] > 0 else profiles.reshape(-1))
        for t, joint in enumerate(itertools.product(*map(range, prior.shape)))])
    if log.isEnabledFor(logging.DEBUG):
        for i, per_type in enumerate(alive):
            for t_i, own in enumerate(per_type):
                log.debug("dominance: player %d type %d keeps %d of %d actions %s",
                          i, t_i, own.size, dims[i], own.tolist())
        log.debug("dominance: master keeps %d of %d columns", support.size, len(tensors) * s)
    return support


def check_master_size(rows: int, columns: int):
    """BudgetError when an LP of ``rows`` rows over ``columns`` columns has
    more entries in its simplex data ``A_all``, rows x (columns + rows), than
    MASTER_BUDGET. Every master runs this before each solve, its first
    included, as its cuts grow it."""
    work = rows * (columns + rows)
    if work > MASTER_BUDGET:
        raise BudgetError(
            f"LP with {columns} columns and {rows} rows needs {work} entries of "
            f"simplex data, rows x (columns + rows) (budget {MASTER_BUDGET}); "
            "shrink the action grid or the type space"
        )


class CePolytopeSolver:
    """Cutting-plane master over {x >= 0 : each of ``simplices`` equal,
    contiguous blocks of ``columns`` sums to 1, and every row ``row . x >=
    0`` that ``separate(x)`` yields as ``(key, row)`` when x violates it
    holds}. Each key is added once. ``for_tensor`` is the CE polytope, one
    block over every profile, separated by ``_canonical_cuts`` as
    ``solve_commeq``'s canonical master is, with a block per joint type.

    ``reduction()``, when given, returns the ascending columns that can
    carry mass at any point of the polytope (``dominance_support``); without
    it every column can. The master pays for it only when it needs an LP:

    - Before its first cut the master is a simplex per block, whose optimum
      puts each block's mass on its best column (the first, on a tie). That
      point over every column is separated first, and when nothing cuts it
      off it is returned with 0 pivots, ``reduction`` never run. This is the
      point the reduced master's first solve would give: a point of the
      polytope has all its mass on columns ``reduction`` keeps, so the best
      over those is the same column, the first index on a tie in both.
    - Otherwise ``reduction`` runs once, and the master's own columns are the
      ones it returns: its objective, equality rows and cut rows are
      restricted to them. When a kept column is not the full point's, the
      best point over the kept columns is separated in turn and, when
      uncut, returned with 0 pivots (one column per block is the only
      feasible point). When it is the same point, it was just cut, so the
      LP follows at once.
    - The LP opens at that cut point, which is what a solve of the master
      with no cut would return: its cuts are added and, once the size check
      below passes, the first solve starts warm from the point's basis, its
      column in each block (``simplex.Resident.at``), the same basis and
      factors that cold solve ends on, without its pivots. No master solves
      cold unless ``solve_lp`` abandons a warm start.

    ``separate`` always sees a point padded with zeros to full width, so
    deviations range over every action, and ``maximize`` returns that
    padded point.

    Generated rows describe the polytope, not the objective, so they are kept
    and reused across objectives (directional sweeps get cheap after the
    first few solves). The master's final basis stays resident across rounds
    and objectives: each later solve starts from the last optimal one
    (``solve_lp``'s ``start``), which takes a round's new rows with their
    surplus columns basic for the dual simplex to repair, or a new objective
    for primal phase 2 to follow. When the last solve ended clean (its
    point cut by nothing new) and a new objective prices no column out of
    that basis (``Resident.optimal_under``), the warm solve would make no
    pivot and end at the last point, so that point is returned with 0
    pivots and no LP built, and the basis stays resident. When ``solve_lp``
    abandons a start it runs its cold two-phase solve, so the answers never
    depend on it. Before each solve ``check_master_size`` refuses a master
    whose rows and kept columns have outgrown MASTER_BUDGET; as each round
    returns or adds a row, that one check also bounds the rounds. Not safe
    for concurrent use; make one per worker.
    """

    def __init__(self, columns: int, simplices: int, separate, reduction=None):
        # block t holds columns [t * width, (t + 1) * width)
        self._full = np.arange(columns).reshape(simplices, -1)
        self.separate = separate
        self._reduction = reduction
        # the master's own columns, its equality rows over them and its
        # blocks of them, set by _restrict when the first LP is needed
        self.support = self._eq = self._kept = None
        # the generated rows over the support, unit max each, are the first
        # _m rows of _rows, and their right-hand sides the first _m of _zeros;
        # a round's rows are appended and no row is changed once written
        self._rows = self._zeros = None
        self._m = 0
        self._keys: set = set()
        self._start = None
        # the point of the last solve, while its basis is resident and no
        # row has been added since
        self._last = None

    @classmethod
    def for_tensor(cls, tensor: PayoffTensor):
        """The CE polytope of ``tensor``: the profile simplex and obedience
        rows, cut as the canonical family at one joint type (one honest block
        per player, with one term), reduced to the profiles of the actions
        that survive iterated strict dominance when an LP is needed."""
        told = [_told_index(tensor.dims, i) for i in range(tensor.players)]
        blocks = [(i, 0, 0, [(1.0, 0, 0, tensor.flat(i)[told[i]])], None, told[i])
                  for i in range(tensor.players)]
        return cls(tensor.profile_count, 1, partial(_canonical_cuts, blocks),
                   partial(dominance_support, [tensor], np.ones((1,) * tensor.players)))

    def maximize(self, objective: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Maximize a linear objective, over every column, on the polytope.

        Returns (point over every column, objective value, simplex pivots).
        """
        opening = False
        if not self._m:
            full = self._peak(objective, self._full)
            cuts = self.separate(full)
            first = next(cuts, None)
            if first is None:
                if self.support is None and self._reduction is not None:
                    log.debug("master: best point uncut; dominance reduction skipped")
                return full, float(objective @ full), 0
            if self.support is None:
                self._restrict()
            x = self._peak(objective, self._kept)
            if not np.array_equal(x, full):
                cuts = self.separate(x)
                first = next(cuts, None)
                if first is None:
                    return x, float(objective @ x), 0
            # the rest of the separation only when the LP follows
            self._add([first, *cuts])
            opening = True
        elif self._last is not None and self._start.optimal_under(objective[self.support]):
            log.debug("master: no column prices out of the resident basis; "
                      "last point kept, no LP built")
            x = self._last.copy()
            return x, float(objective[self.support] @ x[self.support]), 0
        self._last = None
        n, k = self.support.size, len(self._eq)
        base = LpProblem(n, objective[self.support], np.zeros((0, n)), np.zeros(0),
                         self._eq, np.ones(k), "master")
        total_iters = 0
        # each round returns or adds a row, so the size check ends the loop
        while True:
            m = self._m
            check_master_size(m + k, n)
            if opening:
                # x is what a solve of the uncut master gives: open at its basis
                self._start, opening = Resident.at(base, np.flatnonzero(x[self.support])), False
            # only this round's rows were checked; solve_lp takes the earlier
            # ones, from the buffers of the last problem's, as unchanged
            prob = base._with_rows(self._rows, self._zeros, m)
            sol = solve_lp(prob, start=self._start)
            total_iters += sol.iterations
            if sol.status != "optimal":
                # the polytope is nonempty and bounded, so this is internal
                raise SolverStallError(f"master LP reported {sol.status}")
            self._start = sol.resident
            x = np.zeros(len(objective))
            x[self.support] = sol.x
            self._add(self.separate(x))
            if self._m == m:
                self._last = x.copy()
                return x, float(sol.objective_value), total_iters

    @staticmethod
    def _peak(objective: np.ndarray, blocks) -> np.ndarray:
        """The point with each block's mass on its best column, the first on
        a tie."""
        x = np.zeros(len(objective))
        for block in blocks:
            x[block[objective[block].argmax()]] = 1.0
        return x

    def _restrict(self):
        """Run the reduction, and build the blocks of the columns it keeps
        and the equality rows over them, a unit on each kept column of a
        block."""
        simplices, width = self._full.shape
        self.support = support = (np.arange(self._full.size) if self._reduction is None
                                  else self._reduction())
        self._kept = np.split(support, np.searchsorted(support, width * np.arange(1, simplices)))
        self._eq = np.zeros((simplices, support.size))
        self._eq[support // width, np.arange(support.size)] = 1.0
        self._rows, self._zeros = np.empty((0, support.size)), np.zeros(0)

    def _add(self, cuts):
        """Append the rows of ``cuts`` whose keys are new, over the support,
        each scaled to unit max coefficient: payoff differences span orders of
        magnitude, and unscaled rows give bases ill-conditioned enough that
        pricing cycles on noise."""
        m = self._m
        for key, row in cuts:
            if key not in self._keys:
                self._keys.add(key)
                self._append(row[self.support])
        new = self._rows[m:self._m]
        new /= np.abs(new).max(axis=1, keepdims=True)
        if not np.isfinite(new).all():
            raise ValueError("coefficients must be finite")

    def _append(self, row: np.ndarray):
        """Write ``row`` after the others, in a buffer grown to twice the
        rows when full, with as many zeros for their right-hand sides."""
        if self._m == self._rows.shape[0]:
            grown = np.empty((max(16, 2 * self._m), self._rows.shape[1]))
            grown[:self._m] = self._rows[:self._m]
            self._rows, self._zeros = grown, np.zeros(grown.shape[0])
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
    objective = _weighted(tensor, weights)
    solver = solver or CePolytopeSolver.for_tensor(tensor)
    flat, _, iters = solver.maximize(objective)
    return _report(tensor, flat, iters)


def _weighted(tensor: PayoffTensor, weights) -> np.ndarray:
    """The objective over profiles of one weight per player's payoff."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (tensor.players,) or not np.isfinite(w).all():
        raise ValueError("need one finite weight per player")
    if not w.any():
        raise ValueError("weight vector must not be all zero")
    objective = np.zeros(tensor.profile_count)
    for i in range(tensor.players):
        objective += w[i] * tensor.flat(i)
    return objective


def ce_violation(tensor: PayoffTensor, dist: JointDistribution) -> float:
    """Worst expected deviation gain; zero (up to fp) iff ``dist`` is a CE.

    Computes every (recommendation, deviation) gain directly against the
    tensor, one matrix product per player, independently of any LP
    bookkeeping (none of the master's row helpers is called).
    """
    if tuple(dist.dims) != tuple(tensor.dims):
        raise ValueError("distribution dims do not match tensor")
    p = dist.as_array()
    k = tensor.players
    worst = 0.0
    for i in range(k):
        mi = tensor.dims[i]
        own_first = (i, *range(i), *range(i + 1, k))
        pm = p.transpose(own_first).reshape(mi, -1)
        um = tensor.player_payoffs(i).transpose(own_first).reshape(mi, -1)
        s = pm @ um.T  # s[a, b]: expected payoff of playing b when told a
        # the diagonal gains are exactly 0, no more than the floor ``worst`` starts at
        worst = max(worst, float((s - np.diag(s)[:, None]).max()))
    return worst


def ce_payoff_region(tensor: PayoffTensor,
                     directions: int = REGION_DIRECTIONS) -> list[tuple[float, float]]:
    """Support-function trace of the 2-player CE payoff region.

    Solves one directional LP per angle 2*pi*k/directions, deduplicates the
    resulting expected-payoff points (1e-7 metric) and returns them as a
    convex polygon in counter-clockwise order. A point is verified once: a
    direction whose point has the bytes of the last one (as when the
    resident basis answers it) reuses that point's report.
    """
    if tensor.players != 2:
        raise ValueError("payoff-region export is 2-player only")
    if directions < 4:
        raise ValueError("need at least 4 directions")
    solver = CePolytopeSolver.for_tensor(tensor)
    points = []
    last = rep = None
    for k in range(directions):
        theta = 2.0 * math.pi * k / directions
        flat, _, iters = solver.maximize(_weighted(tensor, (math.cos(theta), math.sin(theta))))
        point = flat.tobytes()
        if point != last:
            rep, last = _report(tensor, flat, iters), point
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
