"""Communication equilibria over Bayesian channel-gain type spaces.

Each player's private type is the vector of gains into its own receiver.
Nature draws a joint type from a prior (uniform from a config; a caller of
``build_type_space`` may pass any table), players report types to a mediator,
and the mediator draws a joint power profile from a per-report conditional
distribution. The system of conditionals is a communication equilibrium when
no player gains by lying about its type or disobeying its recommendation.

Two incentive-constraint families are supported, each cut lazily on the
``correlated.CePolytopeSolver`` master over p(a|t):

* ``literal``: one row per (player, true type, reported type, fixed action);
  the deviator plays that fixed action whatever it is told. Each round adds
  the most violated fixed actions of every (player, true type, report).
* ``canonical``: deviation maps from recommendations to actions (Myerson
  1986, Forges 1986): obedience rows for honest reports and, per lie, the
  cut of the best map, which picks each recommendation's best reply and so
  separates exactly. Constant maps are a subset, so the canonical optimum
  never exceeds the literal one.

``build_commeq_lp`` still writes the literal family out as one dense LP, a
reference for tests and for ``simplex.dump_problem``; the solve does not use
it.

Either family's master has one probability simplex per joint type and the
one size budget of every master, ``correlated.check_master_size``, which
``solve_commeq`` also checks at the starting size before any payoff tensor
is built, and ``build_commeq_lp`` at its dense size.

The canonical master runs over the columns of p(a|t) that survive
``correlated.dominance_support``: per player and type, iterated strict
dominance by a pure action against the opponents' surviving actions at every
opponent type of positive conditional prior. An honest player told a
dominated action gains by disobeying, so no device of the family puts mass
there. The literal family keeps every column: its deviator commits to one
action before hearing the recommendation, as in a coarse equilibrium, and a
coarse equilibrium can put weight on a dominated action (Moulin and Vial
1978), so no such argument covers it. ``commeq_violation`` checks either
family's device over every column.

With one joint type the canonical family is the CE polytope, and CE is cut
as that family by its oracle, ``correlated._canonical_cuts``. The literal LP
is then the coarse-CE LP (no constant action pays more than obeying), which
equals the CE LP only for binary actions. Every row of CE and of both
families is written in one profile layout, ``correlated._told_index``, and
every deviation-map row (a lie's best map, the literal cuts' constant maps
and the dense LP's) is built by ``correlated._map_rows``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .correlated import (
    ACCEPT_VIOLATION,
    CePolytopeSolver,
    _canonical_cuts,
    _deviation_table,
    _map_rows,
    _told_index,
    _top,
    check_master_size,
    dominance_support,
)
from .errors import SolverStallError
from .model import (
    DEFAULT_ALPHA,
    DEFAULT_NOISE,
    DEFAULT_PACKET_LEN,
    ChannelMatrix,
    GameInstance,
    PayoffTensor,
    PowerGrid,
    _decode,
    _encode,
    build_payoff_tensor,
)
from .simplex import LpProblem, make_problem

FORMULATIONS = ("literal", "canonical")   # incentive-constraint families
TYPE_MODES = ("diagonal", "product")      # see build_type_space


@dataclass(frozen=True)
class GameFamily:
    """A power-control game with the channel left open (it comes from types)."""

    grids: tuple[PowerGrid, ...]
    alpha: float = DEFAULT_ALPHA
    noise: float = DEFAULT_NOISE
    packet_len: int = DEFAULT_PACKET_LEN

    @property
    def players(self) -> int:
        return len(self.grids)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(g.levels for g in self.grids)

    def instance(self, channel: ChannelMatrix) -> GameInstance:
        return GameInstance(channel, self.grids, self.alpha, self.noise, self.packet_len)


@dataclass(frozen=True)
class TypeSpace:
    """Per-player type lists plus a joint prior.

    A type of player i is the tuple ``(g[0][i], ..., g[K-1][i])`` of gains
    into receiver i, ordered by transmitter index. ``prior`` has shape
    ``(|T_1|, ..., |T_K|)``.
    """

    types: tuple[tuple[tuple[float, ...], ...], ...]
    prior: np.ndarray = field(repr=False)

    def __post_init__(self):
        k = len(self.types)
        if k < 1:
            raise ValueError("at least one player required")
        for per_player in self.types:
            if not per_player:
                raise ValueError("empty type list")
            for t in per_player:
                if len(t) != k:
                    raise ValueError("each type must list one gain per transmitter")
                if any(not math.isfinite(g) or g < 0 for g in t):
                    raise ValueError("gains must be finite and nonnegative")
        if self.prior.shape != self.type_dims:
            raise ValueError("prior shape must match type counts")
        if self.prior.min() < 0:
            raise ValueError("prior must be nonnegative")
        if abs(float(self.prior.sum()) - 1.0) > 1e-12:
            raise ValueError("prior must sum to 1")
        self.prior.setflags(write=False)

    @property
    def players(self) -> int:
        return len(self.types)

    @property
    def type_dims(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.types)

    @property
    def joint_count(self) -> int:
        return int(np.prod(self.type_dims))

    def joint_types(self):
        return itertools.product(*[range(d) for d in self.type_dims])

    def encode(self, joint) -> int:
        return _encode(joint, self.type_dims)

    def decode(self, index: int) -> tuple[int, ...]:
        return _decode(index, self.type_dims)

    def channel_for(self, joint) -> ChannelMatrix:
        k = self.players
        g = [[0.0] * k for _ in range(k)]
        for i in range(k):
            column = self.types[i][joint[i]]
            for j in range(k):
                g[j][i] = column[j]
        return ChannelMatrix(tuple(tuple(row) for row in g))


def build_type_space(gains, players: int, mode: str = "diagonal",
                     prior=None) -> TypeSpace:
    """Type space from one gain grid shared by every link.

    ``gains`` is a sequence of values. ``diagonal`` indexes all gains into a
    receiver by a single superscript (type n takes the n-th value on every
    incoming link); ``product`` takes the Cartesian product of the grid over
    the incoming links. ``prior`` is an explicit joint table; ``None`` means
    uniform.
    """
    if mode not in TYPE_MODES:
        raise ValueError(f"mode must be one of {TYPE_MODES}")
    grid = [float(v) for v in gains]
    if not grid:
        raise ValueError("empty gain grid")
    if mode == "diagonal":
        own = tuple((g,) * players for g in grid)
    else:
        own = tuple(itertools.product(grid, repeat=players))
    types = (own,) * players
    dims = tuple(len(t) for t in types)
    if prior is None:
        table = np.full(dims, 1.0 / int(np.prod(dims)))
    else:
        table = np.asarray(prior, dtype=float).reshape(dims)
    return TypeSpace(types, table)


def conditional_prior(space: TypeSpace, i: int, t_i: int) -> np.ndarray:
    """q(t_-i | t_i): Bayes posterior over the other players' types."""
    if not 0 <= i < space.players:
        raise IndexError("player index out of range")
    if not 0 <= t_i < space.type_dims[i]:
        raise IndexError("type index out of range")
    sl = [slice(None)] * space.players
    sl[i] = t_i
    joint = space.prior[tuple(sl)]
    total = float(joint.sum())
    if total <= 0.0:
        raise ValueError("cannot condition on a zero-probability type")
    return joint / total


def per_type_tensors(space: TypeSpace, family: GameFamily) -> list[PayoffTensor]:
    """Payoff tensor of the complete-information game at every joint type."""
    if space.players != family.players:
        raise ValueError("type space and game family disagree on player count")
    return [build_payoff_tensor(family.instance(space.channel_for(joint)))
            for joint in space.joint_types()]


@dataclass(frozen=True)
class CommDevice:
    """Conditional profile distributions p(.|t), one row per joint type."""

    space: TypeSpace
    action_dims: tuple[int, ...]
    conditionals: np.ndarray = field(repr=False)  # (|T|, prod(action_dims))

    def __post_init__(self):
        s = int(np.prod(self.action_dims))
        if self.conditionals.shape != (self.space.joint_count, s):
            raise ValueError("conditional table shape mismatch")
        if self.conditionals.min() < -1e-12:
            raise ValueError("negative conditional probability")
        if np.abs(self.conditionals.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("each conditional must sum to 1")
        self.conditionals.setflags(write=False)

    @staticmethod
    def from_raw(space: TypeSpace, action_dims, raw: np.ndarray) -> "CommDevice":
        p = np.asarray(raw, dtype=float).copy()
        if p.min() < -1e-12:
            raise ValueError("negative conditional probability beyond tolerance")
        np.clip(p, 0.0, None, out=p)
        totals = p.sum(axis=1, keepdims=True)
        if (totals <= 0).any():
            raise ValueError("a conditional row has no mass")
        return CommDevice(space, tuple(action_dims), p / totals)


@dataclass(frozen=True)
class CommEqResult:
    device: CommDevice
    welfare: float
    max_violation: float
    solver_iterations: int


def _incentive_terms(space: TypeSpace, payoffs: list[np.ndarray], joints: list[list[int]],
                     i: int, t_i: int):
    """Per report t_rep of player i at true type t_i, the per-(t_-i) data for
    its incentive rows: posterior weight, the true-type flat index, the
    reported-type flat index, and ``payoffs`` at the true type (player i's,
    laid out by ``correlated._told_index``); opponent types of zero
    posterior are left out. ``joints[t]`` lists the joint types where
    player i has type t, the others' types in mixed-radix order."""
    cond = conditional_prior(space, i, t_i).reshape(-1)
    true = joints[t_i]
    return [[(float(cond[r]), true[r], reported[r], payoffs[true[r]])
             for r in np.flatnonzero(cond).tolist()] for reported in joints]


def _device_program(space: TypeSpace, tensors: list[PayoffTensor]):
    """Over p(a|t) (type-major, one block of profiles per joint type): the
    prior-weighted welfare objective, and per incentive block ``(i, t_i,
    t_rep, terms, truth, told)``: ``_incentive_terms``, the row of player
    i's posterior payoff of reporting t_i and obeying (one read-only array
    shared by the blocks of a true type), and player i's ``_told_index``."""
    s = tensors[0].profile_count
    type_dims = space.type_dims
    n = len(tensors) * s
    objective = np.zeros(n)
    for t, q in enumerate(space.prior.reshape(-1)):
        objective[t * s:(t + 1) * s] = q * tensors[t].welfare_flat()
    index = np.arange(len(tensors)).reshape(type_dims)
    blocks = []
    for i, types in enumerate(type_dims):
        told = _told_index(tensors[0].dims, i)
        payoffs = [t.flat(i)[told] for t in tensors]
        joints = np.moveaxis(index, i, 0).reshape(types, -1).tolist()
        for t_i in range(types):
            per_report = _incentive_terms(space, payoffs, joints, i, t_i)
            truth = np.zeros(n)
            for w, ft, _, _ in per_report[0]:
                truth[ft * s:(ft + 1) * s] += w * tensors[ft].flat(i)
            truth.setflags(write=False)
            blocks += [(i, t_i, t_rep, terms, truth, told)
                       for t_rep, terms in enumerate(per_report)]
    return objective, blocks


def build_commeq_lp(space: TypeSpace, family: GameFamily,
                    tensors: list[PayoffTensor] | None = None) -> LpProblem:
    """The dense LP whose optimum is the welfare-maximal literal
    communication equilibrium, every incentive row written out (the solve
    cuts them lazily instead).

    Variables are p(a|t) for every joint type and profile (type-major).
    ``tensors`` is ``per_type_tensors(space, family)`` when the caller
    already has it.
    """
    n_x = space.joint_count * int(np.prod(family.dims))
    # one row per joint type, plus M_i rows per (player, true type, report)
    n_rows = space.joint_count + sum(t * t * m for t, m in zip(space.type_dims, family.dims))
    check_master_size(n_rows, n_x)
    if tensors is None:
        tensors = per_type_tensors(space, family)
    objective, blocks = _device_program(space, tensors)
    # sum_a p(a|t) = 1 on each joint type's block of profiles
    simplices = np.repeat(np.eye(space.joint_count), tensors[0].profile_count, axis=1)
    ineq_rows = []
    for _, _, _, terms, truth, told in blocks:
        # every constant map b, played whatever one is told
        mi = told.shape[0]
        devs = np.repeat(np.arange(mi)[:, None], mi, axis=1)
        ineq_rows += [(row, 0.0) for row in truth - _map_rows(terms, told, devs, truth.size)]
    return make_problem(objective, ineq_rows=ineq_rows,
                        eq_rows=[(row, 1.0) for row in simplices], name="commeq-literal")


def _literal_cuts(blocks, x: np.ndarray):
    """Separation for the literal family at the device ``x``. In each block
    the constant deviation b is worth sum_a D[a, b]; the ROW_GEN_BATCH
    largest gains over truth above ROW_GEN_TOL give rows."""
    for i, t_i, t_rep, terms, truth, told in blocks:
        gains = _deviation_table(x, told, terms).sum(axis=0) - truth @ x
        bs = _top(gains)
        if bs.size:
            # the constant maps b: played whatever one is told
            devs = np.repeat(bs[:, None], told.shape[0], axis=1)
            rows = truth - _map_rows(terms, told, devs, x.size)
            yield from zip([(i, t_i, t_rep, int(b)) for b in bs], rows)


def solve_commeq(space: TypeSpace, family: GameFamily,
                 formulation: str = "literal",
                 tensors: list[PayoffTensor] | None = None) -> CommEqResult:
    """Welfare-optimal communication equilibrium for the given deviation set,
    by that family's lazy cuts on a ``CePolytopeSolver``.

    ``tensors`` is ``per_type_tensors(space, family)`` when the caller
    already has it; it is built once here otherwise, after the budget check.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    n_x = space.joint_count * int(np.prod(family.dims))
    # the master before its first cut: one row per joint type, every column
    check_master_size(space.joint_count, n_x)
    if tensors is None:
        tensors = per_type_tensors(space, family)
    objective, blocks = _device_program(space, tensors)
    if formulation == "literal":
        cuts, reduction = _literal_cuts, None
    else:
        cuts, reduction = _canonical_cuts, partial(dominance_support, tensors, space.prior)
    master = CePolytopeSolver(n_x, space.joint_count, partial(cuts, blocks), reduction)
    x, value, iters = master.maximize(objective)
    device = CommDevice.from_raw(space, family.dims, x.reshape(space.joint_count, -1))
    violation = commeq_violation(device, family, formulation, tensors)
    if violation > ACCEPT_VIOLATION:
        raise SolverStallError(
            f"communication device failed verification ({violation:.3e})")
    return CommEqResult(device, value, violation, iters)


def commeq_violation(device: CommDevice, family: GameFamily,
                     formulation: str = "literal",
                     tensors: list[PayoffTensor] | None = None) -> float:
    """Worst truth-telling/obedience gap of a device, floored at zero.

    Recomputes expected payoffs directly from the device and per-type games
    (``tensors``, built here when not given); shares no code with the LP row
    builders, not even the posterior ``conditional_prior``.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    space = device.space
    dims = device.action_dims
    if dims != family.dims:
        raise ValueError("device and game family disagree on action dims")
    if tensors is None:
        tensors = per_type_tensors(space, family)
    k, joint_count = space.players, space.joint_count
    worst = 0.0
    for i in range(k):
        mi, types = dims[i], space.type_dims[i]
        # per joint type, player i's payoffs and the device's conditional
        # with i's action first, a row per action
        payoff_rows = [np.moveaxis(t.player_payoffs(i), i, 0).reshape(mi, -1) for t in tensors]
        device_rows = np.moveaxis(device.conditionals.reshape((joint_count,) + dims), i + 1, 1)
        device_rows = device_rows.reshape(joint_count, mi, -1)
        # row t: the joint types where player i has type t, the others' types
        # in mixed-radix order
        joints = np.moveaxis(np.arange(joint_count).reshape(space.type_dims), i, 0)
        joints = joints.reshape(types, -1).tolist()
        for t_i in range(types):
            # q(t_-i | t_i), by conditional_prior's arithmetic
            marginal = space.prior[(slice(None),) * i + (t_i,)]
            total = float(marginal.sum())
            if total <= 0.0:
                raise ValueError("cannot condition on a zero-probability type")
            cond = (marginal / total).reshape(-1)
            others = [(float(cond[r]), r) for r in np.flatnonzero(cond).tolist()]
            truth = 0.0
            for q, r in others:
                ft = joints[t_i][r]
                u = tensors[ft].player_payoffs(i)
                truth += q * float(device.conditionals[ft] @ u.reshape(-1))
            for t_rep in range(types):
                dmat = np.zeros((mi, mi))
                for q, r in others:
                    # dmat[a, b]: told a, play b
                    dmat += q * (device_rows[joints[t_rep][r]] @ payoff_rows[joints[t_i][r]].T)
                if formulation == "literal":
                    gap = float(dmat.sum(axis=0).max()) - truth
                else:
                    gap = float(dmat.max(axis=1).sum()) - truth
                worst = max(worst, gap)
    return max(worst, 0.0)
