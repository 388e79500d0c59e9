"""Regret-matching dynamics and convergence diagnostics.

Players repeatedly play the game; each tracks, per (held action, alternative)
pair, the cumulative payoff difference it would have earned by switching.
Next-period switch probabilities are the positive average regrets divided by
a constant mu. The empirical distribution of play converges to the set of
correlated equilibria under the conditioned update rule.

Two update rules exist:

* ``conditional`` (default): payoff differences accumulate only on the row
  of the action actually held that period; this is the rule the convergence
  theory covers.
* ``paper-literal``: differences accumulate on every row regardless of the
  held action, so the regret for switching ignores what was played.

Play is very inertial: at paper scale the joint profile changes a few dozen
times in 100,000 periods. So periods are played in speculative blocks of up
to 256. A block guesses that the held profile repeats, builds every period's
held regret row by a sequential ``np.add.accumulate`` (the same rounding as
one ``+=`` a period), turns the rows into switch probabilities and
cumulative sums in whole-array passes, compares them with that period's
uniforms, and commits the periods before the first switch, then plays the
switch. Each period still draws one uniform per player, in order, so the
state, the trace and the generator's final state are byte-identical to
stepping one period and one action at a time (``tests/oracles.py`` keeps
that rule as the reference). At paper scale a period costs about 1 µs
instead of 30 µs (one core of a 2-core Xeon, numpy 2.4). A block of one
period, as ``rm_step`` plays, costs more than the old single step did
(about 31 µs against 12 µs on a 2x2 game).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlated import JointDistribution, ce_violation
from .errors import MuTooSmallError
from .model import PayoffTensor

RULES = ("conditional", "paper-literal")
_BLOCK = 256   # most periods one speculative pass covers


@dataclass
class RegretState:
    """Mutable per-run state; one run is strictly sequential."""

    t: int
    diffs: list[np.ndarray]          # per player, (M_i, M_i) cumulative differences
    counts: np.ndarray               # visits per joint profile, shape dims
    last: tuple[int, ...] | None
    rng: np.random.Generator
    rule: str = "conditional"

    def regrets(self) -> list[np.ndarray]:
        """Average positive regrets R_i = max(D_i / t, 0)."""
        if self.t == 0:
            return [np.zeros_like(d) for d in self.diffs]
        return [np.maximum(d / self.t, 0.0) for d in self.diffs]


def rm_init(tensor: PayoffTensor, seed: int, rule: str = "conditional") -> RegretState:
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}")
    return RegretState(
        t=0,
        diffs=[np.zeros((m, m)) for m in tensor.dims],
        counts=np.zeros(tensor.dims, dtype=np.int64),
        last=None,
        rng=np.random.default_rng(seed),
        rule=rule,
    )


def default_mu(tensor: PayoffTensor) -> float:
    """2 * max_i M_i * payoff spread; leaves the stay-probability positive."""
    spread = float(tensor.values.max() - tensor.values.min())
    return max(2.0 * max(tensor.dims) * spread, 1.0)


def _deltas(tensor: PayoffTensor, i: int, profile: tuple[int, ...]) -> np.ndarray:
    """Player i's gain from switching to each action when ``profile`` is played."""
    sl = list(profile)
    sl[i] = slice(None)
    row = tensor.player_payoffs(i)[tuple(sl)]
    return row - row[profile[i]]


def _play(state: RegretState, tensor: PayoffTensor, profile: tuple[int, ...]) -> None:
    """Fold one period of ``profile`` into the regrets and the counts."""
    for i in range(tensor.players):
        delta = _deltas(tensor, i, profile)
        if state.rule == "conditional":
            state.diffs[i][profile[i]] += delta
        else:
            state.diffs[i] += delta[None, :]
    state.counts[profile] += 1
    state.t += 1
    state.last = profile


def _repeat(d: np.ndarray, delta: np.ndarray, n: int) -> np.ndarray:
    """``d`` and each of its values after 1..n more sequential ``+= delta``,
    stacked along a new first axis: the same rounding as the adds one by one,
    which ``n * delta`` would not give."""
    out = np.empty((n + 1,) + d.shape)
    out[0] = d
    out[1:] = delta
    return np.add.accumulate(out, axis=0, out=out)


def _advance(state: RegretState, tensor: PayoffTensor, mu: float, u: np.ndarray) -> int:
    """Play up to ``len(u)`` periods from the held profile, row j of ``u``
    holding period j's uniforms, one per player. Guesses that the held
    profile repeats, computes every player's switch probabilities for all
    the periods at once, and commits the periods before the first one where
    someone switches, which it then plays. Returns the periods played."""
    held = state.last
    n = len(u)
    t = np.arange(state.t, state.t + n, dtype=float)[:, None]
    end, kind, culprit = n, None, None   # the first period the guess fails
    rows, choices = [], []
    for i in range(tensor.players):
        h = held[i]
        # periods past an earlier player's failure cannot matter
        m = min(end + 1, n)
        row = _repeat(state.diffs[i][h], _deltas(tensor, i, held), m)
        switch = np.maximum(row[:m] / t[:m], 0.0) / mu
        switch[:, h] = 0.0
        # sums each row as the 1-D sum of one period does (TestNumpyFacts)
        total = np.add.reduce(switch, axis=1)
        switch[:, h] = 1.0 - total
        hit = np.add.accumulate(switch, axis=1) > u[:m, i, None]
        choice = np.where(hit.any(axis=1), hit.argmax(axis=1), h)
        rows.append(row)
        choices.append(choice)
        over = np.flatnonzero(total > 1.0 + 1e-12)
        moved = np.flatnonzero(choice != h)
        # within a period, players go in order, and a too-large total raises
        # before the period's switch is played
        if over.size and (over[0] < end or (over[0] == end and kind == "switch")):
            end, kind, culprit = int(over[0]), "mu", float(total[over[0]])
        if moved.size and moved[0] < end:
            end, kind = int(moved[0]), "switch"
    if end:
        for i, d in enumerate(state.diffs):
            if state.rule == "conditional":
                d[held[i]] = rows[i][end]
            else:
                d[...] = _repeat(d, _deltas(tensor, i, held), end)[end]
        state.counts[held] += end
        state.t += end
    if kind == "mu":
        spread = float(tensor.values.max() - tensor.values.min())
        raise MuTooSmallError(
            f"mu={mu!r} is too small: switch probabilities sum to {culprit:.6f}; "
            f"(max_i M_i - 1) x payoff spread = {(max(tensor.dims) - 1) * spread!r} is enough"
        )
    if kind == "switch":
        _play(state, tensor, tuple(int(c[end]) for c in choices))
        return end + 1
    return end


def rm_step(state: RegretState, tensor: PayoffTensor, mu: float) -> tuple[int, ...]:
    """Advance one period: draw actions, then fold the realized payoffs into
    the regret matrices. Returns the profile just played."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if state.last is None:
        _play(state, tensor, tuple(int(state.rng.integers(m)) for m in tensor.dims))
    else:
        _advance(state, tensor, mu, state.rng.random((1, tensor.players)))
    return state.last


def empirical_distribution(state: RegretState) -> JointDistribution:
    if state.t == 0:
        raise ValueError("no periods played yet")
    probs = state.counts.reshape(-1).astype(float) / state.t
    return JointDistribution(tuple(state.counts.shape), probs)


@dataclass(frozen=True)
class RmRunResult:
    empirical: JointDistribution
    state: RegretState = field(repr=False)
    trace: list[tuple[int, float, float, float]]  # (step, max_regret, ce_gap, welfare)


def _trace_schedule(steps: int) -> list[int]:
    """Logarithmically spaced checkpoints, always ending at ``steps``."""
    pts = set()
    s = 1
    while s < steps:
        pts.add(s)
        s *= 2
    pts.add(steps)
    return sorted(pts)


def rm_run(tensor: PayoffTensor, steps: int, seed: int, mu: float | None = None,
           rule: str = "conditional", trace: bool = True) -> RmRunResult:
    """Run regret matching for ``steps`` periods; deterministic given seed."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if mu is None:
        mu = default_mu(tensor)
    state = rm_init(tensor, seed, rule)
    welfare_flat = tensor.welfare_flat()
    out_trace: list[tuple[int, float, float, float]] = []
    rm_step(state, tensor, mu)
    # row j holds the uniforms of period state.t + 1 + j
    uniforms = np.empty((0, tensor.players))
    for checkpoint in _trace_schedule(steps) if trace else [steps]:
        # blocks stop at every checkpoint, so the trace sees the exact state
        while state.t < checkpoint:
            n = min(checkpoint - state.t, _BLOCK)
            if len(uniforms) < n:
                fresh = state.rng.random((n - len(uniforms), tensor.players))
                uniforms = np.concatenate((uniforms, fresh))
            uniforms = uniforms[_advance(state, tensor, mu, uniforms[:n]):]
        if trace:
            dist = empirical_distribution(state)
            max_regret = max(float(r.max()) for r in state.regrets())
            gap = ce_violation(tensor, dist)
            welfare = float(dist.probs @ welfare_flat)
            out_trace.append((checkpoint, max_regret, gap, welfare))
    return RmRunResult(empirical_distribution(state), state, out_trace)
