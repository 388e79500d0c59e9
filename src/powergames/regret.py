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
times in 100,000 periods. So periods are played in blocks of up to 4,096
that guess the held profile repeats. The exact rule plays the first 256
periods of a block: it builds their held rows by a sequential
``np.add.accumulate`` (the same rounding as one ``+=`` a period), turns them
into switch probabilities and cumulative sums in whole-array passes,
compares them with the uniforms, and alone decides switches and
``MuTooSmallError``. If the profile holds through them, a closed-form screen
bounds, for every later period of the block at once, each player's switch
probability mass before the held action and in total, from O(M) sums over
the held regret row and its change per period (O(n + M) a block, not
O(n M)), with a rounding slack. A period whose uniforms fall inside the held
action's interval by those bounds surely repeats, and runs of such periods
are committed by the same accumulate; the other periods go to the exact
rule. Play that switches within 256 periods of a block's start so never
pays for a screen. Each period still draws one uniform per player, in
order, so the state, the trace and the generator's final state are
byte-identical to stepping one period and one action at a time
(``tests/oracles.py`` keeps that rule as the reference). At paper scale a
period costs about 0.3 µs under the conditional rule (0.7 to 1.0 µs by the
exact rule alone, 30 µs one action at a time) and about 4.2 to 4.9 µs under
the paper-literal rule, which folds every row (one core of a 2-core Xeon,
numpy 2.4). ``rm_step`` plays its one period by the exact rule, about 34 to
39 µs a call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlated import JointDistribution, ce_violation
from .errors import MuTooSmallError
from .model import PayoffTensor

RULES = ("conditional", "paper-literal")
_BLOCK = 4096   # most periods one block covers: an exact pass, then the screen
_CHUNK = 256    # most periods one pass of the exact rule, or of a commit, holds


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


def _steps(tensor: PayoffTensor, profile: tuple[int, ...]) -> list[np.ndarray]:
    """Each player's gain from switching to each action when ``profile`` is
    played: what one period of it adds to each regret row the rule folds."""
    steps = []
    for i in range(tensor.players):
        sl = list(profile)
        sl[i] = slice(None)
        row = tensor.player_payoffs(i)[tuple(sl)]
        steps.append(row - row[profile[i]])
    return steps


def _play(state: RegretState, tensor: PayoffTensor, profile: tuple[int, ...]) -> None:
    """Fold one period of ``profile`` into the regrets and the counts."""
    for d, held, delta in zip(state.diffs, profile, _steps(tensor, profile)):
        if state.rule == "conditional":
            d[held] += delta
        else:
            d += delta
    state.counts[profile] += 1
    state.t += 1
    state.last = profile


def _repeat(x: np.ndarray, delta: np.ndarray, n: int) -> np.ndarray:
    """``x`` after ``n`` more sequential ``+= delta``, by ``np.add.accumulate``:
    the same rounding as the adds one by one, which ``n * delta`` would not
    give. It accumulates ``_CHUNK`` adds at a time, each chunk starting from
    the last row of the one before, for the same bits (``TestNumpyFacts``)."""
    rows = np.empty((min(n, _CHUNK) + 1,) + x.shape)
    rows[0] = x
    for done in range(0, n, _CHUNK):
        m = min(n - done, _CHUNK)
        rows[1:m + 1] = delta
        np.add.accumulate(rows[:m + 1], axis=0, out=rows[:m + 1])
        rows[0] = rows[m]
    return rows[0]


def _commit(state: RegretState, steps: list[np.ndarray], n: int) -> None:
    """Play ``n`` periods of the held profile, none with a switch; ``steps``
    is ``_steps`` at that profile."""
    held = state.last
    for i, d in enumerate(state.diffs):
        folded = d[held[i]] if state.rule == "conditional" else d
        folded[...] = _repeat(folded, steps[i], n)
    state.counts[held] += n
    state.t += n


def _exact(state: RegretState, tensor: PayoffTensor, steps: list[np.ndarray], mu: float,
           u: np.ndarray) -> int:
    """Play up to ``len(u)`` periods from the held profile by the exact rule,
    row j of ``u`` holding period j's uniforms, one per player; ``steps`` is
    ``_steps`` at that profile. Guesses that the held profile repeats,
    computes every player's switch probabilities for all the periods at
    once, and commits the periods before the first one where someone
    switches, which it then plays. Returns the periods played."""
    held = state.last
    n = len(u)
    t = np.arange(state.t, state.t + n, dtype=float)[:, None]
    end, kind, culprit = n, None, None   # the first period the guess fails
    rows, choices = [], []
    for i in range(tensor.players):
        h = held[i]
        # periods past an earlier player's failure cannot matter
        m = min(end + 1, n)
        # the held rows through period m, whose last row a commit of the
        # conditional rule stores
        row = np.empty((m + 1, tensor.dims[i]))
        row[0] = state.diffs[i][h]
        row[1:] = steps[i]
        np.add.accumulate(row, axis=0, out=row)
        rows.append(row)
        switch = np.maximum(row[:m] / t[:m], 0.0) / mu
        switch[:, h] = 0.0
        # sums each row as the 1-D sum of one period does (TestNumpyFacts)
        total = np.add.reduce(switch, axis=1)
        switch[:, h] = 1.0 - total
        hit = np.add.accumulate(switch, axis=1) > u[:m, i, None]
        choice = np.where(hit.any(axis=1), hit.argmax(axis=1), h)
        choices.append(choice)
        over = np.flatnonzero(total > 1.0 + 1e-12)
        moved = np.flatnonzero(choice != h)
        # within a period, players go in order, and a too-large total raises
        # before the period's switch is played
        if over.size and (over[0] < end or (over[0] == end and kind == "switch")):
            end, kind, culprit = int(over[0]), "mu", float(total[over[0]])
        if moved.size and moved[0] < end:
            end, kind = int(moved[0]), "switch"
    if end and state.rule == "conditional":
        for d, h, row in zip(state.diffs, held, rows):
            d[h] = row[end]
        state.counts[held] += end
        state.t += end
    elif end:
        _commit(state, steps, end)
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


# The screen's rounding slack. With eps = 2**-52 and g(j) = j eps/2 / (1 - j eps/2)
# <= j eps:
# - the exact rule's entry b after k sequential adds is within
#   g(k) (|d_b| + k |delta_b|) of d_b + k delta_b;
# - its division by t, the max (exact) and its division by mu add a factor
#   of at most (1 + eps/2)**2, and its sum of at most M nonnegative entries,
#   in any order, one of at most 1 + g(M - 1);
# - max(d_b + k delta_b, 0) is convex in k, so it lies below its chord from
#   k = 0 to k = n - 1, and it is at most |d_b| + k |delta_b|.
# With F0, F1, A, B the sums over the entries of max(d_b, 0),
# max(d_b + (n - 1) delta_b, 0), |d_b| and |delta_b|, and E = A + k B, the
# rule's sum is so at most (F0 + k (F1 - F0) / (n - 1) + (k + M + 1) eps E)
# / (t mu). Every rounded term of the bound, times k where it is a slope, is
# at most about E in size, so evaluating it loses at most (3 M + 9) eps E
# / (t mu). The slack (n + 4 M + 16) eps covers both for every period k < n
# of the block, with room for second-order terms. _TINY, added before the
# division by mu, covers the absolute error of results below the normal
# range, for t < 2**53 and n, M < 2**20; a uniform of exactly 0, where no
# margin is left, is never cleared.
_EPS = 2.0 ** -52
_TINY = 2.0 ** -900


def _screen(state: RegretState, steps: list[np.ndarray], mu: float, u: np.ndarray) -> np.ndarray:
    """Periods of the held profile that surely repeat: ``cleared[k]`` is
    true only if, at period k, no player switches and no player's switch
    probabilities sum past 1. For each player it bounds, in closed form for
    every period, the probability mass of the held row before the held
    action, L, and in total, T, from O(M) sums of the row and of its change
    per period. The period is cleared when L < u < 1 - T - 2**-53 and
    T <= 1: the rule's cumulative sums then stay at most L before the held
    action and reach at least 1 - T at it, so it keeps the held action."""
    n = len(u)
    k = np.arange(n, dtype=float)
    t = k + state.t
    cleared = np.ones(n, dtype=bool)
    for i, delta in enumerate(steps):
        h = state.last[i]
        d = state.diffs[i][h]
        terms = np.stack((np.maximum(d, 0.0), np.maximum(d + (n - 1) * delta, 0.0),
                          np.abs(d), np.abs(delta)))
        terms[:, h] = 0.0   # the rule sets the held entry to 0
        # rows: the entries before h, all entries; columns: F0, F1, A, B
        sums = np.stack((terms[:, :h].sum(axis=1), terms.sum(axis=1)))
        slack = (n + 4 * len(d) + 16) * _EPS
        a = (sums[:, 0] + slack * sums[:, 2] + _TINY) / mu
        b = ((sums[:, 1] - sums[:, 0]) / max(n - 1, 1) + slack * sums[:, 3]) / mu
        low, total = (a[:, None] + b[:, None] * k) / t
        ui = u[:, i]
        cleared &= (low < ui) & (ui < (1.0 - 2.0 ** -53) - total) & (total <= 1.0)
    return cleared


def _advance(state: RegretState, tensor: PayoffTensor, mu: float, u: np.ndarray) -> int:
    """Play up to ``len(u)`` periods from the held profile, row j of ``u``
    holding period j's uniforms, one per player, and stop after the first
    switch. The exact rule plays the first ``_CHUNK`` periods. Only if the
    profile holds through them does the screen bound the rest: periods it
    clears are committed without computing their probabilities, and the
    others go to the exact rule, which alone decides switches and
    ``MuTooSmallError``, in one pass from the first of them to the last
    within ``_CHUNK`` periods of it. Returns the periods played.

    A block that switches early so costs one exact pass and no screen: the
    screen's fixed cost (about 0.1 ms, whatever the block length) pays off
    only over a long hold, and play that switches every few dozen periods
    would pay it at every switch."""
    held = state.last
    n = len(u)
    steps = _steps(tensor, held)
    pos = _exact(state, tensor, steps, mu, u[:_CHUNK])
    if pos == n or state.last != held:
        return pos
    cleared = np.zeros(n, dtype=bool)
    cleared[pos:] = _screen(state, steps, mu, u[pos:])
    while pos < n:
        left = pos + np.flatnonzero(~cleared[pos:])   # the periods left to the exact rule
        first = int(left[0]) if left.size else n
        if first > pos:
            _commit(state, steps, first - pos)
        if first == n:
            return n
        stop = int(left[left < first + _CHUNK][-1]) + 1
        pos = first + _exact(state, tensor, steps, mu, u[first:stop])
        if state.last != held:
            break
    return pos


def rm_step(state: RegretState, tensor: PayoffTensor, mu: float) -> tuple[int, ...]:
    """Advance one period: draw actions, then fold the realized payoffs into
    the regret matrices. Returns the profile just played."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if state.last is None:
        _play(state, tensor, tuple(int(state.rng.integers(m)) for m in tensor.dims))
    else:
        _exact(state, tensor, _steps(tensor, state.last), mu,
               state.rng.random((1, tensor.players)))
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
