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
are committed without one add a period: a commit makes up to 256 real adds
of every folded entry in one accumulate, then moves each entry by one
multiply-add to just short of the edge of its binade (its sign and
exponent), where every add after the first adds the same amount, and
repeats, so n periods cost O(M log n) adds, not O(n M), with the same bits
(the proof is next to ``_repeat``). The other periods go to the exact
rule. Play that switches within 256 periods of a block's start so never
pays for a screen. Each period still draws one uniform per player, in
order, so the state, the trace and the generator's final state are
byte-identical to stepping one period and one action at a time
(``tests/oracles.py`` keeps that rule as the reference). At paper scale a
period costs about 0.15 to 0.25 µs under the conditional rule (0.7 to 1.0
µs by the exact rule alone, 30 µs one action at a time) and about 1.0 to
1.1 µs under the paper-literal rule, which folds every row (medians over 20
paper states of 100,000 periods, one core of a 2-core Xeon, numpy 2.4).
``rm_step`` plays its one period by the exact rule, about 39 to 42 µs a
call under the conditional rule and 64 to 67 µs under the paper-literal
rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlated import JointDistribution, ce_violation
from .errors import MuTooSmallError
from .model import PayoffTensor

RULES = ("conditional", "paper-literal")
_BLOCK = 4096   # most periods one block covers: an exact pass, then the screen
_CHUNK = 256    # most periods one pass of the exact rule holds, and most real adds
                # an entry makes in one round of a commit before its binade jump


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


# A commit's n adds of ``delta``, by jumping through each binade. Let y be a
# float of magnitude in [2**e, 2**(e+1)), where floats are u = 2**(e-52)
# apart, and d = |delta|. The floats of y's sign in the closed range
# [2**e, 2**(e+1)] are exactly the multiples of u there, and 2**e / u is even.
# So if the exact y + delta lies in that range, fl(y + delta) = y + r u, with
# r the integer nearest delta / u; at a tie, ties-to-even picks the r that
# leaves (y + r u) / u even, so r depends on y's parity. Hence:
# - The result of such an add is even wherever a tie can arise, so every
#   later add inside the range adds the same r u: only the first add inside
#   a binade can differ, and y + j r u is a float.
# - If the last three rows x0, x1, x2 of a round's accumulate share sign and
#   exponent, x1 came from such an add (or is 2**e, which is even), and the
#   add from x1 to x2 adds r u. The one exception, x2 = 2**e rounded up from
#   an exact sum just below the range, arises only as |y| shrinks, and then
#   dist below is 0 < d and there is no jump. So inc = x2 - x1 (exact, as
#   both share the binade) is that r u; let c = |inc|.
# - From y = x2, let dist be the distance from |y| to the edge it moves
#   toward: 2**(e+1) - |y| when delta has y's sign, else |y| - 2**e, both
#   exact. Add i after y (from 0) has its exact sum in the range while
#   i c + d <= dist, so the j = floor((dist - d) / c) adds after y, one short
#   of the most allowed, leave y + j inc. j inc is exact, as j c <= dist is a
#   multiple of u, and so is the sum. A c of 0 (d <= u/2) is a stall that
#   lasts to the end of the commit when d <= dist (the quotient is inf, or
#   nan at d = dist, which fmin with the adds left drops); d > dist gives
#   -inf, no jump.
# - Rounding: dist - d and its division by c each round by a factor of at
#   most 1 + 2**-53, which lifts the quotient past an integer by less than
#   1 while it is below 2**51: the floor is at most the exact floor plus 1,
#   the most adds allowed. A larger quotient is capped by the adds left.
# Zero, subnormal, top-binade (whose upper edge overflows) and non-finite
# rows take no jump, and an entry whose last three rows straddle a binade
# waits a round; the real adds of the next round take every entry across
# its edge. A delta of 0 changes nothing after one add, which turns -0 into
# +0. Each round so makes at most ``_CHUNK`` real adds an entry, and n adds
# take about as many rounds as binades crossed, O(log n), not n / _CHUNK.
# Jumps are tried only while some entry has more than ``_CHUNK`` adds left,
# when they can save a round. TestRepeat compares it with one whole
# accumulate.
def _adds(y: np.ndarray, delta: np.ndarray, m: int) -> np.ndarray:
    """Row k is ``y`` after k sequential ``+= delta``, for k up to ``m``, by
    ``np.add.accumulate``: the same rounding as the adds one by one."""
    rows = np.empty((m + 1, y.size))
    rows[0] = y
    rows[1:] = delta
    np.add.accumulate(rows, axis=0, out=rows)
    return rows


def _repeat(x: np.ndarray, delta: np.ndarray, n: int) -> np.ndarray:
    """``x`` after ``n`` more sequential ``+= delta``, both 1-D: the same bits
    as the adds one by one, which ``n * delta`` would not give, in
    O(x.size log n) adds by jumping through each binade."""
    rows = _adds(x, delta, min(n, _CHUNK))
    if n <= _CHUNK:
        return rows[-1]
    if n <= 2 * _CHUNK:   # a jump would save no round of real adds
        return _adds(rows[-1], delta, n - _CHUNK)[-1]
    y = rows[-1]
    out = y.copy()
    idx = np.arange(out.size)   # the entries with adds left, and how many
    left = np.full(out.size, n - _CHUNK)
    left[delta == 0.0] = 0
    while True:
        if left.max() > _CHUNK:   # then every entry with adds left took _CHUNK
            bits = rows[-3:].view(np.uint64) >> np.uint64(52)   # sign, exponent
            expo = bits[2] & np.uint64(0x7FF)
            jump = ((left > 0) & (bits[0] == bits[2]) & (bits[1] == bits[2])
                    & (expo > 0) & (expo < 0x7FE))
            low = (expo << np.uint64(52)).view(np.float64)   # 2**e
            with np.errstate(all="ignore"):   # rows that take no jump
                inc = y - rows[-2]
                a = np.abs(y)
                dist = np.where((y > 0) == (delta > 0), 2.0 * low - a, a - low)
                j = np.floor((dist - np.abs(delta)) / np.abs(inc))
                j = np.where(jump, np.maximum(np.fmin(j, left), 0.0), 0.0)
                y = np.where(jump, y + j * inc, y)
            left -= j.astype(np.int64)
        out[idx] = y
        keep = left > 0
        if not keep.any():
            return out
        idx, left, delta = idx[keep], left[keep], delta[keep]
        m = min(int(left.max()), _CHUNK)
        rows = _adds(out[idx], delta, m)
        took = np.minimum(left, m)
        y = rows[took, np.arange(idx.size)]
        left -= took


def _commit(state: RegretState, steps: list[np.ndarray], n: int) -> None:
    """Play ``n`` periods of the held profile, none with a switch; ``steps``
    is ``_steps`` at that profile. Every player's folded entries go through
    one ``_repeat``."""
    held = state.last
    if state.rule == "conditional":
        folded = [d[h] for d, h in zip(state.diffs, held)]
    else:
        folded = state.diffs
    x = np.concatenate([f.ravel() for f in folded])
    delta = np.empty_like(x)
    start = 0
    for f, s in zip(folded, steps):
        delta[start:start + f.size].reshape(f.shape)[...] = s
        start += f.size
    x = _repeat(x, delta, n)
    start = 0
    for f in folded:
        f[...] = x[start:start + f.size].reshape(f.shape)
        start += f.size
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
        row = _adds(state.diffs[i][h], steps[i], m)
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
