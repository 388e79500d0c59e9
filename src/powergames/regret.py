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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correlated import JointDistribution, ce_violation
from .errors import MuTooSmallError
from .model import PayoffTensor

RULES = ("conditional", "paper-literal")


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


def rm_step(state: RegretState, tensor: PayoffTensor, mu: float) -> tuple[int, ...]:
    """Advance one period: draw actions, then fold the realized payoffs into
    the regret matrices. Returns the profile just played."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    dims = tensor.dims
    k = tensor.players
    if state.last is None:
        profile = tuple(int(state.rng.integers(m)) for m in dims)
    else:
        actions = []
        regs = state.regrets()
        for i in range(k):
            held = state.last[i]
            switch = regs[i][held] / mu
            switch[held] = 0.0
            total = float(switch.sum())
            if total > 1.0 + 1e-12:
                bound = (max(dims) - 1) * float(tensor.values.max() - tensor.values.min())
                raise MuTooSmallError(
                    f"mu={mu!r} is too small: switch probabilities sum to {total:.6f}; "
                    f"(max_i M_i - 1) x payoff spread = {bound!r} is enough"
                )
            stay = 1.0 - total
            u = state.rng.random()
            acc = 0.0
            chosen = held
            for b in range(dims[i]):
                p = stay if b == held else float(switch[b])
                acc += p
                if u < acc:
                    chosen = b
                    break
            actions.append(chosen)
        profile = tuple(actions)

    for i in range(k):
        sl = list(profile)
        sl[i] = slice(None)
        row = tensor.player_payoffs(i)[tuple(sl)]
        delta = row - row[profile[i]]
        if state.rule == "conditional":
            state.diffs[i][profile[i]] += delta
        else:
            state.diffs[i] += delta[None, :]
    state.counts[profile] += 1
    state.t += 1
    state.last = profile
    return profile


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
    checkpoints = _trace_schedule(steps) if trace else []
    next_cp = 0
    welfare_flat = tensor.welfare_flat()
    out_trace: list[tuple[int, float, float, float]] = []
    for step in range(1, steps + 1):
        rm_step(state, tensor, mu)
        if checkpoints and next_cp < len(checkpoints) and step == checkpoints[next_cp]:
            next_cp += 1
            dist = empirical_distribution(state)
            max_regret = max(float(r.max()) for r in state.regrets())
            gap = ce_violation(tensor, dist)
            welfare = float(dist.probs @ welfare_flat)
            out_trace.append((step, max_regret, gap, welfare))
    return RmRunResult(empirical_distribution(state), state, out_trace)
