"""Answer checks computed apart from the program under test.

Every function here recomputes what it needs from first principles (direct
payoff formulas, explicit loops, LPs built here and solved by scipy's HiGHS)
and raises ``CheckError`` when the program's answer disagrees. Nothing in
this module imports powergames. scipy is imported lazily, so the timed part
of a run never pays for it.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

LP_TOL = 1e-7        # program optimum vs HiGHS optimum
GAP_TOL = 1e-8       # obedience / truth-telling gaps
PAYOFF_TOL = 1e-12   # tensor entry vs direct formula
SUM_TOL = 1e-9       # probability sums and reported expectations
REGRET_TOL = 1e-9    # regret identity, per period
HULL_TOL = 1e-7      # polygon containment slack


class CheckError(AssertionError):
    """The program's answer failed an independent check."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# --------------------------------------------------------------- payoffs

def direct_payoff(i: int, powers, gains, alpha: float, noise: float,
                  packet_len: int) -> float:
    """u_i = (1 - exp(-SINR_i))^L - alpha * p_i, with gains[j][i] from tx j to rx i."""
    interference = sum(powers[j] * gains[j][i] for j in range(len(powers)) if j != i)
    s = powers[i] * gains[i][i] / (noise + interference)
    return (1.0 - math.exp(-s)) ** packet_len - alpha * powers[i]


def payoff_tensor(levels, gains, alpha, noise, packet_len) -> np.ndarray:
    """Full (K, *dims) payoff array by the direct formula."""
    dims = tuple(len(lv) for lv in levels)
    out = np.empty((len(levels),) + dims)
    for prof in itertools.product(*[range(d) for d in dims]):
        powers = [levels[j][a] for j, a in enumerate(prof)]
        for i in range(len(levels)):
            out[(i,) + prof] = direct_payoff(i, powers, gains, alpha, noise, packet_len)
    return out


def check_payoff_samples(values: np.ndarray, levels, gains, alpha, noise,
                         packet_len, rng: np.random.Generator, samples: int = 32):
    """Seeded sample of tensor entries against the direct SINR/efficiency formula."""
    k = values.shape[0]
    dims = values.shape[1:]
    for _ in range(samples):
        i = int(rng.integers(k))
        prof = tuple(int(rng.integers(d)) for d in dims)
        powers = [levels[j][a] for j, a in enumerate(prof)]
        want = direct_payoff(i, powers, gains, alpha, noise, packet_len)
        got = float(values[(i,) + prof])
        _require(abs(got - want) <= PAYOFF_TOL,
                 f"payoff u{i}{prof} = {got!r}, direct formula gives {want!r}")


# ------------------------------------------------------------- pure Nash

def brute_force_pure_nash(values: np.ndarray) -> list[tuple[int, ...]]:
    """Profiles where no player has a strictly better unilateral deviation."""
    k = values.shape[0]
    dims = values.shape[1:]
    found = []
    for prof in itertools.product(*[range(d) for d in dims]):
        stable = True
        for i in range(k):
            here = values[(i,) + prof]
            for b in range(dims[i]):
                alt = prof[:i] + (b,) + prof[i + 1:]
                if values[(i,) + alt] > here:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            found.append(prof)
    return found


def check_pure_nash(values: np.ndarray, profiles):
    want = brute_force_pure_nash(values)
    got = [tuple(int(a) for a in p) for p in profiles]
    _require(got == want, f"pure NE {got} differ from brute-force scan {want}")


# --------------------------------------------------- correlated equilibria

def obedience_gap(values: np.ndarray, probs: np.ndarray) -> float:
    """Worst expected gain from disobeying a recommendation, by explicit loops."""
    k = values.shape[0]
    dims = values.shape[1:]
    p = np.asarray(probs, dtype=float).reshape(dims)
    worst = 0.0
    for i in range(k):
        pm = np.moveaxis(p, i, 0).reshape(dims[i], -1)
        um = np.moveaxis(values[i], i, 0).reshape(dims[i], -1)
        for a in range(dims[i]):
            base = float(pm[a] @ um[a])
            for b in range(dims[i]):
                if b != a:
                    worst = max(worst, float(pm[a] @ um[b]) - base)
    return worst


def _ce_rows(values: np.ndarray) -> np.ndarray:
    """Obedience rows as ``A p <= 0``: sum_r p(a, r) (u_i(b, r) - u_i(a, r))."""
    k = values.shape[0]
    dims = values.shape[1:]
    n = int(np.prod(dims))
    rows = []
    for i in range(k):
        um = np.moveaxis(values[i], i, 0)
        for a in range(dims[i]):
            for b in range(dims[i]):
                if b == a:
                    continue
                coeffs = np.zeros((dims[i],) + um.shape[1:])
                coeffs[a] = um[b] - um[a]
                rows.append(np.moveaxis(coeffs, 0, i).reshape(n))
    return np.asarray(rows)


def highs_max(objective, a_ub, b_ub, a_eq, b_eq, bounds=(0, None)) -> float:
    """Optimum of ``max objective.x`` by scipy's HiGHS, tightened tolerances."""
    from scipy.optimize import linprog

    res = linprog(-np.asarray(objective), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve a reference LP: {res.message}")
    return float(-res.fun)


def highs_ce_optimum(values: np.ndarray, objective: np.ndarray) -> float:
    a_ub = _ce_rows(values)
    n = a_ub.shape[1]
    return highs_max(objective, a_ub, np.zeros(a_ub.shape[0]), np.ones((1, n)), [1.0])


def check_distribution(probs: np.ndarray):
    p = np.asarray(probs, dtype=float)
    _require(p.min() >= -1e-12, f"negative probability {p.min()!r}")
    _require(abs(float(p.sum()) - 1.0) <= SUM_TOL, f"probabilities sum to {p.sum()!r}")


def check_welfare_ce(values: np.ndarray, probs, per_player, welfare):
    """A welfare-optimal CE: a distribution, obedient, with the reported
    values, and optimal against HiGHS on the full CE LP."""
    k = values.shape[0]
    p = np.asarray(probs, dtype=float)
    check_distribution(p)
    gap = obedience_gap(values, p)
    _require(gap <= GAP_TOL, f"CE obedience gap {gap:.3e} exceeds {GAP_TOL:.0e}")
    flat = values.reshape(k, -1)
    for i in range(k):
        v = float(p @ flat[i])
        _require(abs(v - per_player[i]) <= SUM_TOL,
                 f"player {i} value {per_player[i]!r}, distribution gives {v!r}")
    _require(abs(sum(per_player) - welfare) <= SUM_TOL,
             f"welfare {welfare!r} is not the sum of player values")
    best = highs_ce_optimum(values, flat.sum(axis=0))
    _require(abs(welfare - best) <= LP_TOL,
             f"CE welfare {welfare!r}, HiGHS optimum {best!r}")


# ------------------------------------------------------------ payoff region

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[tuple[float, float]]:
    """Monotone-chain hull, counter-clockwise, collinear points dropped."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) > 1 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) > 1 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def inside_convex(polygon, point, tol: float = HULL_TOL) -> bool:
    """Point within ``tol`` of a CCW convex polygon (>= 3 vertices)."""
    n = len(polygon)
    for k in range(n):
        a, b = polygon[k], polygon[(k + 1) % n]
        edge = math.hypot(b[0] - a[0], b[1] - a[1])
        if _cross(a, b, point) < -tol * max(edge, 1.0):
            return False
    return True


def check_region(values: np.ndarray, polygon, directions: int):
    """The CE payoff polygon of a 2-player game.

    Convex and counter-clockwise; its support function matches HiGHS's
    directional CE optimum at every traced angle, and no vertex lies beyond
    any of them; it contains every pure-NE payoff point and lies inside the
    hull of all feasible payoff points.
    """
    poly = [(float(x), float(y)) for x, y in polygon]
    n = len(poly)
    _require(n >= 3, f"region polygon has only {n} vertices")
    for k in range(n):
        turn = _cross(poly[k], poly[(k + 1) % n], poly[(k + 2) % n])
        _require(turn > 0, f"polygon turns clockwise or is collinear at vertex {k + 1}")

    flat = values.reshape(2, -1)
    a_ub = _ce_rows(values)
    m = flat.shape[1]
    for k in range(directions):
        theta = 2.0 * math.pi * k / directions
        w = (math.cos(theta), math.sin(theta))
        best = highs_max(w[0] * flat[0] + w[1] * flat[1], a_ub,
                         np.zeros(a_ub.shape[0]), np.ones((1, m)), [1.0])
        support = max(w[0] * x + w[1] * y for x, y in poly)
        _require(abs(support - best) <= LP_TOL,
                 f"direction {k}: polygon support {support!r}, HiGHS {best!r}")

    for prof in brute_force_pure_nash(values):
        pt = (float(values[(0,) + prof]), float(values[(1,) + prof]))
        _require(inside_convex(poly, pt), f"pure NE payoff {pt} lies outside the region")
    hull = convex_hull(zip(flat[0], flat[1]))
    for v in poly:
        _require(inside_convex(hull, v), f"region vertex {v} lies outside the feasible hull")


# ------------------------------------------------- communication equilibria

class CommGame:
    """Per-joint-type payoff arrays of a 2-player game over a type space.

    ``types[i]`` lists player i's types, each the tuple of gains into its
    receiver by transmitter; joint types run in mixed-radix order.
    """

    def __init__(self, levels, types, prior, alpha, noise, packet_len):
        self.types = [list(t) for t in types]
        self.tdims = tuple(len(t) for t in self.types)
        self.prior = np.asarray(prior, dtype=float).reshape(self.tdims)
        self.dims = tuple(len(lv) for lv in levels)
        self.joints = list(itertools.product(*[range(d) for d in self.tdims]))
        self.payoffs = []
        for joint in self.joints:
            gains = [[self.types[i][joint[i]][j] for i in range(2)] for j in range(2)]
            self.payoffs.append(payoff_tensor(levels, gains, alpha, noise, packet_len))

    def index(self, joint) -> int:
        return joint[0] * self.tdims[1] + joint[1]

    def posterior(self, i: int, ti: int):
        """(t_-i index, q(t_-i | t_i)) pairs with positive weight."""
        row = self.prior[ti] if i == 0 else self.prior[:, ti]
        total = float(row.sum())
        return [(t, float(w) / total) for t, w in enumerate(row) if w > 0]

    def joint(self, i: int, ti: int, other: int) -> tuple[int, int]:
        return (ti, other) if i == 0 else (other, ti)


def _deviation_payoffs(u_i: np.ndarray, i: int, b: int) -> np.ndarray:
    """Player i's payoff when it plays b instead of its recommendation."""
    dev = np.take(u_i, [b], axis=i)
    return np.broadcast_to(dev, u_i.shape)


def highs_commeq_welfare(game: CommGame, formulation: str) -> float:
    """Welfare-optimal communication equilibrium, LP built here.

    ``literal``: no (true type, report, constant action) deviation gains.
    ``canonical``: no (true type, report, recommendation -> action map)
    deviation gains, linearized with one free variable per recommendation.
    """
    s = int(np.prod(game.dims))
    nt = len(game.joints)
    n_x = nt * s
    z_index = {}
    if formulation == "canonical":
        for i in range(2):
            for ti in range(game.tdims[i]):
                for r in range(game.tdims[i]):
                    for a in range(game.dims[i]):
                        z_index[(i, ti, r, a)] = n_x + len(z_index)
    n_vars = n_x + len(z_index)
    rows = []  # each "row . x >= 0"
    for i in range(2):
        for ti in range(game.tdims[i]):
            post = game.posterior(i, ti)
            for r in range(game.tdims[i]):
                truth = np.zeros(n_vars)
                for other, q in post:
                    t = game.index(game.joint(i, ti, other))
                    truth[t * s:(t + 1) * s] += q * game.payoffs[t][i].reshape(-1)
                if formulation == "literal":
                    for b in range(game.dims[i]):
                        row = truth.copy()
                        for other, q in post:
                            t = game.index(game.joint(i, ti, other))
                            rep = game.index(game.joint(i, r, other))
                            dev = _deviation_payoffs(game.payoffs[t][i], i, b)
                            row[rep * s:(rep + 1) * s] -= q * dev.reshape(-1)
                        rows.append(row)
                else:
                    head = truth.copy()
                    for a in range(game.dims[i]):
                        head[z_index[(i, ti, r, a)]] = -1.0
                    rows.append(head)
                    for a in range(game.dims[i]):
                        for b in range(game.dims[i]):
                            row = np.zeros(n_vars)
                            row[z_index[(i, ti, r, a)]] = 1.0
                            for other, q in post:
                                t = game.index(game.joint(i, ti, other))
                                rep = game.index(game.joint(i, r, other))
                                dev = np.array(_deviation_payoffs(game.payoffs[t][i], i, b))
                                mask = np.zeros(game.dims, dtype=bool)
                                mask[(slice(None),) * i + (a,)] = True
                                row[rep * s:(rep + 1) * s] -= q * np.where(mask, dev, 0.0).reshape(-1)
                            rows.append(row)
    objective = np.zeros(n_vars)
    a_eq = np.zeros((nt, n_vars))
    for t, joint in enumerate(game.joints):
        objective[t * s:(t + 1) * s] = game.prior[joint] * game.payoffs[t].sum(axis=0).reshape(-1)
        a_eq[t, t * s:(t + 1) * s] = 1.0
    bounds = [(0, None)] * n_x + [(None, None)] * len(z_index)
    a_ub = -np.asarray(rows)
    return highs_max(objective, a_ub, np.zeros(a_ub.shape[0]), a_eq, np.ones(nt), bounds)


def literal_gap(game: CommGame, conditionals: np.ndarray) -> float:
    """Worst gain from misreporting a type and then playing a fixed action."""
    cond = np.asarray(conditionals, dtype=float)
    worst = 0.0
    for i in range(2):
        for ti in range(game.tdims[i]):
            post = game.posterior(i, ti)
            truth = 0.0
            for other, q in post:
                t = game.index(game.joint(i, ti, other))
                truth += q * float(cond[t] @ game.payoffs[t][i].reshape(-1))
            for r in range(game.tdims[i]):
                for b in range(game.dims[i]):
                    dev = 0.0
                    for other, q in post:
                        t = game.index(game.joint(i, ti, other))
                        rep = game.index(game.joint(i, r, other))
                        u_dev = _deviation_payoffs(game.payoffs[t][i], i, b)
                        dev += q * float(cond[rep] @ u_dev.reshape(-1))
                    worst = max(worst, dev - truth)
    return worst


def highs_ce_welfare(values: np.ndarray) -> float:
    return highs_ce_optimum(values, values.reshape(values.shape[0], -1).sum(axis=0))


def check_action_row(game: CommGame, row: dict):
    """One Fig-2a action-sweep row against LPs built and solved here."""
    per_state = sum(float(game.prior[j]) * highs_ce_welfare(game.payoffs[t])
                    for t, j in enumerate(game.joints) if game.prior[j] > 0)
    averaged = sum(float(game.prior[j]) * game.payoffs[t] for t, j in enumerate(game.joints))
    want = {
        "ce_per_state_avg": per_state,
        "ce_average_game": highs_ce_welfare(averaged),
        "commeq_literal": highs_commeq_welfare(game, "literal"),
        "commeq_canonical": highs_commeq_welfare(game, "canonical"),
    }
    _require(row["commeq_canonical"] <= row["commeq_literal"] + SUM_TOL,
             f"M={row['levels']}: canonical welfare exceeds literal")
    for key, value in want.items():
        _require(abs(row[key] - value) <= LP_TOL,
                 f"M={row['levels']} {key} = {row[key]!r}, HiGHS gives {value!r}")


def check_literal_device(game: CommGame, conditionals, welfare: float):
    """A literal-family device: distributions, no profitable lie, optimal."""
    cond = np.asarray(conditionals, dtype=float)
    for row in cond:
        check_distribution(row)
    gap = literal_gap(game, cond)
    _require(gap <= GAP_TOL, f"truth-telling gap {gap:.3e} exceeds {GAP_TOL:.0e}")
    value = sum(float(game.prior[j]) * float(cond[t] @ game.payoffs[t].sum(axis=0).reshape(-1))
                for t, j in enumerate(game.joints))
    _require(abs(value - welfare) <= SUM_TOL,
             f"device welfare {value!r}, reported {welfare!r}")
    best = highs_commeq_welfare(game, "literal")
    _require(abs(welfare - best) <= LP_TOL,
             f"literal welfare {welfare!r}, HiGHS optimum {best!r}")


# ------------------------------------------------------------ regret matching

def check_regret(values: np.ndarray, diffs, counts: np.ndarray, steps: int,
                 empirical: np.ndarray, last_trace_row):
    """Cumulative regrets of the conditional rule agree with the empirical
    play they came from.

    For every player i, held action a and alternative b:
    D_i[a, b] = T sum_{a_-i} p(a, a_-i) (u_i(b, a_-i) - u_i(a, a_-i)), p the
    empirical distribution. Summed over a, this is the identity
    sum_a D_i[a, b] = T (E_p[u_i(b, a_-i)] - E_p[u_i(a)]). The last trace row
    is recomputed from p.
    """
    k = values.shape[0]
    dims = values.shape[1:]
    c = np.asarray(counts)
    _require(int(c.sum()) == steps, f"visit counts sum to {int(c.sum())}, not {steps}")
    p = c.reshape(-1).astype(float) / steps
    _require(np.array_equal(np.asarray(empirical, dtype=float), p),
             "empirical distribution is not counts / steps")
    p = p.reshape(dims)
    for i in range(k):
        pm = np.moveaxis(p, i, 0).reshape(dims[i], -1)
        um = np.moveaxis(values[i], i, 0).reshape(dims[i], -1)
        d = np.asarray(diffs[i])
        for a in range(dims[i]):
            here = float(pm[a] @ um[a])
            for b in range(dims[i]):
                want = steps * (float(pm[a] @ um[b]) - here)
                _require(abs(d[a, b] - want) <= REGRET_TOL * steps,
                         f"player {i} regret D[{a}, {b}] = {float(d[a, b])!r}, "
                         f"empirical play gives {want!r}")
    step, max_regret, ce_gap, _welfare = last_trace_row
    _require(step == steps, f"trace ends at step {step}, run has {steps}")
    want_regret = max(max(float(np.asarray(d).max()) / steps, 0.0) for d in diffs)
    _require(abs(max_regret - want_regret) <= SUM_TOL,
             f"trace max regret {max_regret!r}, diffs give {want_regret!r}")
    want_gap = obedience_gap(values, p.reshape(-1))
    _require(abs(ce_gap - want_gap) <= SUM_TOL,
             f"trace CE gap {ce_gap!r}, recomputed {want_gap!r}")
