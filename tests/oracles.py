"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles (enumeration,
second implementations, high-precision arithmetic) and deliberately avoids
the code paths under test. ``build_ce_constraints``, the dense CE LP, places
its rows with ``np.moveaxis``, not with the library's profile layout
(``correlated._told_index``) or its row builder (``correlated._map_rows``).
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
from decimal import Decimal, getcontext

import numpy as np


def sinr_reference(i, powers, gains, noise):
    """Second implementation of the SINR formula, plain Python arithmetic."""
    num = powers[i] * gains[i][i]
    den = noise
    for j in range(len(powers)):
        if j != i:
            den = den + powers[j] * gains[j][i]
    return num / den


def efficiency_reference(x, packet_len, digits=50):
    """(1 - e^-x)^L via high-precision decimal arithmetic."""
    getcontext().prec = digits
    base = Decimal(1) - (-Decimal(repr(x))).exp()
    return float(base ** packet_len)


def pure_nash_reference(values):
    """Brute-force pure NE scan: check every unilateral deviation directly.

    ``values`` has shape (K, *dims).
    """
    k = values.shape[0]
    dims = values.shape[1:]
    result = []
    for profile in itertools.product(*[range(d) for d in dims]):
        ok = True
        for i in range(k):
            here = values[(i,) + profile]
            for b in range(dims[i]):
                alt = list(profile)
                alt[i] = b
                if values[(i,) + tuple(alt)] > here:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            result.append(tuple(profile))
    return result


def best_response_set(i, others, tensor):
    """Argmax actions of player i against ``others`` (actions of j != i, in
    player order). Ties compare exactly on stored tensor values."""
    k = tensor.players
    if not 0 <= i < k:
        raise IndexError("player index out of range")
    if len(others) != k - 1:
        raise ValueError("partial profile must list all other players")
    idx = list(others)
    for j, a in enumerate(idx):
        d = tensor.dims[j if j < i else j + 1]
        if not 0 <= a < d:
            raise IndexError("action index out of range")
    idx.insert(i, slice(None))
    payoffs = tensor.player_payoffs(i)[tuple(idx)]
    best = payoffs.max()
    return set(int(a) for a in np.flatnonzero(payoffs == best))


def polygon_contains(polygon, point, tol=1e-7):
    """Point-in-convex-polygon with absolute slack ``tol``.

    Accepts degenerate polygons (one point, a segment).
    """
    x, y = float(point[0]), float(point[1])
    verts = [(float(p[0]), float(p[1])) for p in polygon]
    if not verts:
        return False
    if len(verts) == 1:
        # by multiplication: a float ``** 2`` raises OverflowError where a
        # product goes to inf
        dx, dy = x - verts[0][0], y - verts[0][1]
        return dx * dx + dy * dy <= tol * tol
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


def _segment_distance(a, b, p):
    av = np.asarray(a)
    bv = np.asarray(b)
    pv = np.asarray(p)
    d = bv - av
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.hypot(*(pv - av)))
    t = float(np.clip((pv - av) @ d / denom, 0.0, 1.0))
    return float(np.hypot(*(pv - (av + t * d))))


def ce_gain_reference(values, probs):
    """Worst deviation gain of a joint distribution, by explicit loops."""
    k = values.shape[0]
    dims = values.shape[1:]
    p = probs.reshape(dims)
    worst = 0.0
    for i in range(k):
        for a in range(dims[i]):
            for b in range(dims[i]):
                if a == b:
                    continue
                gain = 0.0
                for rest in itertools.product(*[range(d) for j, d in enumerate(dims) if j != i]):
                    prof_a = list(rest)
                    prof_a.insert(i, a)
                    prof_b = list(rest)
                    prof_b.insert(i, b)
                    gain += p[tuple(prof_a)] * (
                        values[(i,) + tuple(prof_b)] - values[(i,) + tuple(prof_a)]
                    )
                worst = max(worst, gain)
    return worst


def reference_survivors(values, prior):
    """Iterated strict dominance by a pure action, by explicit loops, one
    action removed at a time. ``values[t]`` has shape (K, *dims) at joint
    type t, joint types in C order over ``prior``'s shape. Action a of player
    i at type t_i goes when another surviving action c pays strictly more
    at every joint type of positive prior with that t_i and every profile of
    the others' surviving actions at their types there. Returns
    ``alive[i][t_i]`` as sorted lists."""
    type_dims = prior.shape
    k = len(type_dims)
    dims = values[0].shape[1:]
    joints = list(itertools.product(*[range(d) for d in type_dims]))
    alive = [[list(range(dims[i])) for _ in range(type_dims[i])] for i in range(k)]

    def beats(i, t_i, c, a):
        met = False
        for idx, joint in enumerate(joints):
            if joint[i] != t_i or prior[joint] <= 0:
                continue
            met = True
            others = [alive[j][joint[j]] for j in range(k) if j != i]
            for rest in itertools.product(*others):
                prof_c, prof_a = list(rest), list(rest)
                prof_c.insert(i, c)
                prof_a.insert(i, a)
                if not values[idx][(i,) + tuple(prof_c)] > values[idx][(i,) + tuple(prof_a)]:
                    return False
        return met

    removed = True
    while removed:
        removed = False
        for i in range(k):
            for t_i in range(type_dims[i]):
                for a in alive[i][t_i]:
                    if any(beats(i, t_i, c, a) for c in alive[i][t_i] if c != a):
                        alive[i][t_i].remove(a)
                        removed = True
                        break
    return alive


def build_ce_constraints(tensor, objective=None):
    """The full CE linear program: one row per (player, recommendation a,
    deviation b != a), u_i(a, a_-i) - u_i(b, a_-i) on the profiles where
    player i is told a, placed through ``np.moveaxis`` rather than the
    library's profile layout; the probability-simplex equality; and
    nonnegativity. The default objective is social welfare."""
    from powergames.simplex import make_problem

    rows = []
    for i in range(tensor.players):
        u = np.moveaxis(tensor.player_payoffs(i), i, 0)
        for a in range(tensor.dims[i]):
            for b in range(tensor.dims[i]):
                if b != a:
                    row = np.zeros(tensor.dims)
                    np.moveaxis(row, i, 0)[a] = u[a] - u[b]
                    rows.append((row.reshape(-1), 0.0))
    if objective is None:
        objective = tensor.welfare_flat()
    return make_problem(objective, ineq_rows=rows,
                        eq_rows=[(np.ones(tensor.profile_count), 1.0)], name="ce")


def lp_vertex_reference(c, a_ge, b_ge, a_eq, b_eq, lo, hi, tol=1e-9):
    """Solve a *bounded* LP by enumerating basic feasible points.

    All candidate vertices are intersections of n linearly independent active
    constraints drawn from the inequality rows, bound rows and equality rows.
    Returns ("optimal", value) or ("infeasible", None).
    """
    n = c.shape[0]
    rows = [np.asarray(r, dtype=float) for r in a_ge]
    rhs = [float(v) for v in b_ge]
    for j in range(n):
        if np.isfinite(lo[j]):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rhs.append(float(lo[j]))
        if np.isfinite(hi[j]):
            e = np.zeros(n)
            e[j] = -1.0
            rows.append(e)
            rhs.append(float(-hi[j]))
    ge = np.asarray(rows)
    gb = np.asarray(rhs)
    eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if len(a_eq) else np.zeros((0, n))
    eb = np.asarray(b_eq, dtype=float).reshape(-1)
    m_eq = eq.shape[0]
    need = n - m_eq
    if need < 0:
        raise ValueError("more equalities than variables")
    idx_sets = list(itertools.combinations(range(ge.shape[0]), need))
    if not idx_sets:
        idx_sets = [()]
    mats = np.empty((len(idx_sets), n, n))
    vecs = np.empty((len(idx_sets), n))
    for k, subset in enumerate(idx_sets):
        mats[k, :m_eq] = eq
        vecs[k, :m_eq] = eb
        for t, r in enumerate(subset):
            mats[k, m_eq + t] = ge[r]
            vecs[k, m_eq + t] = gb[r]
    norms = np.linalg.norm(mats, axis=2, keepdims=True)
    norms[norms == 0] = 1.0
    scaled = mats / norms
    dets = np.abs(np.linalg.det(scaled))
    good = dets > 1e-8
    best = None
    if good.any():
        sol = np.linalg.solve(mats[good], vecs[good][..., None])[..., 0]
        feas = (ge @ sol.T >= (gb[:, None] - tol * np.maximum(1.0, np.abs(gb[:, None])))).all(axis=0)
        if m_eq:
            feas &= (np.abs(eq @ sol.T - eb[:, None]) <= tol * np.maximum(1.0, np.abs(eb[:, None]))).all(axis=0)
        if feas.any():
            vals = sol[feas] @ c
            best = float(vals.max())
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_bounded_lp(rng):
    """A feasible, box-bounded random LP of modest size."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 11))
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 1.2, n)
    b = a @ x0 - rng.uniform(0.0, 1.0, m)
    c = rng.normal(size=n)
    lo = np.where(rng.random(n) < 0.25, -rng.uniform(0.5, 2.0, n), 0.0)
    hi = lo + rng.uniform(1.0, 4.0, n)
    # keep the anchor point inside the box
    lo = np.minimum(lo, x0 - 0.05)
    hi = np.maximum(hi, x0 + 0.05)
    use_eq = rng.random() < 0.3
    if use_eq:
        w = rng.uniform(0.5, 1.5, n)
        eq = w.reshape(1, -1)
        eb = np.array([float(w @ x0)])
    else:
        eq = np.zeros((0, n))
        eb = np.zeros(0)
    return c, a, b, eq, eb, lo, hi


def shifted_box_lp(c, a, b, eq, eb, lo, hi):
    """A ``random_bounded_lp`` box LP over y = x - lo >= 0: the rows
    ``a y >= b - a lo``, then ``-y >= -(hi - lo)``, and ``eq y = eb - eq lo``.
    Its optimum is x = y + lo, of value ``c y + c lo``."""
    from powergames.simplex import make_problem

    ge = np.vstack([a, np.diag(-np.ones(c.shape[0]))])
    ge_rhs = np.concatenate([b - a @ lo, -(hi - lo)])
    return make_problem(c, ineq_rows=list(zip(ge, ge_rhs)),
                        eq_rows=list(zip(eq, eb - eq @ lo)))


def random_tensor(rng, dims, spread=2.0):
    """Random payoff tensor values of shape (K, *dims)."""
    k = len(dims)
    return rng.uniform(-spread / 2, spread / 2, size=(k,) + tuple(dims))


def unit_max_rows(prob):
    """``prob`` with each inequality row scaled to unit max coefficient, as
    the row-generation master keeps its cuts."""
    a = prob.ineq_coeffs / np.abs(prob.ineq_coeffs).max(axis=1)[:, None]
    return dataclasses.replace(prob, ineq_coeffs=a)


def first_rows(prob, m):
    """``prob`` with only its first ``m`` inequality rows."""
    return dataclasses.replace(prob, ineq_coeffs=prob.ineq_coeffs[:m],
                               ineq_rhs=prob.ineq_rhs[:m])


def reference_rm_step(state, tensor, mu):
    """One regret-matching period, one player and one action at a time: the
    step-by-step rule that ``regret``'s block kernel must reproduce bit for bit."""
    from powergames.errors import MuTooSmallError

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


def reference_rm_run(tensor, steps, seed, mu=None, rule="conditional", trace=True):
    """``regret.rm_run`` as a loop of ``reference_rm_step``."""
    from powergames.correlated import ce_violation
    from powergames.regret import (
        RmRunResult, _trace_schedule, default_mu, empirical_distribution, rm_init,
    )

    if steps < 1:
        raise ValueError("steps must be >= 1")
    if mu is None:
        mu = default_mu(tensor)
    state = rm_init(tensor, seed, rule)
    checkpoints = _trace_schedule(steps) if trace else []
    next_cp = 0
    welfare_flat = tensor.welfare_flat()
    out_trace = []
    for step in range(1, steps + 1):
        reference_rm_step(state, tensor, mu)
        if checkpoints and next_cp < len(checkpoints) and step == checkpoints[next_cp]:
            next_cp += 1
            dist = empirical_distribution(state)
            max_regret = max(float(r.max()) for r in state.regrets())
            gap = ce_violation(tensor, dist)
            welfare = float(dist.probs @ welfare_flat)
            out_trace.append((step, max_regret, gap, welfare))
    return RmRunResult(empirical_distribution(state), state, out_trace)


def result_digest(res):
    """sha256 of a communication result's conditionals and its (welfare,
    violation, pivots), to pin a solve's bytes."""
    return hashlib.sha256(res.device.conditionals.tobytes() + repr(
        (res.welfare, res.max_violation, res.solver_iterations)).encode()).hexdigest()
