"""Dense primal simplex for small linear programs.

Problems are stated as ``max c.x`` over ``A_ge x >= b_ge``, ``A_eq x = b_eq``
and per-variable bounds. The solver works on the standard-form reformulation
(shifted/split variables, surplus columns, artificials for rows without an
identity column) with a two-phase start.

Pivoting: steepest-edge pricing with a Harris-style ratio test (largest pivot
among near-tied rows, relative pivot floor). Long runs of degenerate pivots
trigger a deterministic right-hand-side perturbation in the current basis
frame and, as a last resort, Bland's rule. The tableau is refactorized from
the original data periodically and before any verdict is accepted (a
refactorization is skipped when neither the basis nor the right-hand side
changed since the last one); dropping the perturbation is followed by a
dual simplex repair, the same dual simplex that warm starts use. Identical
inputs take identical pivot sequences.

Refactorization is slack-aware. Every surplus and artificial column is a
+-1 unit vector on one row, and in CE masters most basic columns are of that
kind, so B is a permuted block triangle: only the square kernel of the other
basic columns against the rows no basic unit column covers is factorized,
in one solve for the whole of ``[A | b]``, and each unit row follows by
substitution. That costs about 2m|P|N flops for |P| kernel columns against
2m^2 N for a dense solve. Two basic unit columns on one row, or a singular
kernel, mean a singular basis.

Warm start: an optimal solution names its basic columns (``LpSolution.basis``)
in the problem's own terms, and ``solve_lp(problem, start=basis)`` begins from
that basis. Inequality rows appended to the problem since the basis was found
enter with their surplus columns basic, so an optimal basis of the previous
problem stays dual feasible; dual simplex pivots restore primal feasibility
after such cuts, and primal phase 2 then handles a changed objective. The
attempt is abandoned for the cold two-phase solve when the start does not
fit the problem, its basis matrix is singular, it spends more than
``WARM_PIVOT_SLACK`` pivots beyond the row count, or its point fails
certification. A start is only a hint: no answer depends on it being good.
Every solve ends in ``_optimal``: a dual pass to ``CLEAN_TOL``, then certification.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import SolverStallError

INF = float("inf")
# a warm start is abandoned after (rows + this many) pivots
WARM_PIVOT_SLACK = 100
# every solve's last dual pass lifts basic values below -CLEAN_TOL; clipping
# several within feas_tol to zero can break an equality row by over feas_tol
CLEAN_TOL = 1e-11
# primal feasibility and reduced-cost optimality tolerances
DEFAULT_FEAS_TOL = 1e-9
DEFAULT_OPT_TOL = 1e-9
# pivot magnitude floors: absolute, and relative to the column's largest entry
PIV_ABS = 1e-11
PIV_REL = 1e-9
# consecutive degenerate pivots before perturbing (and, later, Bland's rule)
STALL_THRESHOLD = 64
# pivots between scheduled refactorizations
REFACTOR_EVERY = 200
# a solve stops after this many pivots per standard-form column and row
PIVOT_CAP_FACTOR = 50


@dataclass(frozen=True)
class LpProblem:
    """``max objective . x`` subject to rows and bounds.

    ``ineq_rows`` entries mean ``coeffs . x >= rhs``; ``eq_rows`` entries mean
    ``coeffs . x = rhs``. ``bounds[j]`` is ``(lo, hi)``, default ``(0, +inf)``.
    """

    n: int
    objective: np.ndarray
    ineq_coeffs: np.ndarray   # (m_ge, n)
    ineq_rhs: np.ndarray      # (m_ge,)
    eq_coeffs: np.ndarray     # (m_eq, n)
    eq_rhs: np.ndarray        # (m_eq,)
    lo: np.ndarray            # (n,)
    hi: np.ndarray            # (n,)
    name: str = "lp"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        for arr, cols in ((self.objective, None), (self.ineq_coeffs, self.n),
                          (self.eq_coeffs, self.n)):
            if cols is not None and arr.ndim == 2 and arr.shape[1] != cols:
                raise ValueError("row length does not match variable count")
        if self.objective.shape != (self.n,):
            raise ValueError("objective length does not match variable count")
        if self.ineq_coeffs.shape[0] != self.ineq_rhs.shape[0]:
            raise ValueError("inequality rhs count mismatch")
        if self.eq_coeffs.shape[0] != self.eq_rhs.shape[0]:
            raise ValueError("equality rhs count mismatch")
        for arr in (self.objective, self.ineq_coeffs, self.ineq_rhs,
                    self.eq_coeffs, self.eq_rhs):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError("coefficients must be finite")
        if np.any(self.lo > self.hi):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise ValueError("bounds must not be NaN")

    @property
    def row_count(self) -> int:
        return self.ineq_coeffs.shape[0] + self.eq_coeffs.shape[0]


def make_problem(objective, ineq_rows=(), eq_rows=(), bounds=None, name="lp") -> LpProblem:
    """Convenience constructor from (coeffs, rhs) pair lists."""
    c = np.asarray(objective, dtype=float)
    n = c.shape[0]

    def split(rows):
        if not rows:
            return np.zeros((0, n)), np.zeros(0)
        coeffs = np.asarray([r[0] for r in rows], dtype=float)
        rhs = np.asarray([r[1] for r in rows], dtype=float)
        return coeffs, rhs

    a_ge, b_ge = split(list(ineq_rows))
    a_eq, b_eq = split(list(eq_rows))
    lo = np.zeros(n)
    hi = np.full(n, INF)
    if bounds is not None:
        for j, (l, h) in enumerate(bounds):
            lo[j] = -INF if l is None else float(l)
            hi[j] = INF if h is None else float(h)
    return LpProblem(n, c, a_ge, b_ge, a_eq, b_eq, lo, hi, name)


@dataclass(frozen=True)
class LpSolution:
    """``basis`` (present iff optimal) names the basic columns, one per row:
    ``("x", j)`` structural column j (``j >= n`` is the negative part of free
    variable number ``j - n``, counting from 0 in index order), ``("s", r)``
    surplus of inequality row r, ``("b", j)`` surplus of the row that holds
    variable j at its finite upper bound, ``("a", r)`` and ``("e", r)``
    artificials of inequality row r and equality row r."""

    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]          # present iff optimal
    objective_value: Optional[float]
    iterations: int
    basis: Optional[tuple[tuple[str, int], ...]] = None


@dataclass(frozen=True)
class SimplexOptions:
    feas_tol: float = DEFAULT_FEAS_TOL
    opt_tol: float = DEFAULT_OPT_TOL


class _Standardized:
    """Standard-form data plus the map back to original variables."""

    def __init__(self, prob: LpProblem):
        n = prob.n
        lo, hi = prob.lo, prob.hi
        has_lo, has_hi = lo > -INF, hi < INF
        # per-variable transform: 0 shift (x = lo + y), 1 mirror (x = hi - y),
        # 2 split (x = y - y_extra)
        self.kind = np.where(has_lo, 0, np.where(has_hi, 1, 2))
        self.offset = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
        free = np.flatnonzero(self.kind == 2)
        self.free = free
        self.n = n
        self.n_std = n + free.size

        def transform_rows(coeffs, rhs):
            if coeffs.shape[0] == 0:
                return np.zeros((0, self.n_std)), rhs.copy()
            out = np.zeros((coeffs.shape[0], self.n_std))
            out[:, :n] = coeffs
            new_rhs = rhs - coeffs @ self.offset
            mirror = self.kind == 1
            if mirror.any():
                out[:, :n][:, mirror] *= -1.0
            out[:, n:] = -coeffs[:, free]
            return out, new_rhs

        a_ge, b_ge = transform_rows(prob.ineq_coeffs, prob.ineq_rhs)
        a_eq, b_eq = transform_rows(prob.eq_coeffs, prob.eq_rhs)
        # residual finite ranges become -y_j >= -(hi - lo)
        ranged = np.flatnonzero(has_lo & has_hi & (hi > lo))
        fixed = np.flatnonzero(has_lo & (hi == lo))
        bound_vars = np.concatenate([ranged, fixed])
        self.m_ge_prob = prob.ineq_coeffs.shape[0]
        self.bound_vars = bound_vars.tolist()
        if bound_vars.size:
            extra = np.zeros((bound_vars.size, self.n_std))
            extra[np.arange(bound_vars.size), bound_vars] = -1.0
            extra_rhs = np.concatenate([-(hi[ranged] - lo[ranged]), np.zeros(fixed.size)])
            a_ge = np.vstack([a_ge, extra])
            b_ge = np.concatenate([b_ge, extra_rhs])
        self.a_ge, self.b_ge = a_ge, b_ge
        self.a_eq, self.b_eq = a_eq, b_eq

        c = np.zeros(self.n_std)
        c[:n] = prob.objective
        c[:n][self.kind == 1] *= -1.0
        c[n:] = -prob.objective[free]
        self.c = c

    def map_back(self, y: np.ndarray) -> np.ndarray:
        x = y[: self.n].copy()
        shift, mirror = self.kind == 0, self.kind == 1
        x[shift] = self.offset[shift] + x[shift]
        x[mirror] = self.offset[mirror] - x[mirror]
        # a free variable is exactly y[j] - y[n + k], so -0.0 stays -0.0
        x[self.free] -= y[self.n:self.n_std]
        return x


class _Tableau:
    """Two-phase dense tableau with refactorization against original data."""

    def __init__(self, std: _Standardized, opts: SimplexOptions):
        self.opts = opts
        n = std.n_std
        m_ge = std.a_ge.shape[0]
        m_eq = std.a_eq.shape[0]
        m = m_ge + m_eq
        rows = np.vstack([std.a_ge, std.a_eq]) if m else np.zeros((0, n))
        b = np.concatenate([std.b_ge, std.b_eq])
        sur_sign = np.zeros(m)
        sur_sign[:m_ge] = -1.0
        flip = b < 0
        flip[:m_ge] |= b[:m_ge] == 0
        rows[flip] *= -1.0
        b[flip] = -b[flip]
        sur_sign[flip] *= -1.0

        self.m, self.m_ge = m, m_ge
        # rows whose surplus column starts basic; every other row gets an
        # artificial, numbered in row order
        slack = np.zeros(m, dtype=bool)
        slack[:m_ge] = sur_sign[:m_ge] > 0
        art_rows = np.flatnonzero(~slack)
        k = art_rows.size
        basis = np.empty(m, dtype=int)
        basis[slack] = n + np.flatnonzero(slack)
        basis[art_rows] = n + m_ge + np.arange(k)
        self.n_art = k
        self.art_of_row = dict(zip(art_rows.tolist(), range(k)))
        N = n + m_ge + k
        self.n_struct = n
        self.N = N
        self.basis = basis

        # [A_all | b_active], the right-hand side filled in by refactor
        self._ab = np.zeros((m, N + 1))
        A_all = self._ab[:, :N]
        A_all[:, :n] = rows
        A_all[np.arange(m_ge), n + np.arange(m_ge)] = sur_sign[:m_ge]
        A_all[art_rows, n + m_ge + np.arange(k)] = 1.0
        self.A_all = A_all
        # the one row of each surplus or artificial (unit) column; -1 for
        # structural columns
        self.unit_row = np.concatenate([np.full(n, -1), np.arange(m_ge), art_rows])
        self.b_true = b
        self.b_active = b.copy()
        self.d2 = np.zeros(N)
        self.d2[:n] = -std.c
        self.d1 = np.zeros(N)
        self.d1[n + m_ge:] = 1.0
        self.T = np.empty((m, N + 1))
        self.obj = np.empty((2, N + 1))
        self.allowed = np.ones(N, dtype=bool)
        self.iters = 0
        self.max_iter = PIVOT_CAP_FACTOR * (N + m)
        self.pert_u = (np.arange(1, m + 1) * 0.6180339887498949) % 1.0 + 0.5
        # T is exactly the factorization of the basis against _factored_b
        # until the next pivot or perturbation
        self._clean = False
        self._factored_b = self.b_active

    def refactor(self, exact: bool = False) -> float:
        """Recompute T = B^-1 [A_all | b_active] from the original data by
        one solve of the non-unit kernel (see the module docstring);
        ``exact`` lets a singular basis raise LinAlgError instead of falling
        back to least squares on the full B."""
        if self._clean and np.array_equal(self.b_active, self._factored_b):
            return float(self.T[:, -1].min()) if self.m else 0.0
        ab, T = self._ab, self.T
        ab[:, -1] = self.b_active
        unit_row = self.unit_row[self.basis]
        unit = np.flatnonzero(unit_row >= 0)
        kernel = np.flatnonzero(unit_row < 0)
        s = unit_row[unit]
        free_rows = np.ones(self.m, dtype=bool)
        free_rows[s] = False
        try:
            if np.count_nonzero(free_rows) != kernel.size:
                raise np.linalg.LinAlgError("two basic unit columns on one row")
            kcols = self.basis[kernel]
            y = np.linalg.solve(self.A_all[np.ix_(free_rows, kcols)], ab[free_rows])
            T[kernel] = y
            rest = ab[s]
            rest -= self.A_all[np.ix_(s, kcols)] @ y
            rest *= self.A_all[s, self.basis[unit]][:, None]  # the unit's sign
            T[unit] = rest
        except np.linalg.LinAlgError:
            if exact:
                raise
            T[:], *_ = np.linalg.lstsq(self.A_all[:, self.basis], ab, rcond=None)
        xb = T[:, -1]
        xb[np.abs(xb) < 1e-11] = 0.0
        binv_a = T[:, : self.N]
        for j, d in ((0, self.d2), (1, self.d1)):
            dB = d[self.basis]
            self.obj[j, : self.N] = d - dB @ binv_a
            self.obj[j, -1] = -(dB @ xb)
            self.obj[j, self.basis] = 0.0
        self._clean = True
        self._factored_b = self.b_active
        return float(xb.min()) if self.m else 0.0

    def pivot_at(self, r: int, q: int):
        T = self.T
        piv = T[r, q]
        T[r, :] /= piv
        col = T[:, q].copy()
        col[r] = 0.0
        T[:, :] -= np.outer(col, T[r, :])
        T[:, q] = 0.0
        T[r, q] = 1.0
        for j in range(2):
            f = self.obj[j, q]
            if f != 0.0:
                self.obj[j, :] -= f * T[r, :]
                self.obj[j, q] = 0.0
        self.basis[r] = q
        self._clean = False
        rhs = T[:, -1]
        np.copyto(rhs, 0.0, where=np.abs(rhs) < 1e-12)
        self.iters += 1
        if self.iters > self.max_iter:
            raise SolverStallError(
                f"simplex exceeded {self.max_iter} pivots without a verdict"
            )

    def entering(self, jo: int, bland: bool, phase: int) -> int:
        rc = self.obj[jo, : self.N]
        cand = np.where(self.allowed & (rc < -self.opts.opt_tol))[0]
        if cand.size == 0:
            return -1
        if bland:
            return int(cand[0])
        rcc = rc[cand]
        if cand.size > 1:
            cols = self.T[:, cand]
            norms = np.sqrt(1.0 + np.einsum("ij,ij->j", cols, cols))
            score = rcc / norms
        else:
            score = rcc
        best = score.min()
        near = cand[score <= best * (1 - 1e-12)]
        if near.size == 0:
            near = cand[score <= best]
        if phase == 1 and near.size > 1:
            # toward the eventual phase-2 objective among equally good columns
            return int(near[np.argmin(self.obj[0, near])])
        return int(near[0])

    def ratio_row(self, q: int, bland: bool) -> tuple[int, float]:
        col = self.T[:, q]
        floor = max(PIV_ABS, PIV_REL * float(np.abs(col).max(initial=0.0)))
        pos = col > floor
        if not pos.any():
            return -1, 0.0
        rhs = np.maximum(self.T[:, -1], 0.0)
        ratios = np.full(self.m, np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        rmin = float(ratios.min())
        window = rmin + max(1e-12, 1e-9 * rmin)
        ties = np.where(ratios <= window)[0]
        if bland:
            r = ties[np.argmin(self.basis[ties])]
        else:
            r = ties[np.argmax(col[ties])]
        return int(r), rmin

    def perturb(self):
        eps = 1e-8 * (1.0 + float(np.abs(self.b_true).max(initial=0.0))) * self.pert_u
        self.b_active = self.b_active + self.A_all[:, self.basis] @ eps
        self.T[:, -1] += eps
        self._clean = False

    def drop_perturbation(self) -> float:
        self.b_active = self.b_true.copy()
        return self.refactor()

    def pivot_loop(self, phase: int) -> str:
        jo = 0 if phase == 2 else 1
        degen = 0
        bland = False
        perturbs = 0
        since_refactor = 0
        while True:
            q = self.entering(jo, bland, phase)
            if q < 0:
                self.refactor()
                q = self.entering(jo, bland, phase)
                if q < 0:
                    return "optimal"
            r, rmin = self.ratio_row(q, bland)
            if r < 0:
                self.refactor()
                r, rmin = self.ratio_row(q, bland)
                if r < 0:
                    return "unbounded"
            self.pivot_at(r, q)
            since_refactor += 1
            if rmin <= 1e-12:
                degen += 1
            else:
                degen = 0
                bland = False
            if degen >= STALL_THRESHOLD:
                degen = 0
                if perturbs < 8:
                    self.perturb()
                    perturbs += 1
                else:
                    bland = True
            elif since_refactor >= REFACTOR_EVERY or abs(self.obj[jo, -1]) > 1e13:
                self.refactor()
                since_refactor = 0

    def dual_simplex(self, tol: float, jo: int = 0) -> bool:
        """Dual simplex from a basis that is dual feasible for objective row
        ``jo`` (0 phase 2, 1 phase 1) until every basic value is at least
        ``-tol``. The leaving row has the largest infeasibility relative to
        its norm (steepest edge in the dual); the entering column passes a
        Harris ratio test (the largest pivot among columns whose step is
        within ``opt_tol`` of the shortest). True once primal feasible; False when a row blocks every column. Only
        ``pivot_at``'s cap ends a run that does neither."""
        since_refactor = 0
        while True:
            rhs = self.T[:, -1]
            if rhs.min() >= -tol:
                return True
            bad = np.where(rhs < -tol)[0]
            rows = self.T[bad, : self.N]
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            r = int(bad[np.argmin(rhs[bad] / norms)])
            row = self.T[r, : self.N]
            floor = max(PIV_ABS, PIV_REL * float(np.abs(row).max()))
            cand = np.where(self.allowed & (row < -floor))[0]
            if cand.size == 0:
                return False
            alpha = -row[cand]
            rc = np.maximum(self.obj[jo, cand], 0.0)
            within = rc / alpha <= ((rc + self.opts.opt_tol) / alpha).min()
            self.pivot_at(r, int(cand[within][np.argmax(alpha[within])]))
            since_refactor += 1
            if since_refactor >= REFACTOR_EVERY:
                self.refactor()
                since_refactor = 0

    def run_phase(self, phase: int) -> str:
        jo = 0 if phase == 2 else 1
        for _ in range(6):
            st = self.pivot_loop(phase)
            if st == "unbounded":
                return "unbounded"
            worst = self.drop_perturbation()
            if worst < -self.opts.feas_tol:
                self.dual_simplex(self.opts.feas_tol, jo)
                worst = float(self.T[:, -1].min()) if self.m else 0.0
            if worst >= -self.opts.feas_tol and self.entering(jo, False, phase) < 0:
                return "optimal"
        raise SolverStallError(f"phase {phase} failed to certify a verdict")

    def crash(self):
        """Opening pivot whose ratio test can exit on a positive-rhs row."""
        cand = np.where(self.allowed & (self.obj[1, : self.N] < -self.opts.opt_tol))[0]
        if cand.size == 0:
            return
        rhs = self.T[:, -1]
        zero_rows = rhs <= 1e-12
        if zero_rows.any():
            blocked = (self.T[zero_rows][:, cand] > PIV_ABS).any(axis=0)
            good = cand[~blocked]
        else:
            good = cand
        if good.size == 0:
            return
        q = int(good[np.argmin(self.obj[0, good])])
        r, _ = self.ratio_row(q, False)
        if r >= 0:
            self.pivot_at(r, q)


def solve_lp(problem: LpProblem, options: SimplexOptions | None = None,
             start: tuple[tuple[str, int], ...] | None = None) -> LpSolution:
    """Solve an LpProblem; deterministic for identical inputs.

    ``start`` is the ``basis`` of an optimal solution of this problem, or of
    one that lacked some trailing inequality rows, under any objective. It
    is tried first; when the attempt is abandoned (see the module docstring)
    the cold two-phase solve runs and the abandoned pivots are counted in
    ``iterations``.

    Raises SolverStallError when the iteration cap is exceeded or the final
    basis cannot be certified; that is distinct from the three statuses.
    """
    opts = options or SimplexOptions()
    std = _Standardized(problem)
    spent = 0
    if start is not None:
        sol, spent = _solve_warm(problem, std, opts, start)
        if sol is not None:
            return sol
    sol = _solve_cold(problem, std, opts)
    return replace(sol, iterations=sol.iterations + spent) if spent else sol


def _solve_cold(problem: LpProblem, std: _Standardized, opts: SimplexOptions) -> LpSolution:
    tab = _Tableau(std, opts)

    if tab.m == 0:
        # only bounds; optimum at y = 0 unless some cost still improves
        if (std.c > opts.opt_tol).any():
            return LpSolution("unbounded", None, None, 0)
        y = np.zeros(std.n_std)
        x = std.map_back(y)
        return LpSolution("optimal", x, float(problem.objective @ x), 0, ())

    tab.refactor()
    if tab.n_art:
        tab.crash()
        st = tab.run_phase(1)
        if tab.obj[1, -1] < -1e-7:
            return LpSolution("infeasible", None, None, tab.iters)
        tab.allowed[tab.n_struct + tab.m_ge:] = False
        for r in range(tab.m):
            if tab.basis[r] >= tab.n_struct + tab.m_ge:
                row = tab.T[r, : tab.n_struct + tab.m_ge]
                nz = np.where(np.abs(row) > 1e-9)[0]
                if nz.size:
                    tab.pivot_at(r, int(nz[0]))
        tab.refactor()
    st = tab.run_phase(2)
    if st == "unbounded":
        return LpSolution("unbounded", None, None, tab.iters)
    return _optimal(problem, std, tab, opts)


def _solve_warm(problem: LpProblem, std: _Standardized, opts: SimplexOptions,
                start) -> tuple[LpSolution | None, int]:
    """One attempt from ``start``: (certified optimum or None, pivots spent)."""
    tab = _Tableau(std, opts)
    cols = _start_columns(std, tab, start)
    if cols is None or tab.m == 0:
        return None, 0
    tab.basis[:] = cols
    tab.allowed[tab.n_struct + tab.m_ge:] = False
    tab.max_iter = tab.m + WARM_PIVOT_SLACK
    try:
        tab.refactor(exact=True)
        if tab.dual_simplex(opts.feas_tol) and tab.run_phase(2) == "optimal":
            return _optimal(problem, std, tab, opts), tab.iters
    except (np.linalg.LinAlgError, SolverStallError):
        pass
    return None, tab.iters


def _optimal(problem: LpProblem, std: _Standardized, tab: _Tableau,
             opts: SimplexOptions) -> LpSolution:
    """The finish of every solve, cold or warm, from an optimal basis."""
    tab.dual_simplex(CLEAN_TOL)  # best effort; certification judges
    tab.refactor()
    y = np.zeros(tab.N)
    y[tab.basis] = np.maximum(tab.T[:, -1], 0.0)
    x = std.map_back(y[: std.n_std])
    _certify(problem, x, opts.feas_tol)
    return LpSolution("optimal", x, float(problem.objective @ x), tab.iters,
                      _basis_labels(std, tab))


def _basis_labels(std: _Standardized, tab: _Tableau) -> tuple[tuple[str, int], ...]:
    n, m_ge = std.n_std, tab.m_ge
    labels = []
    for col in tab.basis.tolist():
        if col < n:
            labels.append(("x", col))
        elif col < n + m_ge:
            r = col - n
            labels.append(("s", r) if r < std.m_ge_prob
                          else ("b", std.bound_vars[r - std.m_ge_prob]))
        else:
            # bound rows have rhs <= 0, so their surplus is basic and they
            # never carry an artificial
            r = int(tab.unit_row[col])
            labels.append(("a", r) if r < m_ge else ("e", r - m_ge))
    return tuple(labels)


def _start_columns(std: _Standardized, tab: _Tableau, start) -> np.ndarray | None:
    """Tableau columns of ``start`` plus the surplus column of every
    inequality row appended since; None when the start does not fit."""
    m_eq = tab.m - tab.m_ge
    n, m_ge_prob = std.n_std, std.m_ge_prob
    old_ge = len(start) - m_eq - len(std.bound_vars)
    if not 0 <= old_ge <= m_ge_prob:
        return None
    bound_pos = {j: k for k, j in enumerate(std.bound_vars)}
    art_base = n + tab.m_ge
    cols = []
    for kind, i in start:
        if kind == "x" and 0 <= i < n:
            col = i
        elif kind == "s" and 0 <= i < old_ge:
            col = n + i
        elif kind == "b" and i in bound_pos:
            col = n + m_ge_prob + bound_pos[i]
        elif kind == "a" and 0 <= i < old_ge and i in tab.art_of_row:
            col = art_base + tab.art_of_row[i]
        elif kind == "e" and 0 <= i < m_eq and tab.m_ge + i in tab.art_of_row:
            col = art_base + tab.art_of_row[tab.m_ge + i]
        else:
            return None
        cols.append(col)
    cols.extend(n + r for r in range(old_ge, m_ge_prob))
    if len(set(cols)) != len(cols):
        return None
    return np.asarray(cols, dtype=int)


def _certify(prob: LpProblem, x: np.ndarray, tol: float):
    """Row-scaled feasibility check of a claimed-optimal point."""

    def scale(coeffs):
        return np.maximum(1.0, np.abs(coeffs).max(axis=1, initial=0.0))

    if prob.ineq_coeffs.shape[0]:
        resid = prob.ineq_coeffs @ x - prob.ineq_rhs
        if (resid / scale(prob.ineq_coeffs) < -tol).any():
            raise SolverStallError("optimal point failed inequality certification")
    if prob.eq_coeffs.shape[0]:
        resid = np.abs(prob.eq_coeffs @ x - prob.eq_rhs)
        if (resid / scale(prob.eq_coeffs) > tol).any():
            raise SolverStallError("optimal point failed equality certification")
    lo_ok = x >= np.where(np.isfinite(prob.lo), prob.lo - tol * np.maximum(1, np.abs(prob.lo)), -INF)
    hi_ok = x <= np.where(np.isfinite(prob.hi), prob.hi + tol * np.maximum(1, np.abs(prob.hi)), INF)
    if not (lo_ok.all() and hi_ok.all()):
        raise SolverStallError("optimal point failed bound certification")


def dump_problem(problem: LpProblem) -> str:
    """Fixed-column MPS-like text form; layout documented in docs/lp-dump-format.md."""
    lines = []
    lines.append(f"NAME    {problem.name[:60]}")
    lines.append("* OBJSENSE MAX")
    lines.append("ROWS")
    lines.append(" N  OBJ")
    for r in range(problem.ineq_coeffs.shape[0]):
        lines.append(f" G  R{r + 1:07d}")
    for r in range(problem.eq_coeffs.shape[0]):
        lines.append(f" E  E{r + 1:07d}")
    lines.append("COLUMNS")

    def val(v: float) -> str:
        return f"{v:+.17e}"

    for j in range(problem.n):
        name = f"X{j + 1:07d}"
        if problem.objective[j] != 0.0:
            lines.append(f"    {name}  OBJ       {val(problem.objective[j])}")
        for r in range(problem.ineq_coeffs.shape[0]):
            v = problem.ineq_coeffs[r, j]
            if v != 0.0:
                lines.append(f"    {name}  R{r + 1:07d}  {val(v)}")
        for r in range(problem.eq_coeffs.shape[0]):
            v = problem.eq_coeffs[r, j]
            if v != 0.0:
                lines.append(f"    {name}  E{r + 1:07d}  {val(v)}")
    lines.append("RHS")
    for r in range(problem.ineq_coeffs.shape[0]):
        if problem.ineq_rhs[r] != 0.0:
            lines.append(f"    RHS       R{r + 1:07d}  {val(problem.ineq_rhs[r])}")
    for r in range(problem.eq_coeffs.shape[0]):
        if problem.eq_rhs[r] != 0.0:
            lines.append(f"    RHS       E{r + 1:07d}  {val(problem.eq_rhs[r])}")
    lines.append("BOUNDS")
    for j in range(problem.n):
        name = f"X{j + 1:07d}"
        lo, hi = problem.lo[j], problem.hi[j]
        if lo == -INF and hi == INF:
            lines.append(f" FR BND       {name}")
            continue
        if lo != 0.0:
            if lo == -INF:
                lines.append(f" MI BND       {name}")
            else:
                lines.append(f" LO BND       {name}  {val(lo)}")
        if hi < INF:
            lines.append(f" UP BND       {name}  {val(hi)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
