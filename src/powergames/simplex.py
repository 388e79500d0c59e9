"""Revised primal simplex for small linear programs.

Problems have one shape: ``max c.x`` over ``x >= 0``, ``A_ge x >= b_ge`` and
``A_eq x = b_eq``, as every LP over probabilities is. The solver adds a
surplus column to each inequality row and an artificial to each row without
an identity column, and starts in two phases.

Pivoting: the entering column has the most negative reduced cost (Dantzig's
rule; in phase 1, ties go to the best phase-2 reduced cost), and a
Harris-style ratio test picks its row (largest pivot among near-tied rows,
relative pivot floor). Long runs of degenerate pivots
trigger a deterministic right-hand-side perturbation in the current basis
frame and, as a last resort, Bland's rule. Dropping the perturbation is
followed by a dual simplex repair, the same dual simplex that warm starts
use. Identical inputs take identical pivot sequences.

No tableau is kept. Only the data ``[A_all | b]``, the basis and a
factorization of the basis are stored, and after every basis change each
quantity a pivot rule reads is computed afresh from them, so nothing drifts
and nothing needs cleaning. The factorization is slack-aware. Every surplus
and artificial column is a +-1 unit vector on one row, and in CE masters
most basic columns are of that kind, so B is a permuted block triangle:
only the square kernel K of the other basic columns against the rows no
basic unit column covers is inverted, and each unit position follows by
substitution. With k kernel columns, m rows and N columns:

- basic values: one product with K^-1, then the unit rows, O(mk);
- reduced costs: the duals from one product with K^-1 and the basic unit
  costs, then y A_all over the free rows (and, in phase 1, the rows of
  basic artificials), O(kN);
- the entering column of B^-1 A_all, for the ratio test, O(mk);
- rows of B^-1 A_all: the infeasible rows in one block for the dual
  simplex's normalized leaving row and its Harris test, O(kN) each.

Appending rows keeps the kernel, and a bitwise equal kernel keeps its
inverse. Two basic unit columns on one row, or a singular kernel, mean a
singular basis: a SolverStallError, which ends a cold solve and makes a
warm start fall back to the cold one.

Warm start: an optimal solution keeps its final basis resident
(``LpSolution.resident``), and ``solve_lp(problem, start=resident)``
continues from it when ``problem`` only appends inequality rows to the
solved one or changes its objective. The appended rows and their surplus
columns go after the old rows and columns of ``A_all``; each new row
enters with its surplus column basic, so the basis stays dual feasible.
Dual simplex pivots then restore primal feasibility and primal phase 2
handles the objective. A start is used once, and only
when the problem passes an exact fit check (same variables and
equality rows, the old inequality rows an exact prefix of the new ones).
The attempt is abandoned for the cold two-phase solve when the start does
not fit, its basis matrix is singular, it spends more than
``WARM_PIVOT_SLACK`` pivots beyond the row count, or its point fails
certification. A start is only a hint: no answer depends on it being good.
Every solve ends in ``_optimal``: a dual pass to ``CLEAN_TOL``, then certification.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import SolverStallError

# a warm start is abandoned after (rows + this many) pivots
WARM_PIVOT_SLACK = 100
# every solve's last dual pass lifts basic values below -CLEAN_TOL; clipping
# several within FEAS_TOL to zero can break an equality row by over FEAS_TOL
CLEAN_TOL = 1e-11
# primal feasibility and reduced-cost optimality tolerances
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# pivot magnitude floors: absolute, and relative to the column's largest entry
PIV_ABS = 1e-11
PIV_REL = 1e-9
# consecutive degenerate pivots before perturbing (and, later, Bland's rule)
STALL_THRESHOLD = 64
# a solve stops after this many pivots per column and row of A_all
PIVOT_CAP_FACTOR = 50


@dataclass(frozen=True)
class LpProblem:
    """``max objective . x`` over ``x >= 0`` subject to rows: each
    inequality row means ``coeffs . x >= rhs``, each equality row
    ``coeffs . x = rhs``."""

    n: int
    objective: np.ndarray
    ineq_coeffs: np.ndarray   # (m_ge, n)
    ineq_rhs: np.ndarray      # (m_ge,)
    eq_coeffs: np.ndarray     # (m_eq, n)
    eq_rhs: np.ndarray        # (m_eq,)
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

    @property
    def row_count(self) -> int:
        return self.ineq_coeffs.shape[0] + self.eq_coeffs.shape[0]


def make_problem(objective, ineq_rows=(), eq_rows=(), *, name="lp") -> LpProblem:
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
    return LpProblem(n, c, a_ge, b_ge, a_eq, b_eq, name)


@dataclass(frozen=True)
class LpSolution:
    """``resident`` (present when optimal) is the final basis with its data,
    to pass as the next ``solve_lp``'s ``start``."""

    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]          # present iff optimal
    objective_value: Optional[float]
    iterations: int
    resident: Optional[Resident] = field(default=None, repr=False, compare=False)


def _pert_u(m: int) -> np.ndarray:
    """Per-row weights of the right-hand-side perturbation."""
    return (np.arange(1, m + 1) * 0.6180339887498949) % 1.0 + 0.5


class _Tableau:
    """The simplex tableau in revised form: the data ``A_all`` and
    ``b_active``, the basis, and the inverse of the basis's kernel, from
    which every row, column, basic value and reduced cost a pivot rule reads
    is computed.

    Rows are the problem's inequality rows, then its equality rows; columns
    the problem's variables, one surplus per inequality row in row order,
    then the artificials. Rows that ``extend`` appends, and their surplus
    columns, come after all of these."""

    def __init__(self, prob: LpProblem):
        n = prob.n
        rows = np.vstack([prob.ineq_coeffs, prob.eq_coeffs])
        b = np.concatenate([prob.ineq_rhs, prob.eq_rhs])
        self.m_ineq = m_ge = prob.ineq_coeffs.shape[0]
        m = rows.shape[0]
        sur_sign = np.zeros(m)
        sur_sign[:m_ge] = -1.0
        flip = b < 0
        flip[:m_ge] |= b[:m_ge] == 0
        rows[flip] *= -1.0
        b[flip] = -b[flip]
        sur_sign[flip] *= -1.0

        # m_ge counts the fresh tableau's rows with a surplus column
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
        N = n + m_ge + k
        self.n_struct = n
        self.N = N
        self.basis = basis

        A_all = np.zeros((m, N))
        A_all[:, :n] = rows
        A_all[np.arange(m_ge), n + np.arange(m_ge)] = sur_sign[:m_ge]
        A_all[art_rows, n + m_ge + np.arange(k)] = 1.0
        self.A_all = A_all
        # the one row of each surplus or artificial (unit) column; -1 for
        # structural columns
        self.unit_row = np.concatenate([np.full(n, -1), np.arange(m_ge), art_rows])
        # b_active is b_true itself unless perturbed; neither is changed in place
        self.b_true = self.b_active = b
        # cost rows, minimized: the phase-2 objective and the phase-1 sum of
        # artificials
        self.d2 = np.zeros(N)
        self.d2[:n] = -prob.objective
        self.d1 = np.zeros(N)
        self.d1[n + m_ge:] = 1.0
        self.allowed = np.ones(N, dtype=bool)
        self.iters = 0
        self.max_iter = PIVOT_CAP_FACTOR * (N + m)
        self._K = self._K_inv = np.zeros((0, 0))

    def refactor(self) -> float:
        """Factorize the basis (see the module docstring) and compute its
        basic values; a singular basis raises SolverStallError. Returns the
        smallest basic value."""
        basis = self.basis
        unit_row = self.unit_row[basis]
        is_unit = unit_row >= 0
        self._unit = unit = is_unit.nonzero()[0]
        self._kernel = kernel = (~is_unit).nonzero()[0]
        self._srows = srows = unit_row[unit]
        free = np.ones(self.m, dtype=bool)
        free[srows] = False
        self._free = free.nonzero()[0]
        if self._free.size != kernel.size:
            raise SolverStallError("singular basis: two basic unit columns on one row")
        kernel_cols = basis[kernel]
        self._sign = self.A_all[srows, basis[unit]]
        self._A_F = self.A_all[self._free]
        A_K = self.A_all[:, kernel_cols]
        self._A_SK = A_K[srows]
        K = A_K[self._free]
        # appending rows keeps the kernel, so its inverse is kept too
        if not np.array_equal(K, self._K):
            try:
                self._K_inv = np.linalg.inv(K)
            except np.linalg.LinAlgError:
                raise SolverStallError("singular basis: its kernel is singular") from None
            self._K = K
        self._rc = [None, None]
        return self._values()

    def _ftran(self, v_free: np.ndarray, v_unit: np.ndarray) -> np.ndarray:
        """B^-1 v by basis position, from v's free rows and its unit rows
        (in the order of ``_srows``): the kernel part, then each unit
        position by substitution, times the unit's sign."""
        z_kernel = self._K_inv @ v_free
        sign = self._sign if v_free.ndim == 1 else self._sign[:, None]
        z = np.empty((self.m,) + v_free.shape[1:])
        z[self._kernel] = z_kernel
        z[self._unit] = sign * (v_unit - self._A_SK @ z_kernel)
        return z

    def _values(self) -> float:
        xb = self._ftran(self.b_active[self._free], self.b_active[self._srows])
        xb[np.abs(xb) < 1e-11] = 0.0
        self.xb = xb
        return float(xb.min()) if self.m else 0.0

    def reduced_costs(self, jo: int) -> np.ndarray:
        """Reduced costs of cost row ``jo`` (0 phase 2, 1 phase 1): the duals
        y, a unit's from its own cost and the free rows' from the kernel,
        then d - y A_all, exactly 0 on the basic columns."""
        if self._rc[jo] is None:
            d = (self.d2, self.d1)[jo]
            d_basic = d[self.basis]
            y_unit = d_basic[self._unit] * self._sign
            y_free = (d_basic[self._kernel] - y_unit @ self._A_SK) @ self._K_inv
            rc = d - y_free @ self._A_F
            priced = y_unit.nonzero()[0]
            if priced.size:
                rc -= y_unit[priced] @ self.A_all[self._srows[priced]]
            rc[self.basis] = 0.0
            self._rc[jo] = rc
        return self._rc[jo]

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """B^-1 A_all[:, cols]: rows by basis position."""
        return self._ftran(self._A_F[:, cols], self.A_all[np.ix_(self._srows, cols)])

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """Rows ``positions`` of B^-1 A_all. Row p of B^-1 is a row of K^-1
        on the free rows for a kernel position; for a unit position it is
        -sign A_SK[p] K^-1 there and its sign on the unit's own row."""
        is_unit = self.unit_row[self.basis[positions]] >= 0
        at_kernel, at_unit = (~is_unit).nonzero()[0], is_unit.nonzero()[0]
        u = np.searchsorted(self._unit, positions[at_unit])
        signs = self._sign[u][:, None]
        rho = np.empty((positions.size, self._kernel.size))
        rho[at_kernel] = self._K_inv[np.searchsorted(self._kernel, positions[at_kernel])]
        rho[at_unit] = -(signs * self._A_SK[u]) @ self._K_inv
        out = rho @ self._A_F
        out[at_unit] += signs * self.A_all[self._srows[u]]
        return out

    def extend(self, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        """Continue from this basis for the problem with rows ``a . x >= b``
        after the inequality rows and costs ``c``. The rows and their
        surplus columns are appended to A_all. Each new row is flipped as
        __init__ flips rows and enters with its surplus column basic, so a
        negative rhs marks a violated row."""
        k, m, N = b.size, self.m, self.N
        if k:
            new_rows, new_cols = m + np.arange(k), N + np.arange(k)
            sign = np.where(b <= 0, 1.0, -1.0)  # the surplus column's sign
            A_all = np.zeros((m + k, N + k))
            A_all[:m, :N] = self.A_all
            A_all[m:, : self.n_struct] = a * -sign[:, None]
            A_all[new_rows, new_cols] = sign
            self.A_all = A_all
            self.m, self.m_ineq, self.N = m + k, self.m_ineq + k, N + k
            # the new surplus columns are basic at the new positions
            self.basis = np.concatenate((self.basis, new_cols))
            self.unit_row = np.concatenate((self.unit_row, new_rows))
            # a resident basis is unperturbed
            self.b_true = self.b_active = np.concatenate((self.b_true, b * -sign))
            self.d1 = np.concatenate((self.d1, np.zeros(k)))
            self.d2 = np.concatenate((self.d2, np.zeros(k)))
            self.allowed = np.concatenate((self.allowed, np.ones(k, dtype=bool)))
        self.d2[: self.n_struct] = -c
        # a kept kernel keeps its inverse, so this recomputes little more
        # than the basic values; a singular basis is found here
        self.refactor()

    def pivot_at(self, r: int, q: int):
        """Column ``q`` replaces basis position ``r``; everything is then
        computed afresh from the new basis."""
        self.basis[r] = q
        self.iters += 1
        if self.iters > self.max_iter:
            raise SolverStallError(
                f"simplex exceeded {self.max_iter} pivots without a verdict"
            )
        self.refactor()

    def entering(self, jo: int, bland: bool, phase: int) -> int:
        rc = self.reduced_costs(jo)
        cand = (self.allowed & (rc < -OPT_TOL)).nonzero()[0]
        if cand.size == 0:
            return -1
        if bland:
            return int(cand[0])
        score = rc[cand]
        best = score.min()
        # best itself is within: best * (1 - 1e-12) >= best, as best < 0
        near = (score <= best * (1 - 1e-12)).nonzero()[0]
        i = near[0]
        if phase == 1 and near.size > 1:
            # toward the eventual phase-2 objective among equally good columns
            i = near[np.argmin(self.reduced_costs(0)[cand[near]])]
        return int(cand[i])

    def ratio_row(self, q: int, bland: bool) -> tuple[int, float]:
        col = self.columns(np.array([q]))[:, 0]
        floor = max(PIV_ABS, PIV_REL * float(np.abs(col).max(initial=0.0)))
        pos = col > floor
        if not pos.any():
            return -1, 0.0
        rhs = np.maximum(self.xb, 0.0)
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
        eps = 1e-8 * (1.0 + float(np.abs(self.b_true).max(initial=0.0))) * _pert_u(self.m)
        self.b_active = self.b_active + self.A_all[:, self.basis] @ eps
        self._values()

    def drop_perturbation(self) -> float:
        if self.b_active is not self.b_true:
            self.b_active = self.b_true
            self._values()
        return float(self.xb.min()) if self.m else 0.0

    def pivot_loop(self, phase: int) -> str:
        jo = 0 if phase == 2 else 1
        degen = 0
        bland = False
        perturbs = 0
        while True:
            q = self.entering(jo, bland, phase)
            if q < 0:
                return "optimal"
            r, rmin = self.ratio_row(q, bland)
            if r < 0:
                return "unbounded"
            self.pivot_at(r, q)
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

    def dual_simplex(self, tol: float, jo: int = 0) -> bool:
        """Dual simplex from a basis that is dual feasible for cost row
        ``jo`` (0 phase 2, 1 phase 1) until every basic value is at least
        ``-tol``. The leaving row has the largest infeasibility relative to
        its norm (steepest edge in the dual), over one block of the
        infeasible rows; the entering column passes a Harris ratio test (the
        largest pivot among columns whose step is within ``OPT_TOL`` of the
        shortest). True once primal feasible; False when a row blocks every
        column. Only ``pivot_at``'s cap ends a run that does neither."""
        while True:
            xb = self.xb
            bad = (xb < -tol).nonzero()[0]
            if bad.size == 0:
                return True
            rows = self.rows(bad)
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            i = int(np.argmin(xb[bad] / norms))
            row = rows[i]
            floor = max(PIV_ABS, PIV_REL * float(np.abs(row).max()))
            cand = (self.allowed & (row < -floor)).nonzero()[0]
            if cand.size == 0:
                return False
            alpha = -row[cand]
            rc = np.maximum(self.reduced_costs(jo)[cand], 0.0)
            within = rc / alpha <= ((rc + OPT_TOL) / alpha).min()
            self.pivot_at(int(bad[i]), int(cand[within][np.argmax(alpha[within])]))

    def run_phase(self, phase: int) -> str:
        jo = 0 if phase == 2 else 1
        for _ in range(6):
            st = self.pivot_loop(phase)
            if st == "unbounded":
                return "unbounded"
            worst = self.drop_perturbation()
            if worst < -FEAS_TOL:
                self.dual_simplex(FEAS_TOL, jo)
                worst = float(self.xb.min()) if self.m else 0.0
            if worst >= -FEAS_TOL and self.entering(jo, False, phase) < 0:
                return "optimal"
        raise SolverStallError(f"phase {phase} failed to certify a verdict")


class Resident:
    """The final basis of an optimal solve, with its data (a ``_Tableau``),
    and the problem it solved, kept for one later ``solve_lp(..., start=)``
    to continue from (see the module docstring). ``take`` hands the tableau
    over, or drops it."""

    def __init__(self, problem: LpProblem, tab: _Tableau):
        self._problem, self._tab = problem, tab

    def take(self, problem: LpProblem) -> _Tableau | None:
        """The tableau when ``problem`` extends the solved one, else None.
        Either way this resident is empty afterwards: a start is used once."""
        old, tab = self._problem, self._tab
        self._problem = self._tab = None
        return tab if tab is not None and _extends(old, problem) else None


def _extends(old: LpProblem, new: LpProblem) -> bool:
    """True when ``new`` has ``old``'s variables and equality rows, and
    ``old``'s inequality rows as an exact prefix of its own."""
    m = old.ineq_coeffs.shape[0]
    return (new.n == old.n and new.ineq_coeffs.shape[0] >= m
            and np.array_equal(new.eq_coeffs, old.eq_coeffs)
            and np.array_equal(new.eq_rhs, old.eq_rhs)
            and np.array_equal(new.ineq_coeffs[:m], old.ineq_coeffs)
            and np.array_equal(new.ineq_rhs[:m], old.ineq_rhs))


def solve_lp(problem: LpProblem, start: Resident | None = None) -> LpSolution:
    """Solve an LpProblem; deterministic for identical inputs.

    ``start`` is the ``resident`` of an optimal solution of a problem that
    this one extends by trailing inequality rows, under any objective. It is
    tried first; when the attempt is abandoned (see the module docstring)
    the cold two-phase solve runs and the abandoned pivots are counted in
    ``iterations``.

    Raises SolverStallError when the iteration cap is exceeded, a basis turns
    singular or the final basis cannot be certified; that is distinct from
    the three statuses.
    """
    spent = 0
    if start is not None:
        sol, spent = _solve_warm(problem, start)
        if sol is not None:
            return sol
    sol = _solve_cold(problem)
    return replace(sol, iterations=sol.iterations + spent) if spent else sol


def _solve_cold(problem: LpProblem) -> LpSolution:
    tab = _Tableau(problem)
    tab.refactor()
    if tab.n_art:
        st = tab.run_phase(1)
        if tab.d1[tab.basis] @ tab.xb > 1e-7:  # the basic artificials' sum
            return LpSolution("infeasible", None, None, tab.iters)
        tab.allowed[tab.n_struct + tab.m_ge:] = False  # the artificials
        for r in range(tab.m):
            if not tab.allowed[tab.basis[r]]:
                row = tab.rows(np.array([r]))[0]
                nz = (tab.allowed & (np.abs(row) > 1e-9)).nonzero()[0]
                if nz.size:
                    tab.pivot_at(r, int(nz[0]))
    st = tab.run_phase(2)
    if st == "unbounded":
        return LpSolution("unbounded", None, None, tab.iters)
    return _optimal(problem, tab)


def _solve_warm(problem: LpProblem, start: Resident) -> tuple[LpSolution | None, int]:
    """One attempt from ``start``: (certified optimum or None, pivots spent)."""
    tab = start.take(problem)
    if tab is None:
        return None, 0
    tab.iters = 0
    try:
        tab.extend(problem.ineq_coeffs[tab.m_ineq:], problem.ineq_rhs[tab.m_ineq:],
                   problem.objective)
        tab.max_iter = tab.m + WARM_PIVOT_SLACK
        if tab.dual_simplex(FEAS_TOL) and tab.run_phase(2) == "optimal":
            return _optimal(problem, tab), tab.iters
    except SolverStallError:
        pass
    return None, tab.iters


def _optimal(problem: LpProblem, tab: _Tableau) -> LpSolution:
    """The finish of every solve, cold or warm, from an optimal basis."""
    tab.dual_simplex(CLEAN_TOL)  # best effort; certification judges
    y = np.zeros(tab.N)
    y[tab.basis] = np.maximum(tab.xb, 0.0)
    x = y[: tab.n_struct]
    _certify(problem, x, FEAS_TOL)
    return LpSolution("optimal", x, float(problem.objective @ x), tab.iters,
                      Resident(problem, tab))


def _certify(prob: LpProblem, x: np.ndarray, tol: float):
    """Row-scaled feasibility check of a claimed-optimal point."""

    def scale(coeffs):
        return np.maximum(1.0, np.abs(coeffs).max(axis=1, initial=0.0))

    # a row's scale is at least 1, so only a row off by more than tol can
    # fail, and only those rows are scaled
    if prob.ineq_coeffs.shape[0]:
        resid = prob.ineq_coeffs @ x - prob.ineq_rhs
        off = resid < -tol
        if off.any() and (resid[off] / scale(prob.ineq_coeffs[off]) < -tol).any():
            raise SolverStallError("optimal point failed inequality certification")
    if prob.eq_coeffs.shape[0]:
        resid = np.abs(prob.eq_coeffs @ x - prob.eq_rhs)
        off = resid > tol
        if off.any() and (resid[off] / scale(prob.eq_coeffs[off]) > tol).any():
            raise SolverStallError("optimal point failed equality certification")
    if (x < -tol).any():
        raise SolverStallError("optimal point failed nonnegativity certification")


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
    # every variable is x >= 0, the default, which takes no entry
    lines.append("BOUNDS")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
