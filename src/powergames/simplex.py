"""Revised primal simplex for small linear programs.

Problems have one shape: ``max c.x`` over ``x >= 0``, ``A_ge x >= b_ge`` and
``A_eq x = b_eq``, as every LP over probabilities is. The solver adds a
surplus column to each inequality row and an artificial to each row without
an identity column, and starts in two phases.

Pivoting: the entering column has the most negative reduced cost (Dantzig's
rule; in phase 1, ties go to the best phase-2 reduced cost), and a
Harris-style ratio test picks its row (largest pivot among near-tied rows,
relative pivot floor). Every run of ``STALL_THRESHOLD`` degenerate pivots
adds a deterministic right-hand-side perturbation in the current basis
frame; that is the one response to a stall. A phase drops the perturbation
when no column prices out, so phase 1's verdict reads the true right-hand
side; basic values the drop leaves negative are repaired by the last dual
pass of every solve (see ``_optimal`` below). Identical inputs take
identical pivot sequences.

No tableau is kept. Only the data ``[A_all | b]``, the basis and a
factorization of the basis are stored, and after every basis change each
quantity a pivot rule reads is computed from them. The factorization is
slack-aware. Every surplus and artificial column is a +-1 unit vector on one
row, and in CE masters most basic columns are of that kind, so B is a
permuted block triangle: only the square kernel K of the other basic
columns against the rows no basic unit column covers is inverted, and each
unit position follows by substitution. With k kernel columns, m rows and N
columns:

- basic values: one product with K^-1, then the unit rows, O(mk);
- reduced costs: the duals from one product with K^-1 and the basic unit
  costs, then y A_all over the free rows (and, in phase 1, the rows of
  basic artificials), O(kN);
- the entering column of B^-1 A_all, for the ratio test, O(mk);
- the dual simplex's leaving row: the norms of the infeasible rows of
  B^-1, O(k^2) each, then the one chosen row of B^-1 A_all, O(kN).

K^-1 is updated across pivots, in O(k^2) by the kind of pivot: a kernel
column replaced (a product-form rank-one update, Forrest and Tomlin 1972);
a structural column taking a unit's place (K bordered by a row and a
column); a unit taking a structural column's place (K loses a row and a
column, by the Schur complement of one entry of K^-1); and a unit on one
row replacing a unit on another (a rank-one replacement of a row of K).
The basis is factorized afresh instead when the kernel has fewer than
``UPDATE_MIN_KERNEL`` columns, after ``UPDATE_LIMIT`` updates, or when the
update's pivot is below ``UPDATE_PIV_REL`` of its column. An updated K^-1
carries rounding error, so before any verdict (optimal, unbounded, or a dual
row that blocks every column) a residual guard checks K K^-1 - I and
K (K^-1 b_F) - b_F against ``RESIDUAL_TOL``; when either fails, the basis is
factorized afresh and the rule looks again. Appending rows to the basis the
factors belong to keeps them, with one unit row more for each new row. Two
basic unit columns on one row, or a singular kernel, mean a singular basis:
a SolverStallError, which ends a cold solve and makes a warm start fall
back to the cold one.

Warm start: an optimal solution keeps its final basis resident
(``LpSolution.resident``), and ``solve_lp(problem, start=resident)``
continues from it when ``problem`` only appends inequality rows to the
solved one or changes its objective. The appended rows and their surplus
columns go after the old rows and columns of ``A_all``; each new row
enters with its surplus column basic, so the basis stays dual feasible.
Dual simplex pivots then restore primal feasibility and primal phase 2
handles the objective. ``Resident.at`` makes a start without a solve: an
equality-only problem at a given basis, its artificials barred, with the
factors a cold solve ending on that basis leaves. A row-generation master
opens from it at the point whose cuts it is about to add, one column per
probability simplex, instead of cold-solving its first LP to that point.
Extending a tableau writes the new rows and columns, and their entries in
the basis, costs and slot maps, into the spare room of buffers grown by
half again when full. A start is used once, and only
when the problem passes an exact fit check (same variables and
equality rows, the old inequality rows an exact prefix of the new ones;
the rows of problems that ``LpProblem._with_rows`` made from the same
buffers count as a prefix, so a caller that appends rows to one buffer is
not compared row by row).
The attempt is abandoned for the cold two-phase solve, with a DEBUG log
line, in the four cases ``solve_lp`` lists. A start is only a hint: no
answer depends on it being good.
``Resident.optimal_under`` asks a start, without using it, whether its basis
is still optimal under a new objective, by the test the pivot loop applies;
a caller that gets yes keeps the solved point and builds no problem.
Every solve ends in ``_optimal``: a best-effort dual pass to ``CLEAN_TOL``,
which is also the repair after a dropped perturbation (undone when it
stalls, back to the optimal basis it started from), then certification.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import SolverStallError

# every solve's last dual pass lifts basic values below -CLEAN_TOL; clipping
# several within FEAS_TOL to zero can break an equality row by over FEAS_TOL
CLEAN_TOL = 1e-11
# primal feasibility and reduced-cost optimality tolerances
FEAS_TOL = 1e-9
OPT_TOL = 1e-9
# pivot magnitude floors: absolute, and relative to the column's largest entry
PIV_ABS = 1e-11
PIV_REL = 1e-9
# consecutive degenerate pivots before each perturbation
STALL_THRESHOLD = 64
# a solve stops after this many pivots per current column and row of A_all
PIVOT_CAP_FACTOR = 50
# the kernel inverse is updated across at most this many pivots, then
# computed afresh. The update pays on the large masters (one BLAS thread, 2
# cores): without it, canonical commeq at 5 diagonal type points takes 12.5 s
# instead of 3.5 s; with only the product-form kind, the 64-direction region
# at 100 levels takes 11.5 s instead of 5.5 s
UPDATE_LIMIT = 32
# kernels with fewer columns are inverted afresh on every pivot: there an
# inversion costs no more than an update
UPDATE_MIN_KERNEL = 16
# an update whose pivot is below this share of its column's largest entry
# (in the kernel) refactorizes instead
UPDATE_PIV_REL = 1e-6
# the residual guard on updated factors, K K^-1 - I and K (K^-1 b_F) - b_F
RESIDUAL_TOL = 1e-9

log = logging.getLogger(__name__)


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

    def _with_rows(self, rows: np.ndarray, rhs: np.ndarray, m: int) -> LpProblem:
        """This problem with the inequality rows ``rows[:m] . x >= rhs[:m]``
        in place of its own. The caller has checked their shapes and
        finiteness, so ``__post_init__`` does not pass over them again, and
        writes each row of the buffers ``rows`` and ``rhs`` once: of two
        problems made from the same buffers, the one with fewer rows holds a
        prefix of the other's, which ``_extends`` takes without comparing."""
        prob = object.__new__(LpProblem)
        prob.__dict__.update(self.__dict__, ineq_coeffs=rows[:m], ineq_rhs=rhs[:m],
                             _buffers=(rows, rhs))
        return prob


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


def _small(pivot: float, column: np.ndarray) -> bool:
    """Whether an update's pivot is too small a share of its column."""
    return abs(pivot) < UPDATE_PIV_REL * float(np.abs(column).max(initial=0.0))


def _pert_u(m: int) -> np.ndarray:
    """Per-row weights of the right-hand-side perturbation."""
    return (np.arange(1, m + 1) * 0.6180339887498949) % 1.0 + 0.5


class _Tableau:
    """The simplex tableau in revised form: the data ``A_all`` and
    ``b_active``, the basis, and the factors of the basis (see the module
    docstring), from which every row, column, basic value and reduced cost a
    pivot rule reads is computed.

    Rows are the problem's inequality rows, then its equality rows; columns
    the problem's variables, one surplus per inequality row in row order,
    then the artificials. Rows that ``extend`` appends, and their surplus
    columns, come after all of these.

    The factors are held in slots. Kernel slot j is basis position
    ``_kpos[j]``, free slot i is row ``_free[i]``, and row j of ``_Kinv`` is
    kernel slot j over the free slots. Unit slot u is basis position
    ``_upos[u]``, a unit column with sign ``_sign[u]`` on row ``_srows[u]``.
    ``_slot[p]`` is position p's kernel or unit slot, ``_is_unit[p]`` says
    which, and ``_rslot[row]`` is a free row's slot or -1. ``_AKT[j]`` is
    kernel slot j's column of the data and ``_AF[i]`` free slot i's row, both
    as long as the data's buffer ``_A``, and the slot maps have an entry for
    each of its rows."""

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
        # A_all is the used corner of the buffer _A, which extend grows
        self._A = self.A_all = A_all
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
        # per array that extend grows, the buffer it is a prefix of
        self._spare = {}
        self.iters = 0
        self._k = 0
        self._Kinv = None
        # the slot maps, made by the first refactor (see _maps)
        self._kpos = self._free = self._upos = self._srows = self._sign = None
        self._slot = self._is_unit = self._rslot = None
        # the basis the factors belong to, and the updates since they were
        # last computed afresh
        self._fb = None
        self._updates = 0

    def refactor(self) -> float:
        """Factorize the basis afresh (see the module docstring) and compute
        its basic values; a singular basis raises SolverStallError. Returns
        the smallest basic value."""
        basis, m = self.basis, self.m
        self._maps()
        on = self.unit_row[basis]
        is_unit = self._is_unit[:m]
        np.greater_equal(on, 0, out=is_unit)
        unit = is_unit.nonzero()[0]
        kernel = (~is_unit).nonzero()[0]
        srows = on[unit]
        rslot = self._rslot
        rslot[:m] = 0
        rslot[srows] = -1
        free = (rslot[:m] == 0).nonzero()[0]
        if free.size != kernel.size:
            raise SolverStallError("singular basis: two basic unit columns on one row")
        k, nu = kernel.size, unit.size
        rslot[free] = self._slot[kernel] = np.arange(k)
        self._slot[unit] = np.arange(nu)
        self._k = 0
        self._reserve(k)
        self._AKT[:k] = self._A[:, basis[kernel]].T
        self._AF[:k] = self._A[free]
        if k:
            try:
                self._Kinv[:k, :k] = np.linalg.inv(self._AKT[:k, free].T)
            except np.linalg.LinAlgError:
                raise SolverStallError("singular basis: its kernel is singular") from None
        self._k = k
        self._kpos[:k], self._free[:k] = kernel, free
        self._upos[:nu], self._srows[:nu] = unit, srows
        self._sign[:nu] = self.A_all[srows, basis[unit]]
        self._fb[:m] = basis
        self._updates = 0
        self._rc = [None, None]
        return self._values()

    def _maps(self):
        """The slot maps and ``_fb`` as long as the data's buffer has rows,
        their entries kept: appended rows are written into them."""
        cap = self._A.shape[0]
        if self._fb is not None and self._fb.size >= cap:
            return
        for name, dtype in (("_kpos", int), ("_free", int), ("_upos", int), ("_srows", int),
                            ("_sign", float), ("_slot", int), ("_is_unit", bool),
                            ("_rslot", int), ("_fb", int)):
            grown, old = np.empty(cap, dtype), getattr(self, name)
            if old is not None:
                grown[:old.size] = old
            setattr(self, name, grown)

    def _reserve(self, k: int):
        """Factor buffers for kernels of up to ``k`` columns (twice that,
        within the row count, when they grow), as long as the data's buffer;
        the current kernel's slots are kept."""
        cap_m, cap_N = self._A.shape
        old = self._Kinv
        if (old is not None and old.shape[0] >= k and self._AKT.shape[1] == cap_m
                and self._AF.shape[1] == cap_N):
            return
        cap = max(k, min(self.m, 2 * k))
        Kinv, AKT, AF = np.empty((cap, cap)), np.zeros((cap, cap_m)), np.zeros((cap, cap_N))
        j = self._k
        if j:
            Kinv[:j, :j] = old[:j, :j]
            AKT[:j, : self._AKT.shape[1]] = self._AKT[:j]
            AF[:j, : self._AF.shape[1]] = self._AF[:j]
        self._Kinv, self._AKT, self._AF = Kinv, AKT, AF

    def _ftran(self, v_free: np.ndarray, v_unit: np.ndarray) -> np.ndarray:
        """B^-1 v by basis position, from v's free rows (in free-slot order)
        and its unit rows (in unit-slot order): the kernel part, then each
        unit position by substitution, times the unit's sign."""
        k, m = self._k, self.m
        nu = m - k
        z_kernel = self._Kinv[:k, :k] @ v_free
        z = np.empty((m,) + v_free.shape[1:])
        z[self._kpos[:k]] = z_kernel
        srows, sign = self._srows[:nu], self._sign[:nu]
        if v_free.ndim == 1:
            z[self._upos[:nu]] = sign * (v_unit - (z_kernel @ self._AKT[:k, :m])[srows])
        else:
            z[self._upos[:nu]] = sign[:, None] * (v_unit - (self._AKT[:k, :m].T @ z_kernel)[srows])
        return z

    def _values(self) -> float:
        nu = self.m - self._k
        xb = self._ftran(self.b_active[self._free[: self._k]], self.b_active[self._srows[:nu]])
        xb[np.abs(xb) < 1e-11] = 0.0
        self.xb = xb
        return float(xb.min()) if self.m else 0.0

    def reduced_costs(self, jo: int) -> np.ndarray:
        """Reduced costs of cost row ``jo`` (0 phase 2, 1 phase 1), computed
        once per basis."""
        if self._rc[jo] is None:
            self._rc[jo] = self._price((self.d2, self.d1)[jo])
        return self._rc[jo]

    def _price(self, d: np.ndarray) -> np.ndarray:
        """Reduced costs of the cost row ``d``: the duals y, a unit's from
        its own cost and the free rows' from the kernel, then d - y A_all,
        exactly 0 on the basic columns."""
        k = self._k
        nu = self.m - k
        d_basic = d[self.basis]
        y_unit = d_basic[self._upos[:nu]] * self._sign[:nu]
        priced = y_unit.nonzero()[0]
        y_unit, on = y_unit[priced], self._srows[priced]
        d_kernel = d_basic[self._kpos[:k]]
        if priced.size:
            d_kernel = d_kernel - self._AKT[:k, on] @ y_unit
        rc = d - (d_kernel @ self._Kinv[:k, :k]) @ self._AF[:k, : self.N]
        if priced.size:
            rc -= y_unit @ self.A_all[on]
        rc[self.basis] = 0.0
        return rc

    def columns(self, cols: np.ndarray) -> np.ndarray:
        """B^-1 A_all[:, cols]: rows by basis position."""
        nu = self.m - self._k
        return self._ftran(self._AF[: self._k, cols],
                           self.A_all[np.ix_(self._srows[:nu], cols)])

    def _binv_rows(self, positions: np.ndarray):
        """Rows ``positions`` of B^-1 on the free rows (by free slot), which
        of them are unit positions, and each position's slot. Row p of B^-1
        is a row of K^-1 for a kernel position; for a unit position it is
        -sign A_SK[p] K^-1, plus its sign on the unit's own row."""
        k = self._k
        is_unit = self._is_unit[positions]
        slots = self._slot[positions]
        at_unit = slots[is_unit]
        rho = np.empty((positions.size, k))
        rho[~is_unit] = self._Kinv[slots[~is_unit], :k]
        rho[is_unit] = -(self._sign[at_unit, None] * self._AKT[:k, self._srows[at_unit]].T
                         ) @ self._Kinv[:k, :k]
        return rho, is_unit, slots

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """Rows ``positions`` of B^-1 A_all."""
        return self._rows_of(*self._binv_rows(positions))

    def _rows_of(self, rho: np.ndarray, is_unit: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Rows of B^-1 A_all from their rows of B^-1 as ``_binv_rows``
        gives them."""
        out = rho @ self._AF[: self._k, : self.N]
        at_unit = slots[is_unit]
        out[is_unit] += self._sign[at_unit, None] * self.A_all[self._srows[at_unit]]
        return out

    def extend(self, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        """Continue from this basis for the problem with rows ``a . x >= b``
        after the inequality rows and costs ``c``. The rows and their
        surplus columns are appended to A_all, in the spare rows and columns
        of its buffer when they fit, and so are their entries of the basis,
        the right-hand side, the cost rows and the other arrays by row or
        column. Each new row is flipped as __init__ flips rows and enters
        with its surplus column basic, so a negative rhs marks a violated
        row. When the basis is still the one the factors belong to, they
        gain the new unit rows; otherwise the basis is factorized afresh,
        and a singular one is found here."""
        k, m, N = b.size, self.m, self.N
        kept = self._fb is not None and np.array_equal(self._fb[:m], self.basis)
        if k:
            new_rows, new_cols = np.arange(m, m + k), np.arange(N, N + k)
            sign = np.where(b <= 0, 1.0, -1.0)  # the surplus column's sign
            cap_m, cap_N = self._A.shape
            if m + k > cap_m or N + k > cap_N:
                spare = (m + k) // 2
                cap_m, cap_N = m + k + spare, N + k + spare
                A = np.zeros((cap_m, cap_N))
                A[:m, :N] = self.A_all
                self._A = A
            self._A[m:m + k, : self.n_struct] = a * -sign[:, None]
            self._A[new_rows, new_cols] = sign
            self.A_all = self._A[:m + k, :N + k]
            self.m, self.m_ineq, self.N = m + k, self.m_ineq + k, N + k
            # the new surplus columns are basic at the new positions
            self.basis = self._grown("basis", new_cols, cap_m)
            # a resident basis is unperturbed
            self.b_true = self.b_active = self._grown("b_true", b * -sign, cap_m)
            self.unit_row = self._grown("unit_row", new_rows, cap_N)
            self.d1 = self._grown("d1", np.zeros(k), cap_N)
            self.d2 = self._grown("d2", np.zeros(k), cap_N)
            self.allowed = self._grown("allowed", np.ones(k, dtype=bool), cap_N)
            if kept:
                self._add_units(new_cols, sign)
        self.d2[: self.n_struct] = -c
        if kept:
            self._rc = [None, None]
            self._values()
        else:
            self.refactor()

    def _grown(self, name: str, values: np.ndarray, cap: int) -> np.ndarray:
        """The array attribute ``name`` followed by ``values``, written after
        it in its spare buffer when it is a prefix of that buffer and there
        is room, else in a new spare buffer of ``cap`` entries."""
        arr = getattr(self, name)
        n, k = arr.shape[0], values.shape[0]
        buf = self._spare.get(name)
        if buf is None or arr.base is not buf or buf.shape[0] < n + k:
            buf = self._spare[name] = np.empty(cap, arr.dtype)
            buf[:n] = arr
        buf[n:n + k] = values
        return buf[:n + k]

    def _add_units(self, cols: np.ndarray, sign: np.ndarray):
        """The factors after ``extend`` appended a row for each of ``cols``,
        the row's unit column, basic at the position of the row's number;
        the new unit slots follow the others, in the spare entries of the
        slot maps."""
        kk, add = self._k, cols.size
        m = self.m - add
        nu = m - kk
        self._reserve(kk)  # as long as a grown data buffer
        self._maps()
        self._AKT[:kk, m:m + add] = self._A[m:m + add, self.basis[self._kpos[:kk]]].T
        self._upos[nu:nu + add] = self._srows[nu:nu + add] = np.arange(m, m + add)
        self._sign[nu:nu + add] = sign
        self._slot[m:m + add] = np.arange(nu, nu + add)
        self._is_unit[m:m + add] = True
        self._rslot[m:m + add] = -1
        self._fb[m:m + add] = cols

    def pivot_at(self, r: int, q: int):
        """Column ``q`` replaces basis position ``r``. The factors are
        updated, or computed afresh when ``_update`` declines, and the basic
        values follow from them."""
        self.iters += 1
        cap = PIVOT_CAP_FACTOR * (self.N + self.m)
        if self.iters > cap:
            raise SolverStallError(f"simplex exceeded {cap} pivots without a verdict")
        updated = self._update(r, q)
        self.basis[r] = q
        if not updated:
            self.refactor()
            return
        self._fb[r] = q
        self._updates += 1
        self._rc = [None, None]
        self._values()

    def _update(self, r: int, q: int) -> bool:
        """Update the factors in O(k^2) for column ``q`` replacing position
        ``r``, by the kind of pivot (see the module docstring). False, with
        nothing changed, when the kernel is below UPDATE_MIN_KERNEL, after
        UPDATE_LIMIT updates, when the pivot is below UPDATE_PIV_REL of its
        column, or when the new basis would put two unit columns on a row."""
        k = self._k
        if k < UPDATE_MIN_KERNEL or self._updates >= UPDATE_LIMIT:
            return False
        A, Kinv = self._A, self._Kinv[:k, :k]
        j, s_q = self._slot[r], self.unit_row[q]
        if not self._is_unit[r] and s_q < 0:
            # a kernel column replaced: product-form rank-one update
            w = Kinv @ A[self._free[:k], q]
            if _small(w[j], w):
                return False
            pivot_row = Kinv[j] / w[j]
            Kinv -= np.outer(w, pivot_row)
            Kinv[j] = pivot_row
            self._AKT[j] = A[:, q]
        elif not self._is_unit[r]:
            # a unit enters on free row s_q: drop kernel slot j and free slot
            # i from K^-1 by the Schur complement of K^-1[j, i]
            i = self._rslot[s_q]
            if i < 0:
                return False
            col = Kinv[:, i].copy()
            if _small(col[j], col):
                return False
            Kinv -= np.outer(col, Kinv[j] / col[j])
            self._drop_kernel_slot(j, i)
            self._add_unit(r, s_q, A[s_q, q])
        else:
            s = self._srows[j]
            c = self._AKT[:k, s]  # the leaving unit's row on the kernel columns
            if s_q < 0:
                # a structural column enters in the unit's place: border K
                # with row s and column q
                v = Kinv @ A[self._free[:k], q]
                sigma = A[s, q] - c @ v
                if _small(sigma, v):
                    return False
                w = c @ Kinv
                self._reserve(k + 1)
                grown = self._Kinv[:k + 1, :k + 1]
                grown[:k, :k] += np.outer(v / sigma, w)
                grown[:k, k] = -v / sigma
                grown[k, :k] = -w / sigma
                grown[k, k] = 1.0 / sigma
                self._drop_unit_slot(j)
                self._kpos[k], self._slot[r], self._is_unit[r] = r, k, False
                self._free[k], self._rslot[s] = s, k
                self._AKT[k], self._AF[k] = A[:, q], A[s]
                self._k = k + 1
            elif s_q != s:
                # a unit on free row s_q replaces the unit on row s: K's row
                # s_q becomes row s, a rank-one row replacement
                i = self._rslot[s_q]
                if i < 0:
                    return False
                w = c @ Kinv
                col = Kinv[:, i].copy()
                if _small(w[i], col):
                    return False
                g = w / w[i]
                g[i] = 1.0 - 1.0 / w[i]
                Kinv -= np.outer(col, g)
                self._free[i], self._rslot[s], self._rslot[s_q] = s, i, -1
                self._AF[i] = A[s]
                self._srows[j], self._sign[j] = s_q, A[s_q, q]
            else:
                self._sign[j] = A[s, q]
        return True

    def _drop_kernel_slot(self, j: int, i: int):
        """Remove kernel slot j and free slot i (zeroed in K^-1), moving the
        last of each into their places."""
        last = self._k - 1
        Kinv = self._Kinv
        if j != last:
            Kinv[j, :last + 1] = Kinv[last, :last + 1]
            self._kpos[j] = p = self._kpos[last]
            self._slot[p] = j
            self._AKT[j] = self._AKT[last]
        if i != last:
            Kinv[:last + 1, i] = Kinv[:last + 1, last]
            self._free[i] = row = self._free[last]
            self._rslot[row] = i
            self._AF[i] = self._AF[last]
        self._k = last

    def _add_unit(self, r: int, row: int, sign: float):
        u = self.m - self._k - 1
        self._upos[u], self._srows[u], self._sign[u] = r, row, sign
        self._slot[r], self._is_unit[r], self._rslot[row] = u, True, -1

    def _drop_unit_slot(self, u: int):
        last = self.m - self._k - 1
        if u != last:
            self._upos[u] = p = self._upos[last]
            self._srows[u], self._sign[u] = self._srows[last], self._sign[last]
            self._slot[p] = u

    def _accurate(self) -> bool:
        """The residual guard: K K^-1 - I and K (K^-1 b_F) - b_F within
        RESIDUAL_TOL, the second relative to the largest |b_F|."""
        k = self._k
        if not k:
            return True
        free = self._free[:k]
        K, Kinv, b_F = self._AKT[:k, free].T, self._Kinv[:k, :k], self.b_active[free]
        scale = max(1.0, float(np.abs(b_F).max()))
        return (np.abs(K @ Kinv - np.eye(k)).max() <= RESIDUAL_TOL
                and np.abs(K @ (Kinv @ b_F) - b_F).max() <= RESIDUAL_TOL * scale)

    def _trusted(self) -> bool:
        """Whether a verdict may be drawn from the factors: true when they
        are fresh or pass the residual guard; otherwise they are computed
        afresh, and the caller looks again."""
        if not self._updates or self._accurate():
            return True
        self.refactor()
        return False

    def entering(self, phase: int) -> int:
        rc = self.reduced_costs(0 if phase == 2 else 1)
        cand = (self.allowed & (rc < -OPT_TOL)).nonzero()[0]
        if cand.size == 0:
            return -1
        score = rc[cand]
        best = score.min()
        # best itself is within: best * (1 - 1e-12) >= best, as best < 0
        near = (score <= best * (1 - 1e-12)).nonzero()[0]
        i = near[0]
        if phase == 1 and near.size > 1:
            # toward the eventual phase-2 objective among equally good columns
            i = near[np.argmin(self.reduced_costs(0)[cand[near]])]
        return int(cand[i])

    def ratio_row(self, q: int) -> tuple[int, float]:
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
        r = ties[np.argmax(col[ties])]
        return int(r), rmin

    def perturb(self):
        """Shift the basic values by a deterministic right-hand-side
        perturbation in the current basis frame, which breaks a run of
        degenerate pivots: a guard against cycling (``TestDegeneracy``). Of
        the stress cases only the 100-level region reaches it, which
        finishes without it too, so no measured case needs it."""
        eps = 1e-8 * (1.0 + float(np.abs(self.b_true).max(initial=0.0))) * _pert_u(self.m)
        self.b_active = self.b_active + self.A_all[:, self.basis] @ eps
        self._values()

    def pivot_loop(self, phase: int) -> str:
        """Primal simplex on the phase's cost row until no column prices out
        ("optimal", with any perturbation dropped, so the basic values are
        the true ones and may be slightly negative) or a column meets no
        blocking row ("unbounded")."""
        degen = 0
        while True:
            q = self.entering(phase)
            if q < 0:
                if self._trusted():
                    if self.b_active is not self.b_true:
                        self.b_active = self.b_true
                        self._values()
                    return "optimal"
                continue
            r, rmin = self.ratio_row(q)
            if r < 0:
                if self._trusted():
                    return "unbounded"
                continue
            self.pivot_at(r, q)
            if rmin <= 1e-12:
                degen += 1
            else:
                degen = 0
            if degen >= STALL_THRESHOLD:
                degen = 0
                self.perturb()

    def dual_simplex(self, tol: float) -> bool:
        """Dual simplex from a basis that is dual feasible for the phase-2
        costs until every basic value is at least ``-tol``. The leaving row
        has the largest infeasibility relative to the norm of its row of
        B^-1 (dual steepest edge, Forrest and Goldfarb 1992), and only that
        row of B^-1 A_all is formed; the entering column passes a Harris
        ratio test (the largest pivot among columns whose step is within
        ``OPT_TOL`` of the shortest). True once primal feasible; False when
        the row blocks every column. Only ``pivot_at``'s cap ends a run that
        does neither."""
        while True:
            xb = self.xb
            bad = (xb < -tol).nonzero()[0]
            if bad.size == 0:
                if self._trusted():
                    return True
                continue
            rho, is_unit, slots = self._binv_rows(bad)
            norms = np.sqrt(np.einsum("ij,ij->i", rho, rho) + is_unit)
            i = int(np.argmin(xb[bad] / norms))
            row = self._rows_of(rho[i:i + 1], is_unit[i:i + 1], slots[i:i + 1])[0]
            floor = max(PIV_ABS, PIV_REL * float(np.abs(row).max()))
            cand = (self.allowed & (row < -floor)).nonzero()[0]
            if cand.size == 0:
                if self._trusted():
                    return False
                continue
            alpha = -row[cand]
            rc = np.maximum(self.reduced_costs(0)[cand], 0.0)
            within = rc / alpha <= ((rc + OPT_TOL) / alpha).min()
            self.pivot_at(int(bad[i]), int(cand[within][np.argmax(alpha[within])]))


class Resident:
    """The final basis of an optimal solve, with its data (a ``_Tableau``),
    and the problem it solved, kept for one later ``solve_lp(..., start=)``
    to continue from (see the module docstring). ``take`` hands the tableau
    over, or drops it; ``optimal_under`` asks the basis about a new
    objective and leaves it resident.

    Under a new objective the basis stays primal feasible, so it is still
    optimal when no column prices out (Gass and Saaty 1955): then the warm
    solve would make no pivot and end at the same point, and a caller that
    asks first can keep that point and skip the solve."""

    def __init__(self, problem: LpProblem, tab: _Tableau):
        self._problem, self._tab = problem, tab

    @classmethod
    def at(cls, problem: LpProblem, columns: np.ndarray) -> Resident:
        """The resident of ``problem``, which has equality rows only, at the
        basis with ``columns[r]`` basic on row r and the artificials barred, as
        phase 1 leaves them. When each row is one probability simplex and
        ``columns[r]`` its first best column, this is the tableau a cold solve
        leaves, in the same column order and with the same factors, without
        its pricing: phase 1 enters those columns best objective first (the
        lower column on a tie), so the basis of its first UPDATE_MIN_KERNEL
        is factorized and the others enter by ``pivot_at``, as there. A
        singular basis raises SolverStallError."""
        if problem.ineq_coeffs.shape[0] or len(columns) != problem.row_count:
            raise ValueError("need one basic column per row of an equality-only problem")
        tab = _Tableau(problem)
        tab.allowed[tab.n_struct + tab.m_ge:] = False  # the artificials
        order = np.lexsort((columns, -problem.objective[columns]))
        first = order[:UPDATE_MIN_KERNEL]
        tab.basis[first] = columns[first]
        tab.refactor()
        for r in order[UPDATE_MIN_KERNEL:].tolist():
            tab.pivot_at(r, int(columns[r]))
        return cls(problem, tab)

    def optimal_under(self, objective: np.ndarray) -> bool:
        """Whether the basis is optimal for the solved problem with
        ``objective`` in place of its own, as ``pivot_loop`` finds it: every
        basic value at least -CLEAN_TOL (so the last dual pass makes no
        pivot either) and no allowed column with a reduced cost below
        -OPT_TOL, priced from factors that are fresh or pass the residual
        guard. False when any of that fails or the start was used. Changes
        nothing: the resident can still be taken."""
        tab = self._tab
        if (tab is None or (tab.m and tab.xb.min() < -CLEAN_TOL)
                or (tab._updates and not tab._accurate())):
            return False
        d = np.zeros(tab.N)
        d[: tab.n_struct] = -objective
        return not (tab.allowed & (tab._price(d) < -OPT_TOL)).any()

    def take(self, problem: LpProblem) -> _Tableau | None:
        """The tableau when ``problem`` extends the solved one, else None.
        Either way this resident is empty afterwards: a start is used once."""
        old, tab = self._problem, self._tab
        self._problem = self._tab = None
        return tab if tab is not None and _extends(old, problem) else None


def _extends(old: LpProblem, new: LpProblem) -> bool:
    """True when ``new`` has ``old``'s variables and equality rows, and
    ``old``'s inequality rows as an exact prefix of its own: at once when
    ``_with_rows`` made both from the same buffers, else entry by entry."""
    m = old.ineq_coeffs.shape[0]
    if not (new.n == old.n and new.ineq_coeffs.shape[0] >= m
            and _same(new.eq_coeffs, old.eq_coeffs) and _same(new.eq_rhs, old.eq_rhs)):
        return False
    buffers, old_buffers = new.__dict__.get("_buffers"), old.__dict__.get("_buffers")
    if (buffers is not None and old_buffers is not None
            and buffers[0] is old_buffers[0] and buffers[1] is old_buffers[1]):
        return True
    return _same(new.ineq_coeffs[:m], old.ineq_coeffs) and _same(new.ineq_rhs[:m], old.ineq_rhs)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` equals ``b``: at once when it is ``b``, else entry by
    entry."""
    return a is b or np.array_equal(a, b)


def solve_lp(problem: LpProblem, start: Resident | None = None) -> LpSolution:
    """Solve an LpProblem; deterministic for identical inputs.

    ``start`` is the ``resident`` of an optimal solution of a problem that
    this one extends by trailing inequality rows, under any objective. It is
    tried first and abandoned only when it does not fit, its basis is
    singular, it reaches the pivot cap or its point fails certification;
    then the cold two-phase solve runs (``TestStartThatDoesNotFit`` and
    ``test_stalled_attempt_falls_back`` in tests/test_warm_start.py) and
    counts the abandoned pivots in ``iterations``. Rows of ``problem`` made
    from the buffers of the solved problem's (``LpProblem._with_rows``) are
    taken as unchanged, so a caller must not change a solved problem's
    arrays in place and then pass its resident.

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
        tab.pivot_loop(1)
        if tab.d1[tab.basis] @ tab.xb > 1e-7:  # the basic artificials' sum
            return LpSolution("infeasible", None, None, tab.iters)
        tab.allowed[tab.n_struct + tab.m_ge:] = False  # the artificials
        for r in range(tab.m):
            if not tab.allowed[tab.basis[r]]:
                row = tab.rows(np.array([r]))[0]
                nz = (tab.allowed & (np.abs(row) > 1e-9)).nonzero()[0]
                if nz.size:
                    tab.pivot_at(r, int(nz[0]))
    if tab.pivot_loop(2) == "unbounded":
        return LpSolution("unbounded", None, None, tab.iters)
    return _optimal(problem, tab)


def _solve_warm(problem: LpProblem, start: Resident) -> tuple[LpSolution | None, int]:
    """One attempt from ``start``: (certified optimum or None, pivots spent)."""
    tab = start.take(problem)
    if tab is None:
        log.debug("warm start abandoned: it does not fit the problem")
        return None, 0
    tab.iters = 0
    try:
        tab.extend(problem.ineq_coeffs[tab.m_ineq:], problem.ineq_rhs[tab.m_ineq:],
                   problem.objective)
        if tab.dual_simplex(FEAS_TOL) and tab.pivot_loop(2) == "optimal":
            return _optimal(problem, tab), tab.iters
        reason = "no optimum"
    except SolverStallError as exc:
        reason = exc
    log.debug("warm start abandoned after %d pivots: %s", tab.iters, reason)
    return None, tab.iters


def _optimal(problem: LpProblem, tab: _Tableau) -> LpSolution:
    """The finish of every solve, cold or warm, from an optimal basis."""
    basis = tab.basis.copy()
    try:
        tab.dual_simplex(CLEAN_TOL)  # best effort; certification judges
    except SolverStallError:
        # a cleanup pivot on noise can lead to a singular basis: certify the
        # optimal basis it started from instead
        tab.basis = basis
        tab.refactor()
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
