"""Tableau internals: the basic values, reduced costs, rows and columns
and rows of B^-1 computed from the slack-aware kernel factorization, fresh,
after each kind of kernel update and after rows are appended to a resident
tableau; when the factors are computed afresh; the last dual pass's repair
after a dropped perturbation and the vectorized tableau set-up, each against a
direct dense or loop reference written here."""
from dataclasses import replace

import numpy as np
import pytest

from powergames import simplex
from powergames.communication import GameFamily, build_commeq_lp, build_type_space
from powergames.errors import SolverStallError
from powergames.model import (ChannelMatrix, GameInstance, PayoffTensor, build_payoff_tensor,
                              build_power_grid)
from powergames.simplex import make_problem, solve_lp
from oracles import build_ce_constraints, first_rows, random_tensor, unit_max_rows


def mixed_problem(rng, n=9, m_ge=5, m_eq=2, zero_col=None):
    """Inequality rows of both signs of rhs and one of zero rhs, and equality
    rows; column ``zero_col``, when given, is zero in every row."""
    a = rng.normal(size=(m_ge, n))
    b = rng.normal(size=m_ge)
    b[:1] = 0.0
    eq = rng.normal(size=(m_eq, n))
    eb = rng.normal(size=m_eq)
    if zero_col is not None:
        a[:, zero_col] = 0.0
        eq[:, zero_col] = 0.0
    return make_problem(rng.normal(size=n), [(a[r], b[r]) for r in range(m_ge)],
                        [(eq[r], eb[r]) for r in range(m_eq)])


def tableau(prob):
    return simplex._Tableau(prob)


def unit_columns(tab):
    return np.flatnonzero(tab.unit_row >= 0)


def refactored(tab, basis):
    tab.basis[:] = basis
    tab.refactor()
    return tab


def dense_reference(tab):
    """B^-1 [A_all | b_active] and the reduced costs of both cost rows, from
    one dense solve of the full basis."""
    ab = np.column_stack([tab.A_all, tab.b_active])
    t = np.linalg.solve(tab.A_all[:, tab.basis], ab)
    rc = []
    for d in (tab.d2, tab.d1):
        r = d - d[tab.basis] @ t[:, :-1]
        r[tab.basis] = 0.0
        rc.append(r)
    return t, rc


def assert_close(got, want):
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(got - want).max(initial=0.0) <= 1e-10 * scale


def binv_rows(tab, positions):
    """Rows ``positions`` of B^-1, spread over every row from the kernel's
    free rows and the units' own rows."""
    rho, is_unit, slots = tab._binv_rows(positions)
    at_unit = slots[is_unit]
    out = np.zeros((positions.size, tab.m))
    out[:, tab._free[:tab._k]] = rho
    out[np.flatnonzero(is_unit), tab._srows[at_unit]] = tab._sign[at_unit]
    return out


def assert_matches_dense(tab):
    """Basic values, both reduced-cost rows, every column and every row of
    B^-1 A_all, and every row of B^-1, as the kernel gives them, against the
    dense solve."""
    t, rc = dense_reference(tab)
    xb = t[:, -1]
    xb[np.abs(xb) < 1e-11] = 0.0
    assert_close(tab.xb, xb)
    for jo in (0, 1):
        assert_close(tab.reduced_costs(jo), rc[jo])
    assert_close(tab.columns(np.arange(tab.N)), t[:, :-1])
    assert_close(tab.rows(np.arange(tab.m)), t[:, :-1])
    assert_close(binv_rows(tab, np.arange(tab.m)),
                 np.linalg.solve(tab.A_all[:, tab.basis], np.eye(tab.m)))


def random_basis(rng, tab, unit_share):
    """A well-conditioned basis with about ``unit_share`` of its positions
    held by unit columns, each on a distinct row."""
    m, n = tab.m, tab.n_struct
    for _ in range(200):
        units = []
        taken = set()
        for col in rng.permutation(unit_columns(tab)):
            row = int(tab.unit_row[col])
            if len(units) < round(unit_share * m) and row not in taken:
                units.append(int(col))
                taken.add(row)
        structural = rng.choice(n, m - len(units), replace=False).tolist()
        basis = np.asarray(units + structural)[rng.permutation(m)]
        if np.linalg.cond(tab.A_all[:, basis]) < 1e6:
            return basis
    raise AssertionError("no well-conditioned basis found")


class TestSlackAwareRefactor:
    @pytest.mark.parametrize("unit_share", [0.0, 0.4, 0.7, 1.0])
    def test_matches_dense_solve(self, unit_share):
        rng = np.random.default_rng(int(unit_share * 10) + 3)
        for _ in range(10):
            tab = tableau(mixed_problem(rng, n=14))
            basis = random_basis(rng, tab, unit_share)
            unit_count = int(np.count_nonzero(tab.unit_row[basis] >= 0))
            assert unit_count == round(unit_share * tab.m)
            tab.b_active = tab.b_active + rng.normal(scale=1e-3, size=tab.m)
            assert_matches_dense(refactored(tab, basis))

    def test_starting_basis_is_all_unit(self):
        tab = tableau(mixed_problem(np.random.default_rng(1)))
        assert (tab.unit_row[tab.basis] >= 0).all()
        tab.refactor()
        assert tab._k == 0
        assert_matches_dense(tab)

    def test_one_solve_of_kernel_size(self, monkeypatch):
        # one inversion of the kernel per refresh: at each refactor, none
        # for an update
        rng = np.random.default_rng(8)
        tab, basis = big_kernel_tableau(rng)
        sizes = counted_inversions(monkeypatch)
        refactored(tab, basis)
        kernel = int(np.count_nonzero(tab.unit_row[basis] < 0))
        assert kernel >= simplex.UPDATE_MIN_KERNEL
        assert sizes == [(kernel, kernel)]
        # a refresh inverts even an unchanged kernel; values and prices
        # follow the data
        tab.b_active = tab.b_active + 1e-3
        tab.d2 = tab.d2 + 1.0
        tab.refactor()
        assert sizes == [(kernel, kernel)] * 2
        assert_matches_dense(tab)
        # pivots are updates, up to UPDATE_LIMIT of them
        for _ in range(3):
            tab.pivot_at(*pivot_of_kind(rng, tab, False, False))
        assert len(sizes) == 2 and tab._updates == 3
        assert_matches_dense(tab)

    def test_singular_kernel(self):
        rng = np.random.default_rng(4)
        # column 6 is zero, so a basis holding it is singular
        tab = tableau(mixed_problem(rng, zero_col=6))
        basis = tab.basis.copy()
        basis[0], basis[1] = 5, 6
        with pytest.raises(SolverStallError, match="singular basis"):
            refactored(tab, basis)

    def test_surplus_and_artificial_of_one_row(self):
        # row 0 (x0 + x1 >= 1) starts on its artificial; adding its surplus
        # puts two unit columns on one row
        prob = make_problem([1.0, 1.0], [([1.0, 1.0], 1.0), ([1.0, -1.0], -2.0)],
                            [([1.0, 2.0], 3.0)])
        tab = tableau(prob)
        art = tab.basis[0]
        assert art >= tab.n_struct + tab.m_ge and tab.unit_row[art] == 0
        basis = np.array([art, tab.n_struct + 0, 0])
        with pytest.raises(SolverStallError, match="singular basis"):
            refactored(tab, basis)

    def test_singular_basis_stops_a_cold_solve(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SolverStallError, match="singular basis"):
            solve_lp(mixed_problem(np.random.default_rng(2)))


def big_kernel_tableau(rng):
    """A tableau and a well-conditioned basis whose kernel has at least
    UPDATE_MIN_KERNEL columns, so that pivots update it."""
    tab = tableau(mixed_problem(rng, n=40, m_ge=18, m_eq=4))
    return tab, random_basis(rng, tab, 0.2)


def counted_inversions(monkeypatch):
    """The shapes np.linalg.inv is called on from now on."""
    sizes = []
    inv = np.linalg.inv

    def counted(a):
        sizes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return sizes


def pivot_of_kind(rng, tab, unit_leaves, unit_enters):
    """(position, column) of a pivot whose leaving and entering columns are
    unit columns or not as asked, with a pivot of at least 0.1."""
    leaves = (tab.unit_row[tab.basis] >= 0) == unit_leaves
    nonbasic = np.setdiff1d(np.arange(tab.N), tab.basis)
    for q in rng.permutation(nonbasic[(tab.unit_row[nonbasic] >= 0) == unit_enters]):
        col = tab.columns(np.array([q]))[:, 0]
        ok = np.flatnonzero(leaves & (np.abs(col) >= 0.1))
        if ok.size:
            return int(rng.choice(ok)), int(q)
    raise AssertionError("no such pivot")


class TestKernelUpdate:
    """Each kind of pivot updates K^-1 in place (no inversion), and
    everything computed from it matches a dense solve of the new basis."""

    @pytest.mark.parametrize("unit_leaves, unit_enters", [
        (False, False),  # a kernel column replaced
        (True, False),   # a structural column takes a unit's place: K grows
        (False, True),   # a unit takes a structural column's place: K shrinks
        (True, True),    # a unit on another row replaces a unit: a row of K replaced
    ])
    def test_matches_dense_after_each_kind(self, monkeypatch, unit_leaves, unit_enters):
        rng = np.random.default_rng(40 + 2 * unit_leaves + unit_enters)
        for _ in range(5):
            tab, basis = big_kernel_tableau(rng)
            refactored(tab, basis)
            sizes = counted_inversions(monkeypatch)
            # three, as a kernel of 18 shrinks to 15 (UPDATE_MIN_KERNEL is 16)
            for step in range(3):
                k = tab._k
                tab.pivot_at(*pivot_of_kind(rng, tab, unit_leaves, unit_enters))
                assert tab._k == k + unit_leaves - unit_enters
                assert tab._updates == step + 1 and sizes == []
                assert_matches_dense(tab)
            monkeypatch.undo()

    def test_unit_of_the_same_row(self, monkeypatch):
        # row 0 (x . a >= 1) starts on its artificial; its surplus replaces it
        monkeypatch.setattr(simplex, "UPDATE_MIN_KERNEL", 0)
        prob = make_problem(np.ones(3), [([1.0, 2.0, 1.0], 1.0), ([1.0, -1.0, 2.0], -2.0)],
                            [([1.0, 1.0, 3.0], 3.0)])
        tab = tableau(prob)
        tab.refactor()
        art, surplus = tab.basis[0], tab.n_struct
        assert tab.unit_row[art] == tab.unit_row[surplus] == 0
        tab.pivot_at(0, surplus)
        assert tab._updates == 1 and tab._sign[tab._slot[0]] == -1.0
        assert_matches_dense(tab)

    def test_small_kernels_are_inverted(self, monkeypatch):
        rng = np.random.default_rng(9)
        tab = tableau(mixed_problem(rng, n=14))
        refactored(tab, random_basis(rng, tab, 0.4))
        assert 0 < tab._k < simplex.UPDATE_MIN_KERNEL
        sizes = counted_inversions(monkeypatch)
        tab.pivot_at(*pivot_of_kind(rng, tab, False, False))
        assert sizes == [(tab._k, tab._k)] and tab._updates == 0
        assert_matches_dense(tab)

    def test_refresh_after_update_limit(self, monkeypatch):
        monkeypatch.setattr(simplex, "UPDATE_LIMIT", 3)
        rng = np.random.default_rng(11)
        tab, basis = big_kernel_tableau(rng)
        refactored(tab, basis)
        sizes = counted_inversions(monkeypatch)
        for _ in range(3):
            tab.pivot_at(*pivot_of_kind(rng, tab, False, False))
        assert sizes == [] and tab._updates == 3
        tab.pivot_at(*pivot_of_kind(rng, tab, False, False))
        assert sizes == [(tab._k, tab._k)] and tab._updates == 0
        assert_matches_dense(tab)

    def test_small_update_pivot_refactors(self, monkeypatch):
        # the column entering at kernel position r is B (1e-8 e_r + e_p): its
        # pivot is 1e-8 of its largest entry
        rng = np.random.default_rng(12)
        tab, basis = big_kernel_tableau(rng)
        kernel = np.flatnonzero(tab.unit_row[basis] < 0)
        r, p = int(kernel[0]), int(kernel[1])
        q = int(np.setdiff1d(np.arange(tab.n_struct), basis)[0])
        tab.A_all[:, q] = tab.A_all[:, basis] @ (1e-8 * np.eye(tab.m)[r] + np.eye(tab.m)[p])
        refactored(tab, basis)
        sizes = counted_inversions(monkeypatch)
        tab.pivot_at(r, q)
        assert sizes == [(tab._k, tab._k)] and tab._updates == 0

    def test_failed_residual_check_refactors(self, monkeypatch):
        rng = np.random.default_rng(13)
        tab, basis = big_kernel_tableau(rng)
        refactored(tab, basis)
        tab.pivot_at(*pivot_of_kind(rng, tab, True, False))
        assert tab._updates == 1 and tab._trusted()
        tab._Kinv[0, 0] += 1e-6
        sizes = counted_inversions(monkeypatch)
        assert not tab._trusted()
        assert sizes == [(tab._k, tab._k)] and tab._updates == 0
        assert tab._trusted()
        assert_matches_dense(tab)

    def test_guard_precedes_every_verdict(self, monkeypatch):
        # every update leaves an error of 1e-7 in K^-1, which the residual
        # guard finds before a verdict: the solve refreshes its factors and
        # ends on the clean solve's optimum
        update, accurate = simplex._Tableau._update, simplex._Tableau._accurate
        checks = []

        def noisy(self, r, q):
            done = update(self, r, q)
            if done:
                self._Kinv[0, : self._k] += 1e-7
            return done

        def recorded(self):
            checks.append(accurate(self))
            return checks[-1]

        rng = np.random.default_rng(14)
        dims = (6, 6)
        prob = unit_max_rows(build_ce_constraints(
            PayoffTensor(dims, random_tensor(rng, dims).copy())))
        clean = solve_lp(prob)
        monkeypatch.setattr(simplex, "UPDATE_MIN_KERNEL", 1)
        monkeypatch.setattr(simplex._Tableau, "_update", noisy)
        monkeypatch.setattr(simplex._Tableau, "_accurate", recorded)
        noisy_sol = solve_lp(prob)
        assert noisy_sol.status == clean.status == "optimal"
        assert noisy_sol.objective_value == pytest.approx(clean.objective_value, abs=1e-9)
        assert False in checks


class TestDualRepair:
    def test_dropped_perturbation_repair(self, monkeypatch):
        """With a perturbation after every degenerate pivot, dropping it
        leaves some basic values negative; the last dual pass of the solve
        repairs them without moving the optimum."""
        perturbs, finish_pivots = [], []
        perturb, dual_simplex = simplex._Tableau.perturb, simplex._Tableau.dual_simplex

        def counted_perturb(self):
            perturbs.append(self.iters)
            return perturb(self)

        def counted_finish(self, tol):
            before = self.iters
            feasible = dual_simplex(self, tol)
            if tol == simplex.CLEAN_TOL:  # the finish every solve runs
                finish_pivots.append(self.iters - before)
            return feasible

        rng = np.random.default_rng(5)
        for k in range(30):
            grid = build_power_grid(-20.0, 20.0, int(rng.integers(3, 7)))
            gains = rng.uniform(0.01, 3.0, size=(2, 2))
            prob = build_ce_constraints(build_payoff_tensor(GameInstance(
                ChannelMatrix.from_array(gains), (grid, grid), 0.01, 1.0, 100)))
            default = solve_lp(prob)
            with monkeypatch.context() as patch:
                patch.setattr(simplex, "STALL_THRESHOLD", 1)
                patch.setattr(simplex._Tableau, "perturb", counted_perturb)
                patch.setattr(simplex._Tableau, "dual_simplex", counted_finish)
                stalled = solve_lp(prob)
            assert stalled.status == default.status == "optimal", f"game {k}"
            assert stalled.objective_value == pytest.approx(default.objective_value, abs=1e-9)
        assert perturbs
        assert sum(finish_pivots) >= 1


def tableau_reference(prob):
    """Row flips, starting basis and artificial columns, one row at a time."""
    a = np.vstack([prob.ineq_coeffs, prob.eq_coeffs])
    b = np.concatenate([prob.ineq_rhs, prob.eq_rhs])
    m, m_ge, n = a.shape[0], prob.ineq_coeffs.shape[0], prob.n
    sur_sign = np.where(np.arange(m) < m_ge, -1.0, 0.0)
    for r in range(m):
        if b[r] < 0 or (r < m_ge and b[r] <= 0):
            a[r] *= -1.0
            b[r] = -b[r]
            sur_sign[r] *= -1.0
    basis, art_of_row = np.empty(m, dtype=int), {}
    for r in range(m):
        if r < m_ge and sur_sign[r] > 0:
            basis[r] = n + r
        else:
            basis[r] = n + m_ge + len(art_of_row)
            art_of_row[r] = len(art_of_row)
    a_all = np.zeros((m, n + m_ge + len(art_of_row)))
    a_all[:, :n] = a
    for r in range(m_ge):
        a_all[r, n + r] = sur_sign[r]
    for r, k in art_of_row.items():
        a_all[r, n + m_ge + k] = 1.0
    return a_all, b, basis, art_of_row


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestVectorizedSetUp:
    def problems(self):
        rng = np.random.default_rng(12)
        yield mixed_problem(rng)
        yield mixed_problem(rng, m_eq=0)
        yield mixed_problem(rng, m_ge=0)
        # no rows at all
        yield make_problem([1.0, -2.0, 0.5, 3.0])
        for _ in range(20):
            yield mixed_problem(rng, n=int(rng.integers(5, 12)), m_ge=int(rng.integers(0, 6)),
                                m_eq=int(rng.integers(0, 3)))

    def test_tableau_matches_loops(self):
        for prob in self.problems():
            tab = tableau(prob)
            a_all, b, basis, art_of_row = tableau_reference(prob)
            assert same_bytes(tab.A_all, a_all) and same_bytes(tab.b_true, b)
            assert same_bytes(tab.basis, basis) and tab.n_art == len(art_of_row)
            for col in range(tab.N):
                rows = np.flatnonzero(a_all[:, col])
                if col < prob.n:
                    assert tab.unit_row[col] == -1
                else:
                    assert rows.tolist() == [tab.unit_row[col]]


class TestAppendedRows:
    """Rows appended to a resident optimal tableau, under the old or a new
    objective: the grown basis's values, prices, rows and columns against a
    dense solve of it."""

    def appended(self, prob, m, k, objective=None):
        bigger = first_rows(prob, m + k)
        if objective is not None:
            bigger = replace(bigger, objective=objective)
        sol = solve_lp(first_rows(prob, m))
        assert sol.status == "optimal"
        tab = sol.resident.take(bigger)
        old_basis, old_n = tab.basis.copy(), tab.N
        tab.extend(bigger.ineq_coeffs[m:], bigger.ineq_rhs[m:], bigger.objective)
        # the old basis, then the new surplus columns, appended
        assert tab.basis.tolist() == old_basis.tolist() + list(range(old_n, old_n + k))
        assert (tab.unit_row[old_n:] == np.arange(tab.m - k, tab.m)).all()
        return tab

    def test_random_ce_masters(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            full = unit_max_rows(build_ce_constraints(
                PayoffTensor(dims, random_tensor(rng, dims).copy())))
            total = full.ineq_coeffs.shape[0]
            k = int(rng.integers(1, min(8, total) + 1))
            m = int(rng.integers(0, total - k + 1))
            assert_matches_dense(self.appended(full, m, k))
            assert_matches_dense(self.appended(full, m, k, rng.normal(size=full.n)))

    def test_appending_keeps_the_factors(self, monkeypatch):
        # rows appended to the basis the factors belong to add unit rows to
        # them, with no inversion; the grown data keeps room for more rows
        rng = np.random.default_rng(32)
        full = unit_max_rows(build_ce_constraints(
            PayoffTensor((6, 6), random_tensor(rng, (6, 6)).copy())))
        bigger = first_rows(full, 20)
        tab = solve_lp(first_rows(full, 12)).resident.take(bigger)
        assert tab._k >= 1
        sizes = counted_inversions(monkeypatch)
        tab.extend(bigger.ineq_coeffs[12:], bigger.ineq_rhs[12:], bigger.objective)
        assert sizes == [] and tab._A.shape[0] > tab.m
        assert_matches_dense(tab)

    def test_literal_commeq_master(self):
        grid = build_power_grid(-20.0, 20.0, 4)
        fam = GameFamily((grid, grid), alpha=0.01, noise=1.0, packet_len=100)
        full = unit_max_rows(build_commeq_lp(build_type_space([0.01, 3.0], 2), fam))
        assert full.n == 64 and full.eq_coeffs.shape[0] == 4
        for m, k in ((0, 8), (6, 1), (10, 12), (24, 8)):
            assert_matches_dense(self.appended(full, m, k))

    def test_row_met_within_noise_starts_at_zero(self):
        # the basic values are zeroed below 1e-11, an appended row's too
        rng = np.random.default_rng(6)
        full = unit_max_rows(build_ce_constraints(
            PayoffTensor((3, 3), random_tensor(rng, (3, 3)).copy())))
        x = solve_lp(first_rows(full, 4)).x
        row = rng.normal(size=full.n)
        row -= (row @ x - 5e-12) / (x @ x) * x
        prob = replace(full, ineq_coeffs=np.vstack([full.ineq_coeffs[:4], row]),
                       ineq_rhs=np.zeros(5))
        tab = self.appended(prob, 4, 1)
        assert tab.xb[-1] == 0.0
        assert_matches_dense(tab)
