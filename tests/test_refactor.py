"""Tableau internals: the basic values, reduced costs, rows and columns
computed from the slack-aware kernel factorization, fresh and after rows are
appended to a resident tableau, the dual-simplex repair after a dropped
perturbation and the vectorized tableau set-up, each against a direct dense
or loop reference written here."""
from dataclasses import replace

import numpy as np
import pytest

from powergames import simplex
from powergames.communication import GameFamily, build_commeq_lp, build_type_space
from powergames.correlated import build_ce_constraints
from powergames.errors import SolverStallError
from powergames.model import (ChannelMatrix, GameInstance, PayoffTensor, build_payoff_tensor,
                              build_power_grid)
from powergames.simplex import make_problem, solve_lp
from oracles import first_rows, random_tensor, unit_max_rows


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


def assert_matches_dense(tab):
    """Basic values, both reduced-cost rows, every column and every row of
    B^-1 A_all, as the kernel gives them, against the dense solve."""
    t, rc = dense_reference(tab)
    xb = t[:, -1]
    xb[np.abs(xb) < 1e-11] = 0.0
    assert_close(tab.xb, xb)
    for jo in (0, 1):
        assert_close(tab.reduced_costs(jo), rc[jo])
    assert_close(tab.columns(np.arange(tab.N)), t[:, :-1])
    assert_close(tab.rows(np.arange(tab.m)), t[:, :-1])


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
        assert tab._kernel.size == 0
        assert_matches_dense(tab)

    def test_one_solve_of_kernel_size(self, monkeypatch):
        rng = np.random.default_rng(8)
        tab = tableau(mixed_problem(rng, n=14))
        basis = random_basis(rng, tab, 0.4)
        sizes = []
        inv = np.linalg.inv

        def counted(a):
            sizes.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        refactored(tab, basis)
        kernel = int(np.count_nonzero(tab.unit_row[basis] < 0))
        assert sizes == [(kernel, kernel)]
        # the same kernel keeps its inverse; values and prices still follow
        # the data
        tab.b_active = tab.b_active + 1e-3
        tab.d2 = tab.d2 + 1.0
        tab.refactor()
        assert len(sizes) == 1
        assert_matches_dense(tab)
        # a basis change that changes the kernel inverts the new one
        nonbasic = np.setdiff1d(np.arange(tab.n_struct), tab.basis)
        tab.pivot_at(int(tab._kernel[0]), int(nonbasic[0]))
        assert sizes == [(kernel, kernel)] * 2
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


class TestDualRepair:
    def test_dropped_perturbation_repair(self, monkeypatch):
        """With a perturbation after every degenerate pivot, dropping it
        leaves some basic values negative; the dual simplex repair restores
        feasibility without moving the optimum."""
        calls = []
        dual_simplex = simplex._Tableau.dual_simplex

        def counted(self, tol, jo=0):
            if tol != simplex.CLEAN_TOL:  # not the finish every solve runs
                calls.append(jo)
            return dual_simplex(self, tol, jo)

        monkeypatch.setattr(simplex._Tableau, "dual_simplex", counted)
        rng = np.random.default_rng(5)
        for k in range(30):
            grid = build_power_grid(-20.0, 20.0, int(rng.integers(3, 7)))
            gains = rng.uniform(0.01, 3.0, size=(2, 2))
            prob = build_ce_constraints(build_payoff_tensor(GameInstance(
                ChannelMatrix.from_array(gains), (grid, grid), 0.01, 1.0, 100)))
            default = solve_lp(prob)
            with monkeypatch.context() as patch:
                patch.setattr(simplex, "STALL_THRESHOLD", 1)
                stalled = solve_lp(prob)
            assert stalled.status == default.status == "optimal", f"game {k}"
            assert stalled.objective_value == pytest.approx(default.objective_value, abs=1e-9)
        assert len(calls) >= 1


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
