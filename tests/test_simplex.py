import numpy as np
import pytest

from powergames import simplex
from powergames.errors import SolverStallError
from powergames.model import PayoffTensor
from powergames.simplex import dump_problem, make_problem, solve_lp
from oracles import (build_ce_constraints, lp_vertex_reference, random_bounded_lp, random_tensor,
                     shifted_box_lp)


def solve(objective, ineq=(), eq=()):
    return solve_lp(make_problem(objective, ineq, eq))


class TestBasics:
    def test_simple_face_optimum(self):
        # max x1 + x2 s.t. x1 + x2 <= 1, x >= 0
        sol = solve([1.0, 1.0], ineq=[([-1.0, -1.0], -1.0)])
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        # x >= 2 and x <= 1
        sol = solve([1.0], ineq=[([1.0], 2.0), ([-1.0], -1.0)])
        assert sol.status == "infeasible"
        assert sol.x is None and sol.objective_value is None

    def test_unbounded(self):
        sol = solve([1.0], ineq=[([1.0], 0.0)])
        assert sol.status == "unbounded"

    def test_equality_row(self):
        # max x1 s.t. x1 + x2 = 1
        sol = solve([1.0, 0.0], eq=[([1.0, 1.0], 1.0)])
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_problem([1.0, np.inf])
        with pytest.raises(ValueError):
            make_problem([1.0], ineq_rows=[([1.0, 2.0], 0.0)])
        # the name is keyword-only, so a stale positional bounds list fails
        with pytest.raises(TypeError):
            make_problem([1.0], [], [], [(0.0, 1.0)])


class TestAgainstVertexEnumeration:
    def test_battery(self):
        rng = np.random.default_rng(42)
        for k in range(60):
            c, a, b, eq, eb, lo, hi = random_bounded_lp(rng)
            sol = solve_lp(shifted_box_lp(c, a, b, eq, eb, lo, hi))
            status, value = lp_vertex_reference(c, a, b, eq, eb, lo, hi)
            assert sol.status == status, f"case {k}"
            if status == "optimal":
                assert sol.objective_value + c @ lo == pytest.approx(value, abs=1e-8), f"case {k}"

    def test_feasibility_certificate(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c, a, b, eq, eb, lo, hi = random_bounded_lp(rng)
            sol = solve_lp(shifted_box_lp(c, a, b, eq, eb, lo, hi))
            if sol.status != "optimal":
                continue
            x = sol.x + lo
            scale = np.maximum(1.0, np.abs(a).max(axis=1))
            assert ((a @ x - b) / scale >= -1e-9).all()
            if eq.shape[0]:
                assert (np.abs(eq @ x - eb) <= 1e-9 * np.maximum(1.0, np.abs(eb))).all()
            assert (x >= lo - 1e-9).all() and (x <= hi + 1e-9).all()
            assert sol.objective_value + c @ lo == pytest.approx(float(c @ x), rel=1e-9, abs=1e-12)


# the default stall threshold, and a perturbation after every degenerate pivot
@pytest.mark.parametrize("stall", [simplex.STALL_THRESHOLD, 1], ids=["default", "stall_1"])
class TestDegeneracy:
    def test_beale_cycling_instance(self, stall, monkeypatch):
        # Beale's LP cycles under Dantzig pricing with a smallest-index ratio
        # tie-break; with the largest-pivot Harris ratio test it solves with
        # no stall response at the default threshold
        monkeypatch.setattr(simplex, "STALL_THRESHOLD", stall)
        c = [0.75, -150.0, 0.02, -6.0]
        rows = [
            ([-0.25, 60.0, 1.0 / 25.0, -9.0], 0.0),
            ([-0.5, 90.0, 1.0 / 50.0, -3.0], 0.0),
            ([0.0, 0.0, -1.0, 0.0], -1.0),
        ]
        sol = solve(c, ineq=rows)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(0.05, abs=1e-9)

    def test_highly_degenerate_cone(self, stall, monkeypatch):
        # many tight rows at the origin plus a simplex equality
        monkeypatch.setattr(simplex, "STALL_THRESHOLD", stall)
        rng = np.random.default_rng(1)
        n = 30
        a = rng.normal(size=(200, n))
        rows = [(a[r], 0.0) for r in range(200) if a[r].max() > 0]
        eq = [(np.ones(n), 1.0)]
        sol = solve(rng.uniform(0.0, 1.0, n), ineq=rows, eq=eq)
        # feasibility of the cone-simplex intersection is not guaranteed here;
        # accept either verdict but require a clean certificate when optimal
        assert sol.status in ("optimal", "infeasible")
        if sol.status == "optimal":
            coeffs = np.array([r[0] for r in rows])
            assert (coeffs @ sol.x >= -1e-8).all()
            assert sol.x.sum() == pytest.approx(1.0, abs=1e-9)


class TestPricing:
    def test_one_column_per_pivot(self, monkeypatch):
        """The entering column is chosen by its reduced cost alone, so a cold
        solve over many candidate columns forms one column of B^-1 A at a
        time, for the ratio test."""
        tensor = PayoffTensor((6, 6), random_tensor(np.random.default_rng(5), (6, 6)))
        widths = []
        columns = simplex._Tableau.columns

        def counted(tab, cols):
            widths.append(len(cols))
            return columns(tab, cols)

        monkeypatch.setattr(simplex._Tableau, "columns", counted)
        sol = solve_lp(build_ce_constraints(tensor))
        assert sol.status == "optimal"
        assert widths and max(widths) == 1

    def test_simplex_row_takes_one_pivot(self):
        """With only the row ``sum x = 1``, phase 1 prices every column alike
        and breaks the tie toward the phase-2 objective, which is optimal."""
        c = np.array([0.3, -1.0, 2.5, 0.7, 2.4])
        sol = solve(c, eq=[(np.ones(5), 1.0)])
        assert sol.status == "optimal"
        assert sol.iterations == 1
        assert sol.x.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(17)
        prob = shifted_box_lp(*random_bounded_lp(rng))
        s1 = solve_lp(prob)
        s2 = solve_lp(prob)
        assert s1.status == s2.status
        assert s1.iterations == s2.iterations
        if s1.status == "optimal":
            assert (s1.x == s2.x).all()
            assert s1.objective_value == s2.objective_value


class TestStall:
    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(2)
        n = 10
        a = rng.normal(size=(40, n))
        x0 = rng.uniform(0.2, 1.0, n)
        b = a @ x0 - rng.uniform(0.1, 1.0, 40)
        box = [(-e, -2.0) for e in np.eye(n)]  # x <= 2
        monkeypatch.setattr(simplex, "PIVOT_CAP_FACTOR", 0)  # no pivot allowed
        with pytest.raises(SolverStallError, match="exceeded 0 pivots"):
            solve(rng.normal(size=n), ineq=[(a[r], b[r]) for r in range(40)] + box)

    def test_cleanup_stall_certifies_the_optimal_basis(self, monkeypatch):
        """The last dual pass is best effort: when it ends in a stall, the
        optimal basis it started from is restored, factorized afresh and
        certified."""
        prob = build_ce_constraints(PayoffTensor((4, 4), random_tensor(
            np.random.default_rng(8), (4, 4))))
        expected = solve_lp(prob)
        dual = simplex._Tableau.dual_simplex

        def stalls(tab, tol, jo=0):
            if tol != simplex.CLEAN_TOL:
                return dual(tab, tol, jo)
            # pivots back to the starting basis, then values no basis has
            tab.basis[:] = simplex._Tableau(prob).basis
            tab.xb[:] = -1.0
            raise SolverStallError("singular basis: its kernel is singular")

        monkeypatch.setattr(simplex._Tableau, "dual_simplex", stalls)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x.tolist() == expected.x.tolist()
        assert sol.objective_value == expected.objective_value


class TestDump:
    def test_fixed_layout(self):
        prob = make_problem(
            [1.0, -0.25],
            ineq_rows=[([2.0, 0.0], 1.0)],
            eq_rows=[([1.0, 1.0], 1.0)],
            name="demo",
        )
        expected = (
            "NAME    demo\n"
            "* OBJSENSE MAX\n"
            "ROWS\n"
            " N  OBJ\n"
            " G  R0000001\n"
            " E  E0000001\n"
            "COLUMNS\n"
            "    X0000001  OBJ       +1.00000000000000000e+00\n"
            "    X0000001  R0000001  +2.00000000000000000e+00\n"
            "    X0000001  E0000001  +1.00000000000000000e+00\n"
            "    X0000002  OBJ       -2.50000000000000000e-01\n"
            "    X0000002  E0000001  +1.00000000000000000e+00\n"
            "RHS\n"
            "    RHS       R0000001  +1.00000000000000000e+00\n"
            "    RHS       E0000001  +1.00000000000000000e+00\n"
            "BOUNDS\n"
            "ENDATA\n"
        )
        assert dump_problem(prob) == expected


class TestCertify:
    """The feasibility check of every claimed optimum, called directly, on
    unit-scale rows: x0 >= 0.25 and x0 + x1 = 1."""

    PROB = make_problem([1.0, 1.0], ineq_rows=[([1.0, 0.0], 0.25)], eq_rows=[([1.0, 1.0], 1.0)])
    TOL = simplex.FEAS_TOL

    def test_within_tolerance_passes(self):
        simplex._certify(self.PROB, np.array([1.0 + self.TOL / 2, -self.TOL / 2]), self.TOL)

    @pytest.mark.parametrize("x, failed", [
        ([1.0 + 2 * TOL, -2 * TOL], "nonnegativity"),
        ([0.5, 0.5 + 2 * TOL], "equality"),
        ([0.25 - 2 * TOL, 0.75 + 2 * TOL], "inequality"),
    ], ids=["negative-entry", "equality-residual", "inequality-residual"])
    def test_violation_fails(self, x, failed):
        with pytest.raises(SolverStallError, match=f"failed {failed} certification"):
            simplex._certify(self.PROB, np.array(x), self.TOL)
