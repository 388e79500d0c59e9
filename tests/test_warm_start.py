"""Warm-started simplex: a start basis is only a hint, never the answer's source."""
import math

import numpy as np
import pytest

from powergames.correlated import CePolytopeSolver, build_ce_constraints, ce_payoff_region
from powergames.model import ChannelMatrix, GameInstance, PayoffTensor, build_payoff_tensor, build_power_grid
from powergames.simplex import make_problem, solve_lp
from oracles import random_bounded_lp, random_tensor


def paper_game(gains, levels=25):
    grid = build_power_grid(-20.0, 20.0, levels)
    return build_payoff_tensor(GameInstance(
        ChannelMatrix.from_array(gains), (grid, grid), 0.01, 1.0, 100
    ))


def random_problems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c, a, b, eq, eb, lo, hi = random_bounded_lp(rng)
        yield make_problem(
            c,
            ineq_rows=[(a[r], b[r]) for r in range(a.shape[0])],
            eq_rows=[(eq[r], eb[r]) for r in range(eq.shape[0])],
            bounds=list(zip(lo, hi)),
        )


def small_ce_game():
    tensor = PayoffTensor((3, 3), random_tensor(np.random.default_rng(3), (3, 3)).copy())
    return tensor, build_ce_constraints(tensor)


class TestRestart:
    def test_optimal_basis_restarts_with_no_pivots(self):
        problems = list(random_problems(11, 40)) + [small_ce_game()[1]]
        restarted = 0
        for k, prob in enumerate(problems):
            cold = solve_lp(prob)
            if cold.status != "optimal":
                assert cold.basis is None
                continue
            assert len(cold.basis) == prob.row_count + int(
                np.sum(np.isfinite(prob.lo) & np.isfinite(prob.hi)))
            warm = solve_lp(prob, start=cold.basis)
            assert warm.status == "optimal", f"LP {k}"
            assert warm.iterations == 0, f"LP {k}"
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
            assert np.abs(warm.x - cold.x).max() <= 1e-9, f"LP {k}"
            restarted += 1
        assert restarted >= 20

    def test_basis_labels_name_problem_columns(self):
        # max x0 + x1 s.t. x0 + x1 <= 1, x0 - x1 = 0; x1 in [0, 5]
        prob = make_problem([1.0, 1.0], ineq_rows=[([-1.0, -1.0], -1.0)],
                            eq_rows=[([1.0, -1.0], 0.0)], bounds=[(0, None), (0, 5)])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sorted(sol.basis) == [("b", 1), ("x", 0), ("x", 1)]

    def test_new_cut_is_repaired(self):
        # max x0 + 2 x1 over x0 + x1 <= 1, then cut x1 <= 0.25: one dual pivot
        base = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0)])
        first = solve_lp(base)
        cut = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0), ([0.0, -1.0], -0.25)])
        warm = solve_lp(cut, start=first.basis)
        cold = solve_lp(cut)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)
        assert warm.objective_value == pytest.approx(1.25, abs=1e-12)
        assert warm.iterations == 1


    def test_attempt_past_pivot_budget_falls_back(self, monkeypatch):
        from powergames import simplex

        base = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0)])
        cut = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0), ([0.0, -1.0], -0.25)])
        start = solve_lp(base).basis
        cold = solve_lp(cut)
        monkeypatch.setattr(simplex, "WARM_PIVOT_SLACK", -cut.row_count)  # budget 0
        warm = solve_lp(cut, start=start)
        assert np.array_equal(warm.x, cold.x)
        assert warm.iterations == cold.iterations + 1  # the abandoned pivot counts


class TestStartThatDoesNotFit:
    def assert_cold(self, prob, start):
        cold = solve_lp(prob)
        warm = solve_lp(prob, start=start)
        assert warm.status == cold.status
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.x, cold.x)
        assert warm.basis == cold.basis

    def test_wrong_length(self):
        _, prob = small_ce_game()
        basis = solve_lp(prob).basis
        self.assert_cold(prob, basis + (("x", 0),))
        self.assert_cold(prob, basis[:-1] + (("s", 10 ** 6),))

    def test_unknown_or_repeated_columns(self):
        _, prob = small_ce_game()
        basis = solve_lp(prob).basis
        self.assert_cold(prob, (("q", 0),) + basis[1:])
        self.assert_cold(prob, (basis[1],) + basis[1:])

    def test_singular_basis(self):
        # columns 0 and 1 are equal, so a basis holding both is singular
        prob = make_problem([1.0, 1.0, 0.5],
                            ineq_rows=[([-1.0, -1.0, -1.0], -2.0), ([-2.0, -2.0, -1.0], -3.0)])
        self.assert_cold(prob, (("x", 0), ("x", 1)))


class TestRowGeneration:
    def test_matches_cold_full_lp_on_criterion_2_games(self):
        # criterion 2's generator: 50 games with M in {2, 3, 4}, then its
        # first 25-level power game (a cold full solve of that takes seconds)
        rng = np.random.default_rng(501)
        tensors = []
        for _ in range(50):
            m = int(rng.integers(2, 5))
            tensors.append(PayoffTensor((m, m), random_tensor(rng, (m, m)).copy()))
        for _ in range(1):
            tensors.append(paper_game(rng.uniform(0.01, 3.0, size=(2, 2))))
        for k, tensor in enumerate(tensors):
            _, value, _ = CePolytopeSolver.for_tensor(tensor).maximize(tensor.welfare_flat())
            cold = solve_lp(build_ce_constraints(tensor))
            assert abs(value - cold.objective_value) <= 1e-9, f"game {k}"

    def test_region_matches_cold_per_direction_optima(self):
        tensor = paper_game([[2.98931, 1.92230], [1.26254, 1.68242]], levels=8)
        directions = 64
        region = ce_payoff_region(tensor, directions)
        for k in range(directions):
            theta = 2.0 * math.pi * k / directions
            w = np.array([math.cos(theta), math.sin(theta)])
            cold = solve_lp(build_ce_constraints(
                tensor, w[0] * tensor.flat(0) + w[1] * tensor.flat(1)))
            support = max(float(w @ v) for v in region)
            assert abs(support - cold.objective_value) <= 1e-9, f"direction {k}"
