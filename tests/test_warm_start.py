"""Warm-started simplex: a resident tableau is only a hint, never the answer's source."""
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from powergames import correlated, simplex
from powergames.correlated import CePolytopeSolver, ce_payoff_region
from powergames.model import ChannelMatrix, GameInstance, PayoffTensor, build_payoff_tensor, build_power_grid
from powergames.simplex import make_problem, solve_lp
from oracles import (build_ce_constraints, first_rows, random_bounded_lp, random_tensor,
                     shifted_box_lp, unit_max_rows)
from test_refactor import same_bytes


def paper_game(gains, levels=25):
    grid = build_power_grid(-20.0, 20.0, levels)
    return build_payoff_tensor(GameInstance(
        ChannelMatrix.from_array(gains), (grid, grid), 0.01, 1.0, 100
    ))


def random_problems(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield shifted_box_lp(*random_bounded_lp(rng))


def small_ce_game():
    tensor = PayoffTensor((3, 3), random_tensor(np.random.default_rng(3), (3, 3)).copy())
    return tensor, build_ce_constraints(tensor)


def count_cold_solves(monkeypatch) -> list:
    """A list that grows by one on every cold two-phase solve."""
    calls = []
    cold = simplex._solve_cold

    def counted(*args):
        calls.append(1)
        return cold(*args)

    monkeypatch.setattr(simplex, "_solve_cold", counted)
    return calls


class TestRestart:
    def test_optimal_basis_restarts_with_no_pivots(self):
        problems = list(random_problems(11, 40)) + [small_ce_game()[1]]
        restarted = 0
        for k, prob in enumerate(problems):
            cold = solve_lp(prob)
            if cold.status != "optimal":
                assert cold.resident is None
                continue
            warm = solve_lp(prob, start=cold.resident)
            assert warm.status == "optimal", f"LP {k}"
            assert warm.iterations == 0, f"LP {k}"
            assert warm.objective_value == cold.objective_value, f"LP {k}"
            assert np.array_equal(warm.x, cold.x), f"LP {k}"
            restarted += 1
        assert restarted >= 20

    def test_new_cut_is_repaired(self):
        # max x0 + 2 x1 over x0 + x1 <= 1, then cut x1 <= 0.25: one dual pivot
        base = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0)])
        first = solve_lp(base)
        cut = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0), ([0.0, -1.0], -0.25)])
        warm = solve_lp(cut, start=first.resident)
        cold = solve_lp(cut)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)
        assert warm.objective_value == pytest.approx(1.25, abs=1e-12)
        assert warm.iterations == 1

    def test_cuts_and_new_objective_match_cold(self, monkeypatch):
        # CE masters grown a few rows at a time, each round under a new
        # objective: every round after the first continues from the last
        cold_solves = count_cold_solves(monkeypatch)
        rng = np.random.default_rng(23)
        for g in range(10):
            m = int(rng.integers(2, 5))
            tensor = PayoffTensor((m, m), random_tensor(rng, (m, m)).copy())
            full = unit_max_rows(build_ce_constraints(tensor))
            start, rows = None, 0
            while rows < full.ineq_coeffs.shape[0]:
                rows += int(rng.integers(1, 4))
                prob = replace(first_rows(full, rows), objective=rng.normal(size=full.n))
                before = len(cold_solves)
                warm = solve_lp(prob, start=start)
                assert len(cold_solves) == before + (start is None), f"game {g}, {rows} rows"
                cold = solve_lp(prob)
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
                start = warm.resident

    def test_stalled_attempt_falls_back(self, monkeypatch):
        base, cut = one_cut()
        start = solve_lp(base).resident
        cold = solve_lp(cut)
        fail_first_certification(monkeypatch)  # the warm attempt's, after its pivot
        warm = solve_lp(cut, start=start)
        assert np.array_equal(warm.x, cold.x)
        assert warm.iterations == cold.iterations + 1  # the abandoned pivot counts

    def test_pivot_cap_follows_the_grown_tableau(self, monkeypatch):
        base, _ = one_cut()
        monkeypatch.setattr(simplex, "PIVOT_CAP_FACTOR", 3)

        def grown(pivots_spent):
            tab = solve_lp(base).resident._tab
            size = tab.N + tab.m
            # the cut adds a row and its surplus column
            tab.extend(np.array([[0.0, -1.0]]), np.array([-0.25]), base.objective)
            assert tab.N + tab.m == size + 2
            tab.iters = pivots_spent(size)
            return tab, size

        # at the cap of the tableau before extend, the pivot is still allowed
        tab, _ = grown(lambda size: 3 * size)
        assert tab.dual_simplex(simplex.FEAS_TOL)
        tab, size = grown(lambda size: 3 * (size + 2))
        with pytest.raises(simplex.SolverStallError, match=f"exceeded {3 * (size + 2)} pivots"):
            tab.dual_simplex(simplex.FEAS_TOL)

    def test_abandoned_start_logged_at_debug_only(self, caplog, monkeypatch):
        base, cut = one_cut()
        solutions = []
        for level in ("WARNING", "DEBUG"):
            caplog.clear()
            caplog.set_level(getattr(logging, level), logger="powergames")
            start = solve_lp(base).resident
            with monkeypatch.context() as patch:
                fail_first_certification(patch)
                solutions.append(solve_lp(cut, start=start))
            solve_lp(cut, start=start)  # a start is used once: now it does not fit
            messages = [r.getMessage() for r in caplog.records]
            if level == "WARNING":
                assert messages == []
        assert messages == [
            "warm start abandoned after 1 pivots: optimal point failed inequality certification",
            "warm start abandoned: it does not fit the problem"]
        quiet, verbose = solutions
        assert np.array_equal(quiet.x, verbose.x) and quiet.iterations == verbose.iterations


def one_cut():
    """max x0 + 2 x1 over x0 + x1 <= 1, and the same with the cut x1 <= 0.25,
    which a warm start repairs in one dual pivot."""
    base = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0)])
    cut = make_problem([1.0, 2.0], ineq_rows=[([-1.0, -1.0], -1.0), ([0.0, -1.0], -0.25)])
    return base, cut


def fail_first_certification(monkeypatch):
    """The next certification fails, as a warm attempt's point can; the
    ones after it run as usual."""
    certify = simplex._certify
    calls = []

    def once(*args):
        calls.append(1)
        if len(calls) == 1:
            raise simplex.SolverStallError("optimal point failed inequality certification")
        return certify(*args)

    monkeypatch.setattr(simplex, "_certify", once)


def changed_n(prob):
    pad = np.zeros((prob.ineq_coeffs.shape[0], 1))
    return make_problem(np.append(prob.objective, 0.0),
                        [(r, b) for r, b in zip(np.hstack([prob.ineq_coeffs, pad]), prob.ineq_rhs)],
                        [(np.append(r, 1.0), b) for r, b in zip(prob.eq_coeffs, prob.eq_rhs)])


def changed_eq_rows(prob):
    eq = prob.eq_coeffs.copy()
    eq[0, 0] = 2.0
    return replace(prob, eq_coeffs=eq)


def changed_prefix_row(prob):
    a = prob.ineq_coeffs.copy()
    a[0, 0] += 0.5
    return replace(prob, ineq_coeffs=a)


def changed_prefix_rhs(prob):
    b = prob.ineq_rhs.copy()
    b[1] = -0.01
    return replace(prob, ineq_rhs=b)


def dropped_first_row(prob):
    return replace(prob, ineq_coeffs=prob.ineq_coeffs[1:], ineq_rhs=prob.ineq_rhs[1:])


def dropped_last_row(prob):
    return first_rows(prob, BASE_ROWS - 1)


BASE_ROWS = 6


class TestStartThatDoesNotFit:
    def assert_cold(self, prob, start):
        cold = solve_lp(prob)
        warm = solve_lp(prob, start=start)
        assert warm.status == cold.status
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.x, cold.x)
        assert start.take(prob) is None  # a start is used once

    @pytest.mark.parametrize("change", [changed_n, changed_eq_rows,
                                        changed_prefix_row, changed_prefix_rhs,
                                        dropped_first_row, dropped_last_row])
    def test_ignored(self, change):
        _, full = small_ce_game()
        base = first_rows(full, BASE_ROWS)
        self.assert_cold(change(full), solve_lp(base).resident)

    def test_used_start(self):
        _, prob = small_ce_game()
        start = solve_lp(prob).resident
        solve_lp(prob, start=start)
        self.assert_cold(prob, start)

    def test_singular_basis(self, monkeypatch):
        # columns 0 and 1 are equal, so a basis holding both is singular
        prob = make_problem([1.0, 1.0, 0.5],
                            ineq_rows=[([-1.0, -1.0, -1.0], -2.0), ([-2.0, -2.0, -1.0], -3.0)])
        start = solve_lp(prob).resident
        tab = start._tab
        tab.basis[:] = [0, 1]
        # the start appends no rows; its refactorization finds the singular
        # kernel before any pivot or certification
        stalls = []
        refactor = simplex._Tableau.refactor

        def recording(self):
            try:
                return refactor(self)
            except simplex.SolverStallError as exc:
                stalls.append(str(exc))
                raise

        monkeypatch.setattr(simplex._Tableau, "refactor", recording)
        self.assert_cold(prob, start)
        assert stalls == ["singular basis: its kernel is singular"]


class TestOpening:
    """``Resident.at`` on the best column of each probability simplex: the
    resident that a cold solve of the master with no cut leaves, without its
    pivots."""

    @pytest.mark.parametrize("blocks", [1, 5, simplex.UPDATE_MIN_KERNEL,
                                        2 * simplex.UPDATE_MIN_KERNEL + 3])
    def test_opened_resident_is_the_cold_one(self, blocks):
        rng = np.random.default_rng(2900 + blocks)
        for trial in range(4):
            width = int(rng.integers(2, 6))
            n = blocks * width
            # a few distinct values: columns tie inside a block and across blocks
            c = rng.integers(-2, 3, size=n).astype(float)
            master = simplex.LpProblem(n, c, np.zeros((0, n)), np.zeros(0),
                                       np.repeat(np.eye(blocks), width, axis=1), np.ones(blocks))
            cold = solve_lp(master)
            assert cold.iterations == blocks, f"trial {trial}"
            best = np.arange(blocks) * width + c.reshape(blocks, width).argmax(axis=1)
            opened = simplex.Resident.at(master, best)
            tab, ref = opened._tab, cold.resident._tab
            assert np.array_equal(tab.basis, ref.basis), f"trial {trial}"
            point = np.zeros(tab.N)
            point[tab.basis] = np.maximum(tab.xb, 0.0)
            assert same_bytes(point[:n], cold.x), f"trial {trial}"
            # the same factors, slot for slot
            k = tab._k
            assert (k, tab._updates) == (ref._k, ref._updates), f"trial {trial}"
            assert np.array_equal(tab._kpos[:k], ref._kpos[:k])
            assert np.array_equal(tab._free[:k], ref._free[:k])
            assert same_bytes(tab._Kinv[:k, :k], ref._Kinv[:k, :k])
            # so cuts added to either take the same pivots to the same point
            rows = rng.normal(size=(3, n))
            cut = replace(master, ineq_coeffs=rows, ineq_rhs=rows @ np.full(n, 1.0 / width) - 0.1)
            warm, again = solve_lp(cut, start=opened), solve_lp(cut, start=cold.resident)
            assert warm.iterations == again.iterations, f"trial {trial}"
            assert same_bytes(warm.x, again.x), f"trial {trial}"


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

    def test_rounds_continue_warm(self, monkeypatch):
        # no round of a master is a cold solve, across objectives too: the
        # first opens at the best-column basis its cuts are added to
        tensor = paper_game([[2.33556, 0.67444], [3.0, 1.33889]], levels=10)
        solver = CePolytopeSolver.for_tensor(tensor)
        cold_solves = count_cold_solves(monkeypatch)
        rounds = []
        real = simplex.solve_lp

        def counted(*args, **kwargs):
            rounds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(correlated, "solve_lp", counted)
        for w in ([1.0, 1.0], [1.0, -0.5], [-0.3, 1.0]):
            solver.maximize(w[0] * tensor.flat(0) + w[1] * tensor.flat(1))
        assert len(rounds) > 3 and len(cold_solves) == 0

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
