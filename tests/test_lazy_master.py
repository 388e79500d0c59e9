"""The CE and canonical masters pay for the dominance reduction and for an LP
only when the answer needs them: a best point that no cut removes is
returned before any reduction, and a new objective that prices no column out
of the resident basis is answered from it. Checked against dense LPs over
every column (``oracles.build_ce_constraints`` and the auxiliary canonical LP
of ``test_communication``)."""
import logging
import math

import numpy as np
import pytest

from powergames import cli, communication, correlated, simplex
from powergames.communication import GameFamily, build_type_space, per_type_tensors, solve_commeq
from powergames.correlated import CePolytopeSolver, solve_directional_ce, solve_welfare_ce
from powergames.model import PayoffTensor, grid_from_levels
from powergames.simplex import make_problem, solve_lp

from oracles import build_ce_constraints, random_bounded_lp, shifted_box_lp
from test_communication import DEFINITION_PARAMS, family, reference_commeq_lp
from test_dominance import graded_values
from test_warm_start import paper_game

# a dominance-solvable game: action 1 is dominant for both players, and the
# welfare-best profile (1, 1) is its equilibrium
DOMINANT = np.array([[[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
# a coordination game: nothing is dominated, and both diagonal profiles are pure NE
COORDINATION = np.array([[[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]]])
# the 25-level game of the channel [[1, 0.5], [0.5, 1]]: its welfare-best
# profile is cut, and 100 of its 625 profiles survive
CUT_GAINS = [[1.0, 0.5], [0.5, 1.0]]


def count_calls(monkeypatch, module, name) -> list:
    """A list that grows by one on every call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(module, name, forbidden)


def dominant_family():
    # a huge power cost makes the lowest level dominant at every type
    return GameFamily((grid_from_levels((1.0, 3.0)),) * 2, alpha=2.0, noise=1.0, packet_len=10)


def canonical_reference(space, tensors) -> float:
    """The canonical family's welfare optimum from the auxiliary LP over every
    column, its free z_a written as z+ - z-."""
    objective, rows, eq_rows = reference_commeq_lp(space, tensors, "canonical")
    n_x = space.joint_count * tensors[0].profile_count

    def split(a):
        return np.concatenate([a, -a[..., n_x:]], axis=-1)

    reference = solve_lp(make_problem(split(objective), ineq_rows=[(r, 0.0) for r in split(rows)],
                                      eq_rows=[(r, 1.0) for r in split(eq_rows)]))
    assert reference.status == "optimal"
    return reference.objective_value


class TestLazyReduction:
    def test_uncut_best_point_needs_no_reduction(self, monkeypatch):
        forbid(monkeypatch, correlated, "dominance_support")
        forbid(monkeypatch, communication, "dominance_support")
        forbid(monkeypatch, correlated, "solve_lp")
        for values, welfare in ((DOMINANT, 2.0), (COORDINATION, 4.0)):
            rep = solve_welfare_ce(PayoffTensor((2, 2), values))
            assert rep.solver_iterations == 0 and rep.welfare == welfare
        # a 25-level game of weak interference, whose welfare-best profile is a CE
        rep = solve_welfare_ce(paper_game([[3.0, 0.01], [0.01, 3.0]]))
        assert rep.solver_iterations == 0 and rep.max_violation <= 1e-8
        res = solve_commeq(build_type_space([0.5, 2.5], players=2), dominant_family(),
                           "canonical")
        assert res.solver_iterations == 0
        assert (res.device.conditionals[:, 0] == 1.0).all()

    def test_cut_master_reduces_once(self, monkeypatch):
        reductions = count_calls(monkeypatch, correlated, "dominance_support")
        tensor = paper_game(CUT_GAINS)
        rep = solve_welfare_ce(tensor)
        assert rep.solver_iterations > 0 and len(reductions) == 1
        # one master across every direction of a region
        del reductions[:]
        solver = CePolytopeSolver.for_tensor(tensor)
        for k in range(16):
            theta = 2.0 * math.pi * k / 16
            solve_directional_ce(tensor, (math.cos(theta), math.sin(theta)), solver=solver)
        assert len(reductions) == 1
        reductions = count_calls(monkeypatch, communication, "dominance_support")
        types, mode, players, prior, levels = DEFINITION_PARAMS[0]
        space = build_type_space(types, players=players, mode=mode, prior=prior)
        res = solve_commeq(space, family(levels=levels, players=players), "canonical")
        assert res.solver_iterations > 0 and len(reductions) == 1

    def test_cut_point_is_not_separated_twice(self, monkeypatch):
        # every column of the coordination game survives, so the best point
        # over them is the cut full-width point: the LP follows at once
        tensor = PayoffTensor((2, 2), COORDINATION)
        solver = CePolytopeSolver.for_tensor(tensor)
        events = []
        separate, problem = solver.separate, correlated.LpProblem

        def separated(x):
            events.append("separate")
            return separate(x)

        def made(*args, **kwargs):
            events.append("lp")
            return problem(*args, **kwargs)

        solver.separate = separated
        monkeypatch.setattr(correlated, "LpProblem", made)
        _, _, pivots = solver.maximize(-tensor.welfare_flat())
        assert pivots > 0 and events[:2] == ["separate", "lp"]

    def test_random_games_match_dense_lp(self, monkeypatch):
        reductions = count_calls(monkeypatch, correlated, "dominance_support")
        rng = np.random.default_rng(2301)
        skipped = reduced = 0
        for n in range(40):
            dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            # uniform payoffs seldom have a dominated action; graded ones often do
            values = graded_values(rng, dims) if n % 2 else rng.uniform(-1, 1, (2,) + dims)
            tensor = PayoffTensor(dims, values)
            before = len(reductions)
            rep = solve_welfare_ce(tensor)
            dense = solve_lp(build_ce_constraints(tensor))
            assert abs(rep.welfare - dense.objective_value) <= 1e-9, f"game {n}"
            assert rep.max_violation <= 1e-8
            skipped += len(reductions) == before
            w = rng.normal(size=2)
            before = len(reductions)
            rep = solve_directional_ce(tensor, w)
            dense = solve_lp(build_ce_constraints(tensor, w[0] * tensor.flat(0)
                                                  + w[1] * tensor.flat(1)))
            assert abs(float(w @ rep.per_player_value) - dense.objective_value) <= 1e-9, \
                f"game {n} direction"
            reduced += len(reductions) > before
        assert skipped >= 5 and reduced >= 5

    def test_canonical_cases_match_dense_lp(self, monkeypatch):
        reductions = count_calls(monkeypatch, communication, "dominance_support")
        cases = [(build_type_space(types, players=players, mode=mode, prior=prior),
                  family(levels=levels, players=players))
                 for types, mode, players, prior, levels in DEFINITION_PARAMS]
        # dominated actions at every type, and one dominance-solvable family
        cases += [(build_type_space([0.3, 1.0, 2.5], players=2),
                   family(levels=(0.5, 2.0, 5.0, 12.0), alpha=alpha, packet_len=packet_len))
                  for alpha, packet_len in ((0.01, 100), (0.1, 100))]
        cases.append((build_type_space([0.5, 2.5], players=2), dominant_family()))
        for k, (space, fam) in enumerate(cases):
            tensors = per_type_tensors(space, fam)
            before = len(reductions)
            res = solve_commeq(space, fam, "canonical", tensors=tensors)
            assert abs(res.welfare - canonical_reference(space, tensors)) <= 1e-9, f"case {k}"
            assert res.max_violation <= 1e-8
            assert len(reductions) - before == (res.solver_iterations > 0), f"case {k}"


class TestRepricing:
    def test_resident_answers_without_being_taken(self):
        rng = np.random.default_rng(2302)
        answered = priced_out = 0
        for k in range(60):
            prob = shifted_box_lp(*random_bounded_lp(rng))
            cold = solve_lp(prob)
            if cold.status != "optimal":
                continue
            c = prob.objective * rng.uniform(0.2, 1.0) if k % 2 else rng.normal(size=prob.n)
            if cold.resident.optimal_under(c):
                answered += 1
                new = simplex.LpProblem(prob.n, c, prob.ineq_coeffs, prob.ineq_rhs,
                                        prob.eq_coeffs, prob.eq_rhs)
                warm = solve_lp(new, start=cold.resident)
                assert warm.iterations == 0 and np.array_equal(warm.x, cold.x), f"LP {k}"
            else:
                priced_out += 1
                # asking did not use the start up
                warm = solve_lp(prob, start=cold.resident)
                assert warm.iterations == 0 and np.array_equal(warm.x, cold.x), f"LP {k}"
        assert answered >= 10 and priced_out >= 10

    def test_direction_in_the_optimality_cone_builds_no_lp(self, monkeypatch):
        tensor = paper_game(CUT_GAINS, levels=12)
        solver = CePolytopeSolver.for_tensor(tensor)
        objective = 0.8 * tensor.flat(0) + 0.6 * tensor.flat(1)
        x, value, iters = solver.maximize(objective)
        assert iters > 0
        problems = count_calls(monkeypatch, correlated, "LpProblem")
        # scaling the objective down scales every reduced cost down
        again, half, pivots = solver.maximize(0.5 * objective)
        assert problems == [] and pivots == 0
        assert np.array_equal(again, x) and half == pytest.approx(0.5 * value, rel=1e-12)
        # the opposite direction prices columns out, and the LP runs
        rep = solve_directional_ce(tensor, (-0.8, -0.6), solver=solver)
        assert len(problems) == 1 and rep.solver_iterations > 0

    @pytest.mark.parametrize("gains, levels", [
        ([[2.98931, 1.92230], [1.26254, 1.68242]], 8),
        ([[1.0, 0.5], [0.5, 1.0]], 12),
        ([[0.4, 2.1], [1.7, 0.9]], 10),
    ])
    def test_region_directions_match_dense_lp(self, monkeypatch, gains, levels):
        tensor = paper_game(gains, levels=levels)
        solver = CePolytopeSolver.for_tensor(tensor)
        problems = count_calls(monkeypatch, correlated, "LpProblem")
        directions = 64
        for k in range(directions):
            theta = 2.0 * math.pi * k / directions
            w = np.array([math.cos(theta), math.sin(theta)])
            rep = solve_directional_ce(tensor, w, solver=solver)
            dense = solve_lp(build_ce_constraints(tensor, w[0] * tensor.flat(0)
                                                  + w[1] * tensor.flat(1)))
            assert abs(float(w @ rep.per_player_value) - dense.objective_value) <= 1e-9, \
                f"direction {k}"
        # some directions were answered by the resident basis alone
        assert 0 < len(problems) < directions - 8


class TestLogging:
    def test_skips_logged_at_debug_only(self, tmp_path, caplog, monkeypatch):
        dominant = tmp_path / "dominant.json"
        dominant.write_text('{"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}, '
                            '"power": {"levels": 3}, "alpha": 2.0}')
        region = tmp_path / "region.json"
        region.write_text('{"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}, '
                          '"power": {"levels": 12}}')
        runs = [(dominant, ["ce", "--welfare"]), (region, ["region", "--directions", "32"])]
        for cfg, command in runs:
            outputs, messages = [], []
            for level in ("WARNING", "DEBUG"):
                monkeypatch.setenv("POWERGAMES_LOG", level)
                caplog.clear()
                caplog.set_level(getattr(logging, level), logger="powergames")
                out = tmp_path / f"{cfg.stem}-{level}"
                args = ["--out-dir", str(out)] if command[0] == "region" else \
                    ["--out", str(out)]
                assert cli.main(["-c", str(cfg), *command, *args]) == 0
                outputs.append(sorted(p.read_bytes() for p in out.iterdir())
                               if out.is_dir() else [out.read_bytes()])
                messages = [r.getMessage() for r in caplog.records]
                if level == "WARNING":
                    assert messages == []
            assert outputs[0] == outputs[1]
            assert not any(b"master:" in o for o in outputs[1])
            if command[0] == "ce":
                assert "master: best point uncut; dominance reduction skipped" in messages
                assert not any(m.startswith("dominance:") for m in messages)
            else:
                assert "master: no column prices out of the resident basis; " \
                       "last point kept, no LP built" in messages
