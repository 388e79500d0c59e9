"""Iterated strict dominance by a pure action (``correlated.surviving_actions``)
and the CE master over the surviving columns only, checked against the
brute-force loops of ``oracles.reference_survivors`` and dense LPs over every
column."""
import logging

import numpy as np
import pytest

from powergames import cli, correlated
from powergames.communication import GameFamily, build_type_space, solve_commeq
from powergames.correlated import (
    dominance_support,
    solve_directional_ce,
    solve_welfare_ce,
    surviving_actions,
)
from powergames.model import PayoffTensor, grid_from_levels
from powergames.simplex import solve_lp

from oracles import build_ce_constraints, reference_survivors


def one_type(k):
    return np.ones((1,) * k)


def as_lists(alive):
    return [[own.tolist() for own in per_type] for per_type in alive]


def graded_values(rng, dims):
    """Uniform payoffs plus a random slope in each player's own action, so
    that some actions are dominated and removing them exposes more."""
    k = len(dims)
    values = rng.uniform(-1.0, 1.0, size=(k,) + tuple(dims))
    for i in range(k):
        shape = [1] * k
        shape[i] = dims[i]
        values[i] += rng.uniform(-1.5, 1.5) * np.arange(dims[i]).reshape(shape)
    return values


class TestSurvivors:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (5, 5), (3, 3, 2)])
    def test_matches_loops_on_random_games(self, dims):
        rng = np.random.default_rng(sum(dims))
        reduced = 0
        for n in range(40):
            # small integer payoffs make ties common, and a tie is not strict
            # dominance; graded payoffs make elimination run several rounds
            if n % 2:
                values = rng.integers(0, 4, size=(len(dims),) + dims).astype(float)
            else:
                values = graded_values(rng, dims)
            alive = as_lists(surviving_actions([PayoffTensor(dims, values)], one_type(len(dims))))
            assert alive == reference_survivors([values], one_type(len(dims))), f"game {n}"
            reduced += sum(len(own) for per_type in alive for own in per_type) < sum(dims)
        assert reduced >= 10

    @pytest.mark.parametrize("type_dims, dims", [((2, 2), (3, 3)), ((3, 2), (3, 4)),
                                                 ((2, 2, 2), (2, 3, 2))])
    def test_matches_loops_on_random_type_spaces(self, type_dims, dims):
        rng = np.random.default_rng(len(type_dims) * 10 + dims[1])
        k = len(type_dims)
        reduced = 0
        for n in range(20):
            # some joint types get no prior, none of the players' types does
            prior = rng.uniform(0.1, 1.0, type_dims) * (rng.random(type_dims) < 0.75)
            for i in range(k):
                if (np.moveaxis(prior, i, 0).reshape(type_dims[i], -1).sum(axis=1) == 0).any():
                    prior = np.ones(type_dims)
            prior /= prior.sum()
            values = [graded_values(rng, dims) if n % 2 else
                      rng.integers(0, 3, size=(k,) + dims).astype(float)
                      for _ in range(prior.size)]
            alive = as_lists(surviving_actions([PayoffTensor(dims, v) for v in values], prior))
            assert alive == reference_survivors(values, prior), f"case {n}"
            reduced += any(len(own) < dims[i] for i in range(k) for own in alive[i])
        assert reduced >= 5

    def test_a_tie_is_not_dominance(self):
        # player 0's action 1 pays more than action 0 except at one tie
        values = np.array([[[0.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
        assert as_lists(surviving_actions([PayoffTensor((2, 2), values.copy())],
                                          one_type(2))) == [[[0, 1]], [[0, 1]]]
        values[0, 1, 1] = np.nextafter(1.0, 2.0)
        assert as_lists(surviving_actions([PayoffTensor((2, 2), values)], one_type(2))) == \
            [[[1]], [[0, 1]]]

    def test_zero_prior_joint_type_keeps_every_profile(self):
        # the higher action dominates at every type; joint type (0, 1) has no
        # prior, so no honest player's obedience binds its conditional
        prior = np.array([[0.5, 0.0], [0.2, 0.3]])
        values = np.zeros((2, 2, 2))
        values[0, 1, :] = values[1, :, 1] = 1.0
        tensors = [PayoffTensor((2, 2), values.copy()) for _ in range(4)]
        support = dominance_support(tensors, prior)
        assert support.tolist() == [3, 4, 5, 6, 7, 11, 15]


class TestReducedMasters:
    def test_welfare_and_directions_match_dense_lp(self):
        rng = np.random.default_rng(2024)
        reduced = 0
        for n in range(30):
            dims = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            tensor = PayoffTensor(dims, graded_values(rng, dims))
            reduced += dominance_support([tensor], one_type(2)).size < tensor.profile_count
            rep = solve_welfare_ce(tensor)
            dense = solve_lp(build_ce_constraints(tensor))
            assert abs(rep.welfare - dense.objective_value) <= 1e-9, f"game {n}"
            assert rep.max_violation <= 1e-8
            w = rng.normal(size=2)
            rep = solve_directional_ce(tensor, w)
            dense = solve_lp(build_ce_constraints(tensor, w[0] * tensor.flat(0)
                                                  + w[1] * tensor.flat(1)))
            assert abs(float(w @ rep.per_player_value) - dense.objective_value) <= 1e-9
        assert reduced >= 15

    def test_single_surviving_profile_builds_no_lp(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(correlated, "solve_lp", forbidden)
        values = np.array([[[0.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
        tensor = PayoffTensor((2, 2), values)
        rep = solve_welfare_ce(tensor)
        assert rep.solver_iterations == 0
        assert rep.distribution.probs.tolist() == [0.0, 0.0, 0.0, 1.0]
        # a huge power cost makes the lowest level dominant at every type
        fam = GameFamily((grid_from_levels((1.0, 3.0)),) * 2, alpha=2.0, noise=1.0,
                         packet_len=10)
        res = solve_commeq(build_type_space([0.5, 2.5], players=2), fam, "canonical")
        assert res.solver_iterations == 0
        assert (res.device.conditionals[:, 0] == 1.0).all()

    def test_master_cut_nowhere_builds_no_lp(self, monkeypatch):
        # a coordination game: no action is dominated, and the welfare-best
        # profile of the uncut master is a pure NE, so no obedience row cuts
        # it off
        def forbidden(*args, **kwargs):
            raise AssertionError("an LP was solved")

        values = np.array([[[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]]])
        tensor = PayoffTensor((2, 2), values)
        assert dominance_support([tensor], one_type(2)).size == 4
        monkeypatch.setattr(correlated, "solve_lp", forbidden)
        rep = solve_welfare_ce(tensor)
        assert rep.solver_iterations == 0 and rep.welfare == 4.0
        # toward the other pure NE's payoffs the welfare-best profile is no CE
        monkeypatch.undo()
        rep = solve_directional_ce(tensor, (-1.0, -1.0))
        assert rep.solver_iterations > 0 and rep.max_violation <= 1e-8

    def test_survivors_logged_at_debug_only(self, tmp_path, caplog, monkeypatch):
        cfg = tmp_path / "ce.json"
        cfg.write_text('{"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}, '
                       '"power": {"min_db": -20.0, "max_db": 20.0, "levels": 25}}')
        outputs, messages = [], []
        for level in ("WARNING", "DEBUG"):
            monkeypatch.setenv("POWERGAMES_LOG", level)
            caplog.clear()
            caplog.set_level(getattr(logging, level), logger="powergames")
            out = tmp_path / f"{level}.json"
            assert cli.main(["-c", str(cfg), "ce", "--welfare", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
            messages = [r.getMessage() for r in caplog.records]
            if level == "WARNING":
                assert messages == []
        assert outputs[0] == outputs[1]
        assert b"dominance" not in outputs[1]
        assert "dominance: master keeps 100 of 625 columns" in messages
        assert sum(m.startswith("dominance: player 0 type 0 keeps 10 of 25 actions [")
                   for m in messages) == 1
