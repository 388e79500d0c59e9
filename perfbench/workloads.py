"""The benchmark's workloads: inputs from a seed, operations, checks.

A workload is a list of operations; one round runs each once, in order.
Every operation calls powergames through its module attributes (so the
traced run's wrappers see the calls) and returns the program's answer,
which its ``encode`` turns into bytes for the output digest and its
``check`` verifies with the independent code in ``checks``.

Why each workload is shaped as it is, and how far each is scaled down
from the paper, is written in README.md next to this file.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from powergames import correlated, experiments, model, nash, regret
from powergames.config import load_config

PAPER_CONFIG = "configs/paper_setup.json"

# Channel sweep. Indices into paper_setup.json's seeded 200-state sample,
# classified by the simplex pivots their welfare CE took when this benchmark
# was written. HEAD_POOL: the 103 states whose welfare CE took one pivot
# (about 10 ms each, most of it the tensor build and the final verification);
# each round draws HEAD_PER_ROUND of them from the seed. Nine more states
# took 2 or 3 pivots and are left out so that every draw costs the same.
HEAD_POOL = (
    1, 2, 10, 11, 12, 15, 16, 18, 19, 21, 23, 26, 27, 28, 29, 31, 32, 33, 34, 35,
    39, 41, 42, 43, 48, 52, 53, 58, 61, 62, 63, 64, 65, 67, 73, 74, 77, 78, 79, 81,
    83, 86, 88, 89, 92, 93, 94, 98, 99, 101, 102, 104, 106, 107, 109, 110, 112, 115,
    117, 118, 119, 124, 125, 126, 127, 129, 132, 133, 135, 136, 139, 141, 142, 143,
    144, 146, 147, 149, 150, 153, 154, 155, 157, 158, 159, 160, 161, 162, 164, 166,
    167, 168, 169, 170, 171, 176, 178, 184, 185, 191, 197, 198, 199,
)
HEAD_PER_ROUND = 30
# TAIL: every state that took 4 to 700 pivots (row generation, 8 ms to
# 0.5 s), plus state 6, which fails every time with "optimal point failed
# equality certification" and is kept as the one known failed operation.
# The other 70 states (over 700 pivots and 0.8 to 22 s each, or failing
# after 7 to 8 s like states 56 and 134) do not fit a round.
TAIL = (4, 6, 17, 49, 51, 57, 68, 96, 103, 105, 128, 138, 145, 152, 163, 165, 173, 192)

# Payoff region: the 64-direction CE payoff region of sample state 9's
# channel at 12 levels (a 13-vertex polygon).
REGION_STATE = 9
REGION_LEVELS = 12
REGION_DIRECTIONS = 64

# Action sweep: Fig-2a rows, plus the literal communication LP at the
# configured 25 levels.
ACTION_LEVELS = (2, 3, 4, 6, 8, 10)

# Regret matching: the conditional rule on the 25-level game at seeded channels.
REGRET_GAMES = 4
REGRET_STEPS = 25_000


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` calls the program; ``encode`` turns its answer
    into digest bytes; ``check`` verifies it, drawing samples from a
    seeded generator."""

    key: str
    run: Callable[[], object]
    about: str                                   # inputs named in failure reports
    encode: Callable[[object], bytes]
    check: Callable[[object, np.random.Generator], None]


def _floats(*values) -> bytes:
    return repr([float(v) for v in values]).encode()


def _check_payoffs(game, values, rng):
    checks.check_payoff_samples(values, [g.values_linear for g in game.grids], game.channel.g,
                                game.alpha, game.noise, game.packet_len, rng)


# ------------------------------------------------------------- channel sweep

def _sweep_state(game):
    tensor = model.build_payoff_tensor(game)
    profiles = nash.enumerate_pure_nash(tensor)
    report = correlated.solve_welfare_ce(tensor)
    return tensor, profiles, report


def _encode_sweep_state(out) -> bytes:
    tensor, profiles, rep = out
    return (tensor.values.tobytes() + repr(profiles).encode()
            + rep.distribution.probs.tobytes() + _floats(rep.welfare, *rep.per_player_value))


def _check_sweep_state(game, out, rng):
    tensor, profiles, rep = out
    _check_payoffs(game, tensor.values, rng)
    checks.check_pure_nash(tensor.values, profiles)
    checks.check_welfare_ce(tensor.values, rep.distribution.probs,
                            rep.per_player_value, rep.welfare)


def sweep_ops(cfg, states, seed: int) -> list[Op]:
    head = np.random.default_rng(seed).choice(HEAD_POOL, size=HEAD_PER_ROUND, replace=False)
    ops = []
    for idx in sorted(set(TAIL) | {int(h) for h in head}):
        game = experiments.game_from_config(cfg, states[idx])
        ops.append(Op(f"state-{idx}", functools.partial(_sweep_state, game),
                      f"state {idx}, gains {[list(row) for row in states[idx]]}",
                      _encode_sweep_state, functools.partial(_check_sweep_state, game)))
    return ops


# ------------------------------------------------------------ payoff region

def _region(game):
    tensor = model.build_payoff_tensor(game)
    return tensor, correlated.ce_payoff_region(tensor, REGION_DIRECTIONS)


def _encode_region(out) -> bytes:
    tensor, polygon = out
    return tensor.values.tobytes() + _floats(*(c for v in polygon for c in v))


def _check_region(game, out, rng):
    tensor, polygon = out
    _check_payoffs(game, tensor.values, rng)
    checks.check_region(tensor.values, polygon, REGION_DIRECTIONS)


def region_op(cfg, states) -> Op:
    gains = states[REGION_STATE]
    grid = model.build_power_grid(cfg.power.min_db, cfg.power.max_db, REGION_LEVELS)
    game = model.GameInstance(model.ChannelMatrix.from_array(gains), (grid, grid),
                              cfg.alpha, cfg.noise, cfg.packet_len)
    return Op(f"region-{REGION_STATE}", functools.partial(_region, game),
              f"state {REGION_STATE}, gains {[list(r) for r in gains]}",
              _encode_region, functools.partial(_check_region, game))


# -------------------------------------------------------------- action sweep

def _action_row(cfg):
    return experiments.run_action_sweep(cfg)["rows"][0]


def _literal(cfg):
    return experiments.run_commeq(cfg, "literal")


def _type_lists(cfg):
    """Diagonal type space: type n of a player sees the n-th grid gain on
    every incoming link."""
    values = np.linspace(cfg.types.min, cfg.types.max, cfg.types.points)
    return [[(float(v),) * cfg.players for v in values] for _ in range(cfg.players)]


def _device_keys(types) -> list[str]:
    return ["|".join("(" + ",".join(f"{g:.6f}" for g in types[i][t]) + ")"
                     for i, t in enumerate(joint))
            for joint in np.ndindex(*[len(t) for t in types])]


def _encode_json(out) -> bytes:
    return json.dumps(out, sort_keys=True).encode()


def _encode_device(out) -> bytes:
    return json.dumps(out["device"], sort_keys=True).encode() + _floats(out["welfare"])


def _check_action_row(game, out, rng):
    checks.check_action_row(game, out)


def _check_device(game, keys, out, rng):
    if list(out["device"]) != keys:
        raise checks.CheckError(f"device keys {list(out['device'])} are not the joint types")
    checks.check_literal_device(game, list(out["device"].values()), out["welfare"])


def action_ops(cfg) -> list[Op]:
    types = _type_lists(cfg)
    prior = np.full([len(t) for t in types], 1.0 / np.prod([len(t) for t in types]))

    def comm_game(grids):
        return checks.CommGame([g.values_linear for g in grids], types, prior,
                               cfg.alpha, cfg.noise, cfg.packet_len)

    ops = []
    for m in ACTION_LEVELS:
        cfg_m = dataclasses.replace(
            cfg, sweep=dataclasses.replace(cfg.sweep, action_levels=(m,)))
        game = comm_game(experiments.power_grids(cfg, levels=m, nested=cfg.sweep.nested_grids))
        ops.append(Op(f"actions-{m}", functools.partial(_action_row, cfg_m), f"M={m}",
                      _encode_json, functools.partial(_check_action_row, game)))
    game = comm_game(experiments.power_grids(cfg))
    ops.append(Op("literal-25", functools.partial(_literal, cfg),
                  f"literal communication LP, {cfg.power.levels} levels", _encode_device,
                  functools.partial(_check_device, game, _device_keys(types))))
    return ops


# ----------------------------------------------------------- regret matching

def _regret_run(game, rm_seed):
    tensor = model.build_payoff_tensor(game)
    return tensor, regret.rm_run(tensor, steps=REGRET_STEPS, seed=rm_seed, rule="conditional")


def _encode_regret(out) -> bytes:
    _, res = out
    return (b"".join(d.tobytes() for d in res.state.diffs) + res.state.counts.tobytes()
            + repr(res.trace).encode())


def _check_regret(game, out, rng):
    tensor, res = out
    _check_payoffs(game, tensor.values, rng)
    checks.check_regret(tensor.values, res.state.diffs, res.state.counts, REGRET_STEPS,
                        res.empirical.probs, res.trace[-1])


def regret_ops(cfg, seed: int) -> list[Op]:
    grid_spec = cfg.channel.grid
    values = np.linspace(grid_spec.min, grid_spec.max, grid_spec.points)
    grids = experiments.power_grids(cfg)
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(REGRET_GAMES):
        gains = values[rng.integers(0, len(values), size=(cfg.players, cfg.players))]
        rm_seed = int(rng.integers(2**31))
        game = model.GameInstance(model.ChannelMatrix.from_array(gains), grids,
                                  cfg.alpha, cfg.noise, cfg.packet_len)
        ops.append(Op(f"regret-{k}", functools.partial(_regret_run, game, rm_seed),
                      f"gains {gains.tolist()}, seed {rm_seed}",
                      _encode_regret, functools.partial(_check_regret, game)))
    return ops


def lp(root, seed: int) -> list[Op]:
    """Everything that solves LPs: the channel sweep, the payoff region and
    the action sweep, in that order."""
    cfg = load_config(root / PAPER_CONFIG)
    states, _ = experiments.channel_states(cfg)
    return sweep_ops(cfg, states, seed) + [region_op(cfg, states)] + action_ops(cfg)


def regret_matching(root, seed: int) -> list[Op]:
    """Regret matching alone: no LP."""
    return regret_ops(load_config(root / PAPER_CONFIG), seed)


WORKLOADS = {"lp": lp, "regret": regret_matching}
