"""Each independent check accepts the program's answer and rejects a
deliberately corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from powergames import correlated, experiments, model, nash, regret  # noqa: E402
from powergames.config import load_config  # noqa: E402

PAPER = load_config(HERE.parent / "configs" / "paper_setup.json")


def _game(gains, levels, alpha=0.01, packet_len=100):
    grid = model.grid_from_levels(levels)
    return model.GameInstance(model.ChannelMatrix.from_array(gains), (grid, grid),
                              alpha, 1.0, packet_len)


# region_demo.json: correlated equilibria strictly improve on every Nash point
DEMO = _game([[1.0, 2.0], [2.0, 1.0]], [0.5, 5.0], alpha=0.1444, packet_len=1)
SMALL = _game([[2.0, 0.7], [1.3, 1.7]], [0.1, 1.0, 4.0, 10.0])


@pytest.fixture(scope="module")
def demo():
    tensor = model.build_payoff_tensor(DEMO)
    return tensor, correlated.solve_welfare_ce(tensor)


def _levels(game):
    return [g.values_linear for g in game.grids]


def test_payoff_check_rejects_one_wrong_entry():
    tensor = model.build_payoff_tensor(SMALL)
    args = (_levels(SMALL), SMALL.channel.g, SMALL.alpha, SMALL.noise, SMALL.packet_len)
    checks.check_payoff_samples(tensor.values, *args, np.random.default_rng(0), samples=400)
    bad = tensor.values.copy()
    bad[1, 2, 3] += 1e-9
    with pytest.raises(CheckError, match="direct formula"):
        checks.check_payoff_samples(bad, *args, np.random.default_rng(0), samples=400)


def test_nash_check_rejects_missing_and_extra_profiles():
    tensor = model.build_payoff_tensor(SMALL)
    profiles = nash.enumerate_pure_nash(tensor)
    assert profiles
    checks.check_pure_nash(tensor.values, profiles)
    with pytest.raises(CheckError):
        checks.check_pure_nash(tensor.values, profiles[1:])
    extra = next(p for p in np.ndindex(*tensor.dims) if p not in profiles)
    with pytest.raises(CheckError):
        checks.check_pure_nash(tensor.values, sorted(profiles + [extra]))


def _report(values, probs):
    per_player = [float(probs @ values[i].reshape(-1)) for i in range(values.shape[0])]
    return probs, per_player, sum(per_player)


def test_ce_check_accepts_program_answer(demo):
    tensor, rep = demo
    checks.check_welfare_ce(tensor.values, rep.distribution.probs,
                            rep.per_player_value, rep.welfare)


def test_ce_check_rejects_welfare_off_by_1e6(demo):
    tensor, rep = demo
    with pytest.raises(CheckError):
        checks.check_welfare_ce(tensor.values, rep.distribution.probs,
                                rep.per_player_value, rep.welfare + 1e-6)


def test_ce_check_rejects_mass_moved_off_the_optimum(demo):
    tensor, rep = demo
    probs = np.array(rep.distribution.probs)
    top = int(np.argmax(probs))
    probs[top] -= 0.1
    probs[(top + 1) % probs.size] += 0.1
    with pytest.raises(CheckError):
        checks.check_welfare_ce(tensor.values, *_report(tensor.values, probs))


def test_ce_check_rejects_a_feasible_but_suboptimal_equilibrium(demo):
    # a pure Nash equilibrium is a CE, so only the HiGHS optimum can reject it
    tensor, _ = demo
    ne = nash.enumerate_pure_nash(tensor)[0]
    probs = np.zeros(tensor.profile_count)
    probs[tensor.encode(ne)] = 1.0
    assert checks.obedience_gap(tensor.values, probs) == 0.0
    with pytest.raises(CheckError, match="HiGHS"):
        checks.check_welfare_ce(tensor.values, *_report(tensor.values, probs))


@pytest.fixture(scope="module")
def region():
    tensor = model.build_payoff_tensor(DEMO)
    return tensor, correlated.ce_payoff_region(tensor, 16)


def test_region_check_accepts_program_polygon(region):
    tensor, polygon = region
    assert len(polygon) >= 4
    checks.check_region(tensor.values, polygon, 16)


def test_region_check_rejects_two_vertices_swapped(region):
    tensor, polygon = region
    bad = list(polygon)
    bad[0], bad[1] = bad[1], bad[0]
    with pytest.raises(CheckError, match="clockwise"):
        checks.check_region(tensor.values, bad, 16)


def test_region_check_rejects_a_vertex_pushed_outward(region):
    tensor, polygon = region
    cx = sum(x for x, _ in polygon) / len(polygon)
    cy = sum(y for _, y in polygon) / len(polygon)
    bad = list(polygon)
    x, y = bad[0]
    bad[0] = (cx + 1.001 * (x - cx), cy + 1.001 * (y - cy))
    with pytest.raises(CheckError):
        checks.check_region(tensor.values, bad, 16)


def test_region_check_rejects_a_dropped_vertex(region):
    tensor, polygon = region
    with pytest.raises(CheckError):
        checks.check_region(tensor.values, polygon[1:], 16)


def _action_cfg(levels):
    return dataclasses.replace(
        PAPER, sweep=dataclasses.replace(PAPER.sweep, action_levels=(levels,)))


def _comm_game(levels, nested=True):
    grids = experiments.power_grids(PAPER, levels=levels, nested=nested)
    types = [[(0.01, 0.01), (3.0, 3.0)]] * 2
    prior = np.full((2, 2), 0.25)
    return checks.CommGame([g.values_linear for g in grids], types, prior,
                           PAPER.alpha, PAPER.noise, PAPER.packet_len)


@pytest.fixture(scope="module")
def action_row():
    return experiments.run_action_sweep(_action_cfg(5))["rows"][0]


def test_action_row_check_accepts_program_row(action_row):
    checks.check_action_row(_comm_game(5), action_row)


# canonical moves down, so that canonical <= literal still holds and only
# the HiGHS comparison can reject it
@pytest.mark.parametrize("key, delta", [("ce_per_state_avg", 1e-6), ("ce_average_game", 1e-6),
                                        ("commeq_literal", 1e-6), ("commeq_canonical", -1e-6)])
def test_action_row_check_rejects_welfare_off_by_1e6(action_row, key, delta):
    bad = dict(action_row, **{key: action_row[key] + delta})
    with pytest.raises(CheckError, match=key):
        checks.check_action_row(_comm_game(5), bad)


def test_action_row_check_rejects_canonical_above_literal(action_row):
    game = _comm_game(5)
    bad = dict(action_row, commeq_canonical=action_row["commeq_literal"] + 1e-3)
    with pytest.raises(CheckError, match="exceeds literal"):
        checks.check_action_row(game, bad)


@pytest.fixture(scope="module")
def literal_device():
    cfg = dataclasses.replace(PAPER, power=dataclasses.replace(PAPER.power, levels=5))
    out = experiments.run_commeq(cfg, "literal")
    return _comm_game(5, nested=False), np.array(list(out["device"].values())), out["welfare"]


def test_literal_device_check_accepts_program_device(literal_device):
    checks.check_literal_device(*literal_device)


def test_literal_device_check_rejects_moved_mass(literal_device):
    game, cond, welfare = literal_device
    bad = cond.copy()
    row = int(np.argmax(bad.max(axis=1)))
    top = int(np.argmax(bad[row]))
    bad[row, top] -= 0.2
    bad[row, (top + 1) % bad.shape[1]] += 0.2
    with pytest.raises(CheckError):
        checks.check_literal_device(game, bad, welfare)


def test_literal_device_check_rejects_welfare_off_by_1e6(literal_device):
    game, cond, welfare = literal_device
    with pytest.raises(CheckError):
        checks.check_literal_device(game, cond, welfare + 1e-6)


@pytest.fixture(scope="module")
def regret_run():
    tensor = model.build_payoff_tensor(SMALL)
    return tensor, regret.rm_run(tensor, steps=3000, seed=5)


def _regret_args(tensor, res, diffs=None, trace_row=None):
    return (tensor.values, diffs or res.state.diffs, res.state.counts, res.state.t,
            res.empirical.probs, trace_row or res.trace[-1])


def test_regret_check_accepts_program_run(regret_run):
    checks.check_regret(*_regret_args(*regret_run))


def test_regret_check_rejects_a_corrupted_regret(regret_run):
    tensor, res = regret_run
    diffs = [d.copy() for d in res.state.diffs]
    diffs[1][2, 0] += 1e-3
    with pytest.raises(CheckError, match="regret D"):
        checks.check_regret(*_regret_args(tensor, res, diffs=diffs))


def test_regret_check_rejects_regret_on_the_wrong_row(regret_run):
    # column sums are unchanged, so only the per-row identity can tell
    tensor, res = regret_run
    diffs = [np.roll(d, 1, axis=0) for d in res.state.diffs]
    with pytest.raises(CheckError, match="regret D"):
        checks.check_regret(*_regret_args(tensor, res, diffs=diffs))


def test_regret_check_rejects_a_wrong_trace_gap(regret_run):
    tensor, res = regret_run
    step, max_regret, gap, welfare = res.trace[-1]
    with pytest.raises(CheckError, match="CE gap"):
        checks.check_regret(*_regret_args(tensor, res,
                                          trace_row=(step, max_regret, gap + 1e-6, welfare)))
