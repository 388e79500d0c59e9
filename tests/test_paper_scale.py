"""Paper-scale cases that once failed certification, stalled or were refused,
pinned to reference optima computed with scipy's HiGHS or the earlier dense LP
(hard-coded: scipy is not a dependency)."""
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from powergames import cli, correlated, simplex
from powergames.communication import GameFamily, build_commeq_lp, solve_commeq
from powergames.config import load_config
from powergames.correlated import ce_payoff_region, solve_welfare_ce
from powergames.errors import BudgetError
from powergames.experiments import channel_states, game_from_config, power_grids, types_from_config
from powergames.model import ChannelMatrix, GameInstance, build_payoff_tensor, build_power_grid
from powergames.simplex import solve_lp

from oracles import result_digest

PAPER_CONFIG = Path(__file__).parent.parent / "configs" / "paper_setup.json"


@pytest.mark.parametrize("state, welfare", [
    (6, 0.8910084200876),     # gains [[2.33556, 0.67444], [3.0, 1.33889]]
    (56, 0.6244583887857),    # gains [[3.0, 0.34222], [1.33889, 3.0]]
    (134, 0.8450802155264),   # gains [[2.66778, 1.00667], [2.33556, 2.66778]]
])
def test_sweep_state_welfare(state, welfare):
    cfg = load_config(PAPER_CONFIG)
    states, _ = channel_states(cfg)
    rep = solve_welfare_ce(build_payoff_tensor(game_from_config(cfg, states[state])))
    assert rep.max_violation <= 1e-8
    assert abs(rep.welfare - welfare) <= 1e-7


def test_six_level_region_is_one_vertex():
    grid = build_power_grid(-20.0, 20.0, 6)
    tensor = build_payoff_tensor(GameInstance(
        ChannelMatrix.from_array([[1.33889, 1.67111], [2.33556, 3.0]]),
        (grid, grid), 0.01, 1.0, 100))
    region = ce_payoff_region(tensor, 64)
    assert len(region) == 1
    assert region[0] == pytest.approx((0.8415106, -0.0001), abs=1e-7)


def test_25_level_region_support():
    # criterion 2's first 25-level channel; its region once stalled after
    # 65,350 pivots. HiGHS optimum of every eighth of the 64 directions:
    reference = {0: 0.8435804826306, 8: 0.6100982542293, 16: 0.7020168759656,
                 24: 0.4749182728775, 32: -0.0133325241148, 40: -0.0101958619148,
                 48: 0.0001000000000, 56: 0.5832235356097}
    grid = build_power_grid(-20.0, 20.0, 25)
    tensor = build_payoff_tensor(GameInstance(
        ChannelMatrix.from_array([[2.98931, 1.92230], [1.26254, 1.68242]]),
        (grid, grid), 0.01, 1.0, 100))
    region = ce_payoff_region(tensor, 64)
    for k, value in reference.items():
        theta = 2.0 * math.pi * k / 64
        support = max(math.cos(theta) * u1 + math.sin(theta) * u2 for u1, u2 in region)
        assert abs(support - value) <= 1e-9, f"direction {k}"


def test_canonical_commeq_at_paper_scale():
    # the 25-level canonical family once exceeded the budget on its simplex data
    cfg = load_config(PAPER_CONFIG)
    family = GameFamily(power_grids(cfg), cfg.alpha, cfg.noise, cfg.packet_len)
    res = solve_commeq(types_from_config(cfg), family, "canonical")
    assert res.max_violation <= 1e-8
    assert abs(res.welfare - 0.691543710824) <= 1e-9


@pytest.mark.parametrize("levels, welfare", [
    (2, -0.000125), (3, -0.000125), (4, 0.6748749999831885), (6, 0.6748749999831885),
    (8, 0.6591794700635808), (10, 0.6591794700634784),
])
def test_canonical_commeq_nested_grids(levels, welfare):
    # optima of the dense auxiliary-variable LP on the paper's nested grids
    cfg = load_config(PAPER_CONFIG)
    family = GameFamily(power_grids(cfg, levels=levels, nested=True),
                        cfg.alpha, cfg.noise, cfg.packet_len)
    res = solve_commeq(types_from_config(cfg), family, "canonical")
    assert res.max_violation <= 1e-8
    assert abs(res.welfare - welfare) <= 1e-9


def test_literal_commeq_at_paper_scale():
    cfg = load_config(PAPER_CONFIG)
    family = GameFamily(power_grids(cfg), cfg.alpha, cfg.noise, cfg.packet_len)
    res = solve_commeq(types_from_config(cfg), family, "literal")
    assert res.max_violation <= 1e-8
    assert abs(res.welfare - 0.7185276765685309) <= 1e-12
    # the literal master runs over every column, byte for byte as before the
    # canonical family's dominance reduction (see test_communication's
    # LITERAL_DIGESTS)
    assert result_digest(res) == \
        "078307f003fb8c608a6e10636f03893579a5b41b134e67dbe314809a757c6cf2"


def test_literal_commeq_three_points_matches_dense_lp():
    # the lazily cut master against a cold solve of every literal row
    cfg = load_config(PAPER_CONFIG)
    space = types_from_config(replace(cfg, types=replace(cfg.types, points=3)))
    family = GameFamily(power_grids(cfg), cfg.alpha, cfg.noise, cfg.packet_len)
    dense = solve_lp(build_commeq_lp(space, family))
    res = solve_commeq(space, family, "literal")
    assert dense.status == "optimal"
    assert abs(res.welfare - dense.objective_value) <= 1e-9
    assert result_digest(res) == \
        "b097f6d8c87e0b2d38f29a75414e8a456e81ab3595afa1db57862dc50102d551"


def test_literal_commeq_five_points_exits_0(tmp_path):
    # 5 diagonal types at 25 levels: the dense literal LP (1,275 rows over
    # 15,625 columns) was refused by the tableau budget; HiGHS's optimum:
    raw = json.loads(PAPER_CONFIG.read_text())
    raw["types"]["points"] = 5
    path = tmp_path / "five_types.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "commeq.json"
    assert cli.main(["-c", str(path), "commeq", "--formulation", "literal",
                     "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["max_violation"] <= 1e-8
    assert abs(result["welfare"] - 0.886333528882) <= 1e-8


def test_canonical_commeq_three_points(tmp_path):
    # 3 diagonal types at 25 levels: 576 of the 5,625 columns survive the
    # dominance reduction; over all of them, a master of 1,000 to 1,100 pivots
    assert canonical_diagonal_welfare(tmp_path, 3) == pytest.approx(
        0.8062630620248985, rel=0, abs=1e-9)


@pytest.mark.parametrize("points, welfare", [
    # 1,225 of 10,000 columns survive; over all of them the master took 12 s
    (4, 0.8406454261729976),
    # 2,116 of 15,625 survive; over all of them the master grew to 817 rows
    # and past the tableau budget, exit 3
    (5, 0.8532140560838429),
])
def test_canonical_commeq_more_points(tmp_path, points, welfare):
    # HiGHS on the reduced LP with auxiliaries, deviations over every action
    assert canonical_diagonal_welfare(tmp_path, points) == pytest.approx(
        welfare, rel=0, abs=1e-9)


def canonical_diagonal_welfare(tmp_path, points):
    """Welfare of ``commeq --formulation canonical`` at ``points`` diagonal
    types and 25 levels, checked to exit 0 and verify."""
    path = tmp_path / "types.json"
    path.write_text(json.dumps({"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]},
                                "types": {"points": points}}))
    out = tmp_path / "commeq.json"
    assert cli.main(["-c", str(path), "commeq", "--formulation", "canonical",
                     "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["max_violation"] <= 1e-8
    return result["welfare"]


def test_welfare_ce_fifty_levels():
    # 2,500 profiles, 4,900 obedience rows, 19 x 19 actions survive; HiGHS on
    # the full dense LP:
    assert diagonal_channel_welfare_ce(50) == pytest.approx(
        0.7576779781656191, rel=0, abs=1e-9)


def test_welfare_ce_hundred_levels():
    # 10,000 profiles, 38 x 38 actions survive; over every profile the master
    # took about 2 minutes. HiGHS on the full dense LP:
    assert diagonal_channel_welfare_ce(100) == pytest.approx(
        0.7520475447430099, rel=0, abs=1e-9)


def diagonal_channel_welfare_ce(levels):
    """Welfare CE of the channel [[1, 0.5], [0.5, 1]] at ``levels`` levels,
    checked to verify."""
    grid = build_power_grid(-20.0, 20.0, levels)
    tensor = build_payoff_tensor(GameInstance(
        ChannelMatrix.from_array([[1.0, 0.5], [0.5, 1.0]]), (grid, grid), 0.01, 1.0, 100))
    rep = solve_welfare_ce(tensor)
    assert rep.max_violation <= 1e-8
    return rep.welfare


def test_canonical_master_growth_exits_3(tmp_path, capsys):
    # 10 diagonal types at 25 levels: the master keeps 10,000 of the 62,500
    # columns after the dominance reduction and starts at 100 rows, inside
    # the budget; its cuts grow it to about 1,100 rows, past the budget (the
    # count follows the pivot path, which the BLAS thread count moves). Over
    # every column its first cuts once grew it to a (273, 62774) tableau that
    # ran out of memory with a traceback
    path = tmp_path / "ten_types.json"
    path.write_text(json.dumps({"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]},
                                "types": {"points": 10}}))
    assert cli.main(["-c", str(path), "commeq", "--formulation", "canonical"]) == 3
    err = capsys.readouterr().err
    grown = re.search(r"budget error: LP with 10000 columns and (\d+) rows", err)
    assert grown and int(grown.group(1)) > 100
    assert "Traceback" not in err


def test_ce_master_growth_is_refused(monkeypatch):
    # sweep state 17's welfare CE master over its 64 surviving profiles
    # opens with the cuts of its best profile and solves at 2, 9 and 17 rows:
    # 132, 657 and 1,377 entries of simplex data. Under a budget of 1,000 its
    # first rounds fit and its last is refused before it is solved
    monkeypatch.setattr(correlated, "MASTER_BUDGET", 1000)
    sizes = []
    real = correlated.solve_lp

    def solve(prob, start=None):
        sizes.append(prob.row_count * (prob.n + prob.row_count))
        return real(prob, start=start)

    monkeypatch.setattr(correlated, "solve_lp", solve)
    cfg = load_config(PAPER_CONFIG)
    states, _ = channel_states(cfg)
    tensor = build_payoff_tensor(game_from_config(cfg, states[17]))
    with pytest.raises(BudgetError, match="entries of simplex data"):
        solve_welfare_ce(tensor)
    assert len(sizes) > 1 and max(sizes) <= 1000


def test_literal_master_refused_before_its_opening(monkeypatch):
    # the 25-level literal master of paper_setup.json starts at 4 rows over
    # 2,500 columns (10,016 entries, inside the lowered budget) and opens
    # with the cuts of its best-column point, past it: refused before any
    # tableau is built or LP solved
    monkeypatch.setattr(correlated, "MASTER_BUDGET", 10100)
    solves = []
    monkeypatch.setattr(correlated, "solve_lp", lambda *args, **kwargs: solves.append(1))

    def no_tableau(*args, **kwargs):
        raise AssertionError("a tableau was built")

    monkeypatch.setattr(simplex._Tableau, "__init__", no_tableau)
    cfg = load_config(PAPER_CONFIG)
    family = GameFamily(power_grids(cfg), cfg.alpha, cfg.noise, cfg.packet_len)
    with pytest.raises(BudgetError, match=r"LP with 2500 columns and \d+ rows"):
        solve_commeq(types_from_config(cfg), family, "literal")
    assert solves == []
