"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""
import functools
import json
import time
from pathlib import Path

import numpy as np

from powergames import cli
from powergames.communication import GameFamily, build_type_space, per_type_tensors, solve_commeq
from powergames.config import load_config, parse_config
from powergames.correlated import (
    CePolytopeSolver,
    ce_payoff_region,
    ce_violation,
    solve_directional_ce,
    solve_welfare_ce,
)
from powergames.experiments import run_equilibrium_sweep
from powergames.model import (
    ChannelMatrix,
    GameInstance,
    PayoffTensor,
    build_payoff_tensor,
    build_power_grid,
    grid_from_levels,
)
from powergames.nash import enumerate_pure_nash
from powergames.regret import rm_run
from powergames.simplex import solve_lp
from oracles import (lp_vertex_reference, polygon_contains, random_bounded_lp, random_tensor,
                     shifted_box_lp)

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL  {label}", flush=True)
                raise
            print(f"[criterion {num}] PASS  {label}" +
                  (f"  ({detail})" if detail else ""), flush=True)
        return wrapper
    return deco


def paper_game(gains, levels=25):
    grid = build_power_grid(-20.0, 20.0, levels)
    return build_payoff_tensor(GameInstance(
        ChannelMatrix.from_array(gains), (grid, grid), 0.01, 1.0, 100
    ))


@criterion(1, "LP objective matches vertex-enumeration oracle on 100 random LPs")
def test_criterion_1_lp_oracle():
    rng = np.random.default_rng(2024)
    # the bound is on the solver: the vertex oracle takes ~20x longer
    elapsed = 0.0
    for k in range(100):
        c, a, b, eq, eb, lo, hi = random_bounded_lp(rng)
        prob = shifted_box_lp(c, a, b, eq, eb, lo, hi)
        t0 = time.perf_counter()
        sol = solve_lp(prob)
        elapsed += time.perf_counter() - t0
        status, value = lp_vertex_reference(c, a, b, eq, eb, lo, hi)
        assert sol.status == status, f"LP {k}: {sol.status} vs oracle {status}"
        if status == "optimal":
            # the solver's optimum is over y = x - lo
            got = sol.objective_value + c @ lo
            assert abs(got - value) <= 1e-8, f"LP {k}: {got} vs oracle {value}"
    assert elapsed < 5.0, f"solver runtime {elapsed:.2f}s exceeds 5s"
    return f"100 LPs solved in {elapsed:.2f}s"


@criterion(2, "welfare-CE is feasible and beats every pure NE on 70 instances")
def test_criterion_2_ce_soundness():
    rng = np.random.default_rng(501)
    t0 = time.perf_counter()
    checked = 0
    # 50 random 2-player games with M in {2, 3, 4}
    for _ in range(50):
        m = int(rng.integers(2, 5))
        vals = random_tensor(rng, (m, m))
        tensor = PayoffTensor((m, m), vals.copy())
        rep = solve_welfare_ce(tensor)
        assert rep.max_violation <= 1e-8
        for prof in enumerate_pure_nash(tensor):
            ne_w = sum(tensor.payoff(i, prof) for i in range(2))
            assert rep.welfare >= ne_w - 1e-8
        checked += 1
    # the 2x25-action power setup at 20 sampled channel states
    for _ in range(20):
        gains = rng.uniform(0.01, 3.0, size=(2, 2))
        tensor = paper_game(gains)
        rep = solve_welfare_ce(tensor)
        assert rep.max_violation <= 1e-8
        for prof in enumerate_pure_nash(tensor):
            ne_w = sum(tensor.payoff(i, prof) for i in range(2))
            assert rep.welfare >= ne_w - 1e-8
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    return f"{checked} instances in {elapsed:.1f}s"


@criterion(3, "matching pennies CE is the uniform point; dominance forces point mass")
def test_criterion_3_known_games():
    pennies = PayoffTensor((2, 2), np.array([
        [[1.0, -1.0], [-1.0, 1.0]],
        [[-1.0, 1.0], [1.0, -1.0]],
    ]))
    region = ce_payoff_region(pennies, directions=16)
    assert len(region) == 1, "directional sweep must collapse to one point"
    for weights in [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)]:
        rep = solve_directional_ce(pennies, weights)
        assert np.abs(rep.distribution.probs - 0.25).max() <= 1e-6

    dominant = PayoffTensor((2, 2), np.array([
        [[0.0, 0.0], [1.0, 1.0]],
        [[0.0, 1.0], [0.0, 1.0]],
    ]))
    rep = solve_welfare_ce(dominant)
    assert rep.distribution.probs[dominant.encode((1, 1))] >= 1.0 - 1e-9
    for i in range(2):
        solver = CePolytopeSolver.for_tensor(dominant)
        mass = np.zeros(4)
        for idx in range(4):
            if dominant.decode(idx)[i] == 0:  # the strictly dominated action
                mass[idx] = 1.0
        _, dominated_mass, _ = solver.maximize(mass)
        assert dominated_mass <= 1e-9
    return "uniform pennies CE; dominated mass <= 1e-9"


@criterion(4, "one joint type: literal = CE welfare; canonical never above literal")
def test_criterion_4_reduction_identity():
    rng = np.random.default_rng(88)
    for k in range(20):
        levels = tuple(sorted(rng.uniform(0.1, 30.0, 2)))
        gain = float(rng.uniform(0.05, 3.0))
        alpha = float(rng.uniform(0.002, 0.05))
        packet_len = int(rng.integers(1, 120))
        fam = GameFamily((grid_from_levels(levels),) * 2, alpha, 1.0, packet_len)
        space = build_type_space([gain], players=2)
        lit = solve_commeq(space, fam, "literal")
        can = solve_commeq(space, fam, "canonical")
        tensor = per_type_tensors(space, fam)[0]
        ce = solve_welfare_ce(tensor)
        assert abs(lit.welfare - ce.welfare) <= 1e-8, f"instance {k}"
        assert can.welfare <= lit.welfare + 1e-8, f"instance {k}"
    # canonical <= literal also beyond binary actions
    for k in range(5):
        levels = tuple(sorted(rng.uniform(0.1, 30.0, 3)))
        fam = GameFamily((grid_from_levels(levels),) * 2, 0.01, 1.0, 50)
        space = build_type_space(list(sorted(rng.uniform(0.05, 3.0, 2))), players=2)
        lit = solve_commeq(space, fam, "literal")
        can = solve_commeq(space, fam, "canonical")
        assert can.welfare <= lit.welfare + 1e-8, f"3-action instance {k}"
    return "20 binary + 5 ternary instances"


@criterion(5, "action-set sweep emits the (M, CE, comm-eq) table, nondecreasing")
def test_criterion_5_action_sweep(tmp_path):
    raw = {
        "players": 2,
        "power": {"min_db": -20.0, "max_db": 20.0, "levels": 4},
        "channel": {"grid": {"min": 0.01, "max": 3.0, "points": 2}},
        "alpha": 0.01,
        "noise": 1.0,
        "packet_len": 100,
        "types": {"mode": "diagonal", "points": 2, "min": 0.01, "max": 3.0},
        "sweep": {"action_levels": [2, 3, 4], "nested_grids": True},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = parse_config(raw)
    t0 = time.perf_counter()
    report = run_equilibrium_sweep(cfg, workers=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 minutes"
    rows = report["action_sweep"]["rows"]
    assert [r["levels"] for r in rows] == [2, 3, 4]
    csv_path = Path(cfg.output_dir) / "sweep_actions.csv"
    assert csv_path.exists()
    for col in ("ce_per_state_avg", "ce_average_game", "commeq_literal",
                "commeq_canonical"):
        series = [r[col] for r in rows]
        for a, b in zip(series, series[1:]):
            assert b >= a - 1e-8, f"{col} not nondecreasing: {series}"
    return f"table {[(r['levels'], round(r['ce_per_state_avg'], 4), round(r['commeq_literal'], 4)) for r in rows]} in {elapsed:.1f}s"


@criterion(6, "regret matching at 25 actions: near-CE play, never above CE optimum")
def test_criterion_6_regret():
    t0 = time.perf_counter()
    tensor = paper_game([[1.0, 1.0], [1.0, 1.0]])  # the mean-gain channel state
    ce = solve_welfare_ce(tensor)
    res = rm_run(tensor, steps=100_000, seed=12345)
    gap = ce_violation(tensor, res.empirical)
    spread = float(tensor.values.max() - tensor.values.min())
    welfare = float(res.empirical.probs @ tensor.welfare_flat())
    elapsed = time.perf_counter() - t0
    assert gap <= 0.05 * spread, f"ce gap {gap} vs bound {0.05 * spread}"
    assert welfare <= ce.welfare + 1e-6
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    return f"gap {gap:.4f} <= {0.05 * spread:.4f}, welfare {welfare:.4f} <= {ce.welfare:.4f}, {elapsed:.1f}s"


@criterion(7, "demo region: CE polygon holds all NE points and Pareto-beats the best")
def test_criterion_7_region_geometry(tmp_path):
    cfg = load_config(CONFIG_DIR / "region_demo.json")
    from powergames.experiments import export_regions

    export_regions(cfg, out_dir=tmp_path)

    def read_rows(name):
        lines = [l for l in (tmp_path / name).read_text().splitlines()
                 if not l.startswith("#")]
        return [l.split(",") for l in lines[1:]]

    hull = [(float(r[0]), float(r[1])) for r in read_rows("feasible_hull.csv")]
    region = [(float(r[0]), float(r[1])) for r in read_rows("ce_region.csv")]
    ne = [(float(r[0]), float(r[1])) for r in read_rows("ne_points.csv")]
    assert ne, "demo must have NE points"
    for pt in ne:
        assert polygon_contains(region, pt, tol=1e-7), f"NE point {pt} outside CE"
    for v in region:
        assert polygon_contains(hull, v, tol=1e-7), f"CE vertex {v} outside hull"
    best = max(ne, key=lambda p: (p[0] + p[1], p))
    margin = max(min(v[0] - best[0], v[1] - best[1]) for v in region)
    assert margin > 1e-6, f"no CE vertex strictly dominates best NE {best}"
    return f"dominating margin {margin:.5f} over best NE {tuple(round(x, 4) for x in best)}"


@criterion(8, "seeded commands byte-reproduce every emitted file")
def test_criterion_8_determinism(tmp_path):
    sweep_raw = {
        "players": 2,
        "power": {"min_db": -10.0, "max_db": 10.0, "levels": 3},
        "channel": {"grid": {"min": 0.01, "max": 3.0, "points": 5},
                    "sweep": {"mode": "sample", "count": 4, "seed": 11}},
        "packet_len": 10,
        "learning": {"steps": 3000, "seed": 6},
        "sweep": {"include_regret": True, "workers": 1},
        "output_dir": str(tmp_path / "sweep_out"),
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(sweep_raw))

    def run_all(tag):
        outputs = {}
        sweep_dir = tmp_path / f"sweep_{tag}"
        assert cli.main(["-c", str(cfg_path), "sweep", "--workers", "1",
                         "--out-dir", str(sweep_dir)]) == 0
        for p in sorted(sweep_dir.iterdir()):
            outputs[f"sweep/{p.name}"] = p.read_bytes()
        region_dir = tmp_path / f"region_{tag}"
        assert cli.main(["-c", str(CONFIG_DIR / "region_demo.json"), "region",
                         "--out-dir", str(region_dir)]) == 0
        for p in sorted(region_dir.iterdir()):
            outputs[f"region/{p.name}"] = p.read_bytes()
        regret_out = tmp_path / f"regret_{tag}.json"
        trace_out = tmp_path / f"trace_{tag}.csv"
        assert cli.main(["-c", str(cfg_path.parent / "single.json"), "regret",
                         "--steps", "2000", "--seed", "3",
                         "--out", str(regret_out), "--trace-out", str(trace_out)]) == 0
        outputs["regret.json"] = regret_out.read_bytes()
        outputs["trace.csv"] = trace_out.read_bytes()
        return outputs

    single_raw = dict(sweep_raw)
    single_raw["channel"] = {"matrix": [[1.0, 0.7], [0.7, 1.0]]}
    single_raw.pop("sweep")
    (cfg_path.parent / "single.json").write_text(json.dumps(single_raw))

    first = run_all("a")
    second = run_all("b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} is not byte-identical"
    return f"{len(first)} files byte-identical across reruns"
