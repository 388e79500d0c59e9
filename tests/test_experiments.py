import json
from pathlib import Path

import numpy as np
import pytest

from powergames import cli, experiments
from powergames.config import load_config, parse_config
from powergames.correlated import JointDistribution, ce_violation, solve_welfare_ce
from powergames.errors import SolverStallError
from powergames.experiments import (
    channel_states,
    export_regions,
    game_from_config,
    run_channel_sweep,
    run_equilibrium_sweep,
    single_game_tensor,
)
from powergames.model import build_payoff_tensor
from powergames.regret import rm_run
from oracles import ce_gain_reference, polygon_contains

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def small_sweep_config(tmp_path, count=3, include_regret=False, workers=0):
    raw = {
        "players": 2,
        "power": {"min_db": -10.0, "max_db": 10.0, "levels": 3},
        "channel": {
            "grid": {"min": 0.01, "max": 3.0, "points": 4},
            "sweep": {"mode": "sample", "count": count, "seed": 5},
        },
        "packet_len": 10,
        "learning": {"steps": 2000, "seed": 3},
        "sweep": {"include_regret": include_regret, "workers": workers},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


class TestChannelStates:
    def test_enumerate_full_grid(self):
        cfg = parse_config({
            "channel": {"grid": {"min": 1.0, "max": 2.0, "points": 2},
                        "sweep": {"mode": "enumerate"}},
        })
        states, mode = channel_states(cfg)
        assert mode == "enumerate"
        assert len(states) == 2 ** 4
        assert len(set(states)) == 16

    def test_sample_deterministic(self):
        cfg = parse_config({
            "channel": {"grid": {"min": 0.01, "max": 3.0, "points": 10},
                        "sweep": {"mode": "sample", "count": 7, "seed": 9}},
        })
        a, _ = channel_states(cfg)
        b, _ = channel_states(cfg)
        assert a == b
        assert len(a) == 7


class TestSweep:
    def test_single_state_equals_direct_solve(self, tmp_path):
        raw = {
            "players": 2,
            "power": {"min_db": -10.0, "max_db": 10.0, "levels": 3},
            "channel": {"grid": {"min": 1.5, "max": 1.5, "points": 1},
                        "sweep": {"mode": "enumerate"}},
            "packet_len": 10,
            "output_dir": str(tmp_path / "out"),
        }
        cfg = parse_config(raw)
        report = run_channel_sweep(cfg)
        assert len(report["states"]) == 1
        single = parse_config({**raw, "channel": {"matrix": [[1.5, 1.5], [1.5, 1.5]]}})
        tensor = single_game_tensor(single)
        rep = solve_welfare_ce(tensor)
        assert report["states"][0]["ce_welfare"] == rep.welfare

    def test_rerun_byte_identical(self, tmp_path):
        path = small_sweep_config(tmp_path, include_regret=True)
        cfg = load_config(path)
        out = Path(cfg.output_dir)
        run_equilibrium_sweep(cfg, workers=1)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_equilibrium_sweep(cfg, workers=1)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        assert "sweep.json" in first and "sweep_states.csv" in first

    def test_workers_match_sequential(self, tmp_path):
        path = small_sweep_config(tmp_path, count=4)
        cfg = load_config(path)
        seq = run_channel_sweep(cfg, workers=1)
        par = run_channel_sweep(cfg, workers=2)
        assert seq == par

    def test_action_sweep_table(self, tmp_path):
        raw = {
            "players": 2,
            "power": {"min_db": -10.0, "max_db": 10.0, "levels": 2},
            "channel": {"grid": {"min": 0.01, "max": 3.0, "points": 2}},
            "packet_len": 10,
            "types": {"points": 2, "min": 0.01, "max": 3.0},
            "sweep": {"action_levels": [2, 3]},
            "output_dir": str(tmp_path / "out"),
        }
        cfg = parse_config(raw)
        report = run_equilibrium_sweep(cfg, workers=1)
        rows = report["action_sweep"]["rows"]
        assert [r["levels"] for r in rows] == [2, 3]
        for r in rows:
            assert r["commeq_canonical"] <= r["commeq_literal"] + 1e-8
        csv_path = Path(cfg.output_dir) / "sweep_actions.csv"
        lines = csv_path.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "levels,ce_per_state_avg,ce_average_game,commeq_literal,commeq_canonical"

    def test_regret_ce_gap_column(self, tmp_path):
        # the gap of each state's regret-matching play, recomputed by loops
        cfg = load_config(small_sweep_config(tmp_path, include_regret=True))
        report = run_equilibrium_sweep(cfg, workers=1)
        lines = [l for l in (Path(cfg.output_dir) / "sweep_states.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[header.index("regret_welfare") + 1] == "regret_ce_gap"
        col = header.index("regret_ce_gap")
        for line, row in zip(lines[1:], report["channel_sweep"]["states"]):
            tensor = build_payoff_tensor(game_from_config(cfg, row["gains"]))
            res = rm_run(tensor, cfg.learning.steps, cfg.learning.seed + row["state"],
                         mu=cfg.learning.mu, rule=cfg.learning.rule, trace=False)
            want = ce_gain_reference(tensor.values, res.empirical.probs)
            assert row["regret_ce_gap"] == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert float(line.split(",")[col]) == row["regret_ce_gap"]

    def test_csv_floats_round_trip(self, tmp_path):
        path = small_sweep_config(tmp_path)
        cfg = load_config(path)
        report = run_equilibrium_sweep(cfg, workers=1)
        csv_path = Path(cfg.output_dir) / "sweep_states.csv"
        lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        col = header.index("ce_welfare")
        for line, row in zip(lines[1:], report["channel_sweep"]["states"]):
            assert float(line.split(",")[col]) == row["ce_welfare"]


class TestRegions:
    def test_dominant_demo_single_point(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "dominant_demo.json")
        manifest = export_regions(cfg, out_dir=tmp_path)
        assert manifest["counts"]["ce_vertices"] == 1
        assert manifest["counts"]["feasible_vertices"] >= 1
        assert manifest["counts"]["ne_points"] == 1
        ce_lines = [l for l in (tmp_path / "ce_region.csv").read_text().splitlines()
                    if not l.startswith("#")]
        ne_lines = [l for l in (tmp_path / "ne_points.csv").read_text().splitlines()
                    if not l.startswith("#")]
        ce_pt = tuple(float(v) for v in ce_lines[1].split(","))
        ne_pt = tuple(float(v) for v in ne_lines[1].split(",")[:2])
        assert ce_pt == pytest.approx(ne_pt, abs=1e-8)

    def test_region_demo_properties(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "region_demo.json")
        export_regions(cfg, out_dir=tmp_path)

        def read_pts(name, ncols=2):
            lines = [l for l in (tmp_path / name).read_text().splitlines()
                     if not l.startswith("#")]
            return [tuple(float(v) for v in l.split(",")[:ncols]) for l in lines[1:]]

        hull = read_pts("feasible_hull.csv")
        region = read_pts("ce_region.csv")
        ne = read_pts("ne_points.csv")
        assert len(region) >= 3
        for pt in ne:
            assert polygon_contains(region, pt, tol=1e-7)
        for v in region:
            assert polygon_contains(hull, v, tol=1e-7)

    def test_manifest_checksums(self, tmp_path):
        import hashlib

        cfg = load_config(CONFIG_DIR / "dominant_demo.json")
        manifest = export_regions(cfg, out_dir=tmp_path)
        for name, info in manifest["files"].items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == info["sha256"]

    def test_byte_reproducible(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "region_demo.json")
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        export_regions(cfg, out_dir=a_dir)
        export_regions(cfg, out_dir=b_dir)
        for p in a_dir.iterdir():
            assert p.read_bytes() == (b_dir / p.name).read_bytes()


class TestCli:
    def write_cfg(self, tmp_path, **overrides):
        raw = {
            "players": 2,
            "power": {"min_db": -10.0, "max_db": 10.0, "levels": 2},
            "channel": {"matrix": [[1.0, 0.4], [0.4, 1.0]]},
            "packet_len": 10,
            "learning": {"steps": 500, "seed": 2},
            "output_dir": str(tmp_path / "out"),
        }
        raw.update(overrides)
        path = tmp_path / "cli.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_game_dump(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["-c", cfg, "game", "dump"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [2, 2]
        assert "config_sha256" in payload["meta"]

    def test_nash(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["-c", cfg, "nash"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "pure_profiles" in payload and "mixed_2x2" in payload

    def test_ce_welfare_and_direction(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["-c", cfg, "ce", "--welfare"]) == 0
        welfare = json.loads(capsys.readouterr().out)
        assert welfare["max_violation"] <= 1e-8
        assert cli.main(["-c", cfg, "ce", "--direction", "0.0"]) == 0
        directional = json.loads(capsys.readouterr().out)
        assert directional["objective"].startswith("direction")

    def test_commeq(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path, types={"points": 2, "min": 0.2, "max": 2.0}
        )
        assert cli.main(["-c", cfg, "commeq", "--formulation", "literal"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_violation"] <= 1e-8
        assert len(payload["device"]) == 4

    def test_regret_with_trace(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        trace = tmp_path / "trace.csv"
        code = cli.main(["-c", cfg, "regret", "--steps", "300", "--seed", "4",
                         "--regret-rule", "conditional", "--trace-out", str(trace)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 300
        lines = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "step,max_regret,ce_gap,welfare"

    def test_regret_summary_is_the_last_trace_row(self, tmp_path):
        cfg = load_config(self.write_cfg(tmp_path))
        payload = experiments.run_regret(cfg, steps=300, seed=4)
        last = payload["trace"][-1]
        assert last[0] == 300
        assert [payload["max_regret"], payload["ce_gap"], payload["welfare"]] == last[1:]
        # and the row is what it names: the empirical distribution's CE gap and welfare
        tensor = single_game_tensor(cfg)
        dist = JointDistribution(tensor.dims, np.array(payload["empirical"]))
        assert payload["ce_gap"] == ce_violation(tensor, dist)
        assert payload["welfare"] == float(dist.probs @ tensor.welfare_flat())

    def test_region_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out_dir = tmp_path / "regions"
        assert cli.main(["-c", cfg, "region", "--directions", "8",
                         "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "region_manifest.json").exists()

    def test_sweep_command(self, tmp_path, capsys):
        path = small_sweep_config(tmp_path, count=2)
        assert cli.main(["-c", str(path), "sweep", "--workers", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["states"] == 2

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert cli.main(["-c", str(bad), "nash"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_direction_needs_two_players_exit_2(self, tmp_path, capsys):
        gains = [[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]]
        cfg = self.write_cfg(tmp_path, players=3, channel={"matrix": gains})
        assert cli.main(["-c", cfg, "ce"]) == 0
        capsys.readouterr()
        assert cli.main(["-c", cfg, "ce", "--direction", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "ce --direction" in err and "Traceback" not in err

    def test_regret_mu_too_small_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, power={"min_db": -20.0, "max_db": 20.0, "levels": 5},
                             channel={"matrix": [[1.0, 2.0], [2.0, 1.0]]},
                             packet_len=100, learning={"mu": 0.001})
        assert cli.main(["-c", cfg, "regret", "--steps", "2000"]) == 2
        err = capsys.readouterr().err
        assert "learning.mu" in err and "mu=0.001" in err
        assert "(max_i M_i - 1) x payoff spread = 7.577966470926528" in err
        assert "Traceback" not in err

    def test_sweep_mu_too_small_exit_2(self, tmp_path, capsys):
        path = small_sweep_config(tmp_path, count=2, include_regret=True, workers=1)
        raw = json.loads(path.read_text())
        raw["learning"]["mu"] = 0.001
        path.write_text(json.dumps(raw))
        assert cli.main(["-c", str(path), "sweep"]) == 2
        err = capsys.readouterr().err
        # the first state of this seeded sample whose regrets outgrow mu
        assert "learning.mu: sweep state 1: mu=0.001" in err
        assert "Traceback" not in err

    def test_sweep_stall_names_state_exit_4(self, tmp_path, monkeypatch, capsys):
        path = small_sweep_config(tmp_path, count=3, workers=1)
        states, _ = channel_states(load_config(path))
        stalled = [list(r) for r in states[2]]
        calls = []

        def stall_third(tensor):
            calls.append(1)
            if len(calls) == 3:
                raise SolverStallError("singular basis: its kernel is singular")
            return solve_welfare_ce(tensor)

        monkeypatch.setattr(experiments, "solve_welfare_ce", stall_third)
        assert cli.main(["-c", str(path), "sweep"]) == 4
        err = capsys.readouterr().err
        assert (f"solver stall: sweep state 2, gains {stalled}: "
                "singular basis: its kernel is singular") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides, command, message", [
        ({"power": {"max_db": 4000}}, ["ce"], "power.max_db: 4000 dB"),
        ({"power": {"min_db": -5000}}, ["ce"], "power.min_db: -5000 dB"),
        ({"power": {"min_db": -3300, "max_db": -3000, "levels": 25}}, ["commeq"],
         "power.min_db: -3300 dB"),
        ({"power": {"min_db": 0.0, "max_db": 1e-300, "levels": 2}}, ["ce"],
         "power: 2 levels from 0.0 to 1e-300 dB"),
        ({"channel": {"matrix": [[1e308, 1e308], [1e308, 1e308]]}}, ["ce"],
         "payoffs overflow"),
        ({"power": {"min_db": -10.0, "max_db": 3000, "levels": 2}, "alpha": 1e10}, ["ce"],
         "payoffs overflow"),
        ({"types": {"min": 1e308, "max": 1.5e308}}, ["commeq"], "payoffs overflow"),
        ({"channel": {"grid": {"min": 1e308, "max": 1.5e308, "points": 3},
                      "sweep": {"count": 2}}}, ["sweep", "--workers", "1"],
         "payoffs overflow"),
    ], ids=["max-db", "min-db", "min-db-range", "narrow-db", "matrix", "alpha", "types", "grid"])
    def test_overflowing_game_exits_2(self, tmp_path, capsys, overrides, command, message):
        cfg = self.write_cfg(tmp_path, **overrides)
        assert cli.main(["-c", cfg, *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    def test_region_of_huge_payoffs(self, tmp_path, capsys):
        # a float ** 2 of these payoff differences overflows; a product does not
        cfg = self.write_cfg(tmp_path, alpha=1e300)
        assert cli.main(["-c", cfg, "region", "--directions", "8",
                         "--out-dir", str(tmp_path / "regions")]) == 0
        assert json.loads(capsys.readouterr().out)["counts"]["ce_vertices"] >= 1

    def test_budget_error_exit_3(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, power={"min_db": -20.0, "max_db": 20.0,
                                              "levels": 8000})
        assert cli.main(["-c", cfg, "nash"]) == 3
        assert "budget error" in capsys.readouterr().err

    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        from powergames import experiments as exp

        def boom(cfg, direction):
            raise MemoryError

        monkeypatch.setattr(exp, "run_ce", boom)
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["-c", cfg, "ce"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget error: out of memory")
        assert "Traceback" not in err

    def test_stall_exit_4(self, tmp_path, capsys, monkeypatch):
        from powergames import experiments as exp

        def boom(cfg):
            raise SolverStallError("forced")

        monkeypatch.setattr(exp, "run_nash", boom)
        cfg = self.write_cfg(tmp_path)
        assert cli.main(["-c", cfg, "nash"]) == 4
        assert "solver stall" in capsys.readouterr().err

    @pytest.mark.parametrize("module, command", [
        ("correlated", ["ce"]),
        ("correlated", ["commeq"]),
    ])
    def test_non_optimal_lp_exit_4(self, tmp_path, capsys, monkeypatch, module, command):
        import importlib

        from powergames.simplex import LpSolution

        monkeypatch.setattr(importlib.import_module(f"powergames.{module}"), "solve_lp",
                            lambda *args, **kwargs: LpSolution("infeasible", None, None, 0))
        game = {}
        if command == ["ce"]:
            # the default game is dominance solvable, and its one profile needs
            # no LP; here all 9 profiles survive and the welfare-best is no CE
            game = {"power": {"min_db": 0.0, "max_db": 20.0, "levels": 3},
                    "channel": {"matrix": [[1.0, 1.0], [1.0, 1.0]]}}
        cfg = self.write_cfg(tmp_path, types={"mode": "diagonal", "points": 2,
                                              "min": 0.5, "max": 1.0}, **game)
        assert cli.main(["-c", cfg] + command) == 4
        err = capsys.readouterr().err
        assert "solver stall" in err and "infeasible" in err
        assert "Traceback" not in err

    def test_out_file(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "nash.json"
        assert cli.main(["-c", cfg, "nash", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "pure_profiles" in payload
