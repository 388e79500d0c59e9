import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from powergames import cli, experiments
from powergames.config import TypesSpec, load_config, parse_config
from powergames.errors import ConfigError

CONFIG_DIR = Path(__file__).parent.parent / "configs"


class TestLoad:
    def test_paper_setup_loads_cleanly(self):
        cfg = load_config(CONFIG_DIR / "paper_setup.json")
        assert cfg.players == 2
        assert cfg.power.levels == 25
        assert cfg.power.min_db == -20.0
        assert cfg.channel.grid.points == 10
        assert cfg.channel.grid.min == 0.01
        assert cfg.channel.grid.max == 3.0
        assert cfg.packet_len == 100
        assert cfg.types.enabled and cfg.types.points == 2
        assert cfg.sweep.action_levels == (2, 3, 4)

    def test_demo_configs_load(self):
        for name in ("region_demo.json", "dominant_demo.json"):
            cfg = load_config(CONFIG_DIR / name)
            assert cfg.players == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(p)

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{",                                # not UTF-8
        b"[" * 100_000,                              # nested past the recursion limit
        b'{"alpha": 1' + b"0" * 5000 + b"}",         # past the integer digit limit
    ], ids=["binary", "deep", "digits"])
    def test_unreadable_json(self, data, tmp_path):
        p = tmp_path / "broken.json"
        p.write_bytes(data)
        with pytest.raises(ConfigError, match="config"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_negative_alpha_names_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]},
            "alpha": -1,
        }))
        with pytest.raises(ConfigError, match="alpha"):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]},
            "alhpa": 0.01,
        }))
        with pytest.raises(ConfigError, match="alhpa"):
            load_config(p)

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="channel.sweep"):
            parse_config({
                "channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]],
                            "sweep": {"Mode": "sample"}},
            })


class TestValidation:
    def base(self):
        return {"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}}

    def test_channel_required(self):
        with pytest.raises(ConfigError, match="channel"):
            parse_config({})

    def test_matrix_shape(self):
        with pytest.raises(ConfigError, match="channel.matrix"):
            parse_config({"channel": {"matrix": [[1.0, 0.5]]}})

    def test_matrix_negative_gain(self):
        with pytest.raises(ConfigError, match="channel.matrix"):
            parse_config({"channel": {"matrix": [[1.0, -0.5], [0.5, 1.0]]}})

    def test_grid_inverted(self):
        with pytest.raises(ConfigError, match="channel.grid.min"):
            parse_config({"channel": {"grid": {"min": 3.0, "max": 0.01}}})

    def test_types_inverted(self):
        raw = self.base()
        raw["types"] = {"min": 3.0, "max": 0.5}
        with pytest.raises(ConfigError, match="types.min: must not exceed types.max"):
            parse_config(raw)
        # a single type point is fine
        raw["types"] = {"min": 0.5, "max": 0.5, "points": 1}
        assert parse_config(raw).types.min == 0.5

    def test_bad_sweep_mode(self):
        with pytest.raises(ConfigError, match="channel.sweep.mode"):
            parse_config({"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]],
                                      "sweep": {"mode": "all"}}})

    def test_bad_levels(self):
        raw = self.base()
        raw["power"] = {"levels": 0}
        with pytest.raises(ConfigError, match="power.levels"):
            parse_config(raw)

    def test_levels_linear_excludes_action_levels(self):
        # power_grids ignores the level count when levels_linear is set, so
        # every action-sweep row would be the same game under another label
        raw = self.base()
        raw["power"] = {"levels_linear": [0.5, 1.0, 5.0]}
        assert parse_config(raw).power.levels == 3
        raw["sweep"] = {"action_levels": [2, 3]}
        with pytest.raises(ConfigError, match=r"sweep\.action_levels"):
            parse_config(raw)

    def test_levels_linear_must_increase(self):
        raw = self.base()
        raw["power"] = {"levels_linear": [2.0, 1.0]}
        with pytest.raises(ConfigError, match="levels_linear"):
            parse_config(raw)

    def test_bad_rule(self):
        raw = self.base()
        raw["learning"] = {"rule": "magic"}
        with pytest.raises(ConfigError, match="learning.rule"):
            parse_config(raw)

    def test_defaults_recorded(self):
        cfg = parse_config(self.base())
        resolved = cfg.resolved()
        assert resolved["alpha"] == 0.01
        assert resolved["noise"] == 1.0
        assert resolved["packet_len"] == 100
        assert resolved["solver"]["directions"] == 64
        assert resolved["learning"]["steps"] == 100_000

    def test_hash_stable_and_sensitive(self):
        a = parse_config(self.base())
        b = parse_config(self.base())
        assert a.sha256() == b.sha256()
        raw = self.base()
        raw["alpha"] = 0.02
        c = parse_config(raw)
        assert c.sha256() != a.sha256()


MATRIX = {"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}}


def with_section(section, **values):
    raw = json.loads(json.dumps(MATRIX))
    raw.setdefault(section, {}).update(values)
    return raw


# (raw config, the dotted key its error must name)
MALFORMED = [
    (with_section("learning", seed="x"), "learning.seed"),
    ({**MATRIX, "alpha": "abc"}, "alpha"),
    ({"channel": {"matrix": [[1.0, "a"], [0.5, 1.0]]}}, "channel.matrix"),
    (with_section("power", levels_linear=5), "power.levels_linear"),
    (with_section("power", min_db=None), "power.min_db"),
    (with_section("sweep", action_levels=5), "sweep.action_levels"),
    (with_section("learning", seed=-1), "learning.seed"),
    (with_section("sweep", include_regret="no"), "sweep.include_regret"),
    (with_section("learning", seed=1.7), "learning.seed"),
    (with_section("solver", directions=True), "solver.directions"),
    ({**MATRIX, "alpha": 10**400}, "alpha"),
    (with_section("power", levels=1), "power.levels"),
]


# keys that changed nothing and were removed from the schema
REMOVED = [("solver", "feas_tol", 1e-9), ("solver", "opt_tol", 1e-9),
           ("types", "prior", "uniform")]


class TestReaders:
    @pytest.mark.parametrize("section,key,value", REMOVED,
                             ids=[f"{s}.{k}" for s, k, _ in REMOVED])
    def test_removed_key_is_unknown(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}: unknown key.*'{key}'"):
            parse_config(with_section(section, **{key: value}))

    @pytest.mark.parametrize("raw,key", MALFORMED, ids=[k for _, k in MALFORMED])
    def test_malformed_value_names_key(self, raw, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(raw)

    def test_integer_spelling_of_float_keys(self):
        ints = parse_config({**MATRIX, "alpha": 1, "power": {"min_db": -20}})
        floats = parse_config({**MATRIX, "alpha": 1.0, "power": {"min_db": -20.0}})
        assert ints.alpha == 1.0 and isinstance(ints.alpha, float)
        assert ints.sha256() == floats.sha256()

    def test_null_means_default_only_where_default_is_null(self):
        assert parse_config(with_section("learning", mu=None)).learning.mu is None
        with pytest.raises(ConfigError, match="learning.steps"):
            parse_config(with_section("learning", steps=None))

    def test_empty_types_take_the_schema_defaults(self):
        # the channel grid's own keys do not leak into the types section
        raw = {"channel": {"grid": {"min": 0.5, "max": 2.0, "points": 3}}, "types": {}}
        assert parse_config(raw).types == TypesSpec(enabled=True)
        assert not parse_config(MATRIX).types.enabled
        # so the paper setup reads the same with its types section emptied
        paper = json.loads((CONFIG_DIR / "paper_setup.json").read_text())
        cfg = parse_config(paper)
        emptied = parse_config({**paper, "types": {}})
        assert emptied.types == cfg.types
        assert emptied.sha256() == cfg.sha256()

    def test_single_level_grid_needs_one_point(self):
        with pytest.raises(ConfigError, match="sweep.action_levels"):
            parse_config(with_section("sweep", action_levels=[1, 2], nested_grids=False))
        cfg = parse_config(with_section("power", levels=1, min_db=3.0, max_db=3.0))
        assert cfg.power.levels == 1


def run_main(argv, capsys):
    """(exit code, stderr) of ``cli.main``; argparse errors exit by SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestCliErrors:
    @pytest.mark.parametrize("index", [0, 3, 7])
    def test_malformed_config_exits_2(self, index, tmp_path, capsys):
        raw, key = MALFORMED[index]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, err = run_main(["-c", str(path), "nash"], capsys)
        assert code == 2
        assert key in err and "Traceback" not in err

    def test_removed_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(with_section("solver", feas_tol=1e-9)))
        code, err = run_main(["-c", str(path), "ce"], capsys)
        assert code == 2
        assert "feas_tol" in err and "Traceback" not in err

    def test_unknown_log_level_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("POWERGAMES_LOG", "foo")
        code, err = run_main(["-c", str(CONFIG_DIR / "region_demo.json"), "nash"], capsys)
        assert code == 2
        assert err.startswith("config error: POWERGAMES_LOG") and "'foo'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag", [
        (["region", "--directions", "2"], "--directions"),
        (["regret", "--steps", "0"], "--steps"),
        (["regret", "--seed", "-1"], "--seed"),
        (["ce", "--direction", "nan"], "--direction"),
        (["sweep", "--workers", "-3"], "--workers"),
        (["commeq", "--formulation", "direct"], "--formulation"),
        (["regret", "--steps", "ten"], "--steps"),
        (["region", "--out-dir", ""], "--out-dir"),
        (["ce", "--out", ""], "--out"),
        (["regret", "--trace-out", ""], "--trace-out"),
        (["regret", "--regret-rule", "std"], "--regret-rule"),
    ])
    def test_bad_flag_exits_2(self, command, flag, capsys):
        code, err = run_main(["-c", str(CONFIG_DIR / "region_demo.json")] + command, capsys)
        assert code == 2
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("command,target", [
        (["nash", "--out"], "missing/x.json"),
        (["regret", "--steps", "10", "--trace-out"], "missing/t.csv"),
        (["region", "--out-dir"], "file/sub"),
    ])
    def test_unwritable_output_exits_2(self, command, target, tmp_path, monkeypatch, capsys):
        (tmp_path / "file").write_text("")
        path = str(tmp_path / target)

        def unreachable(*args, **kwargs):
            raise AssertionError("solved before making the output directory")

        monkeypatch.setattr(experiments, "ce_payoff_region", unreachable)
        code, err = run_main(["-c", str(CONFIG_DIR / "region_demo.json")] + command + [path],
                             capsys)
        assert code == 2
        assert path in err and "Traceback" not in err

    def test_closed_stdout_exits_1_without_traceback(self):
        argv = [sys.executable, "-m", "powergames.cli",
                "-c", str(CONFIG_DIR / "region_demo.json"), "game", "dump"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        # a reader gone before anything is written: the write itself fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")
        # a reader that stops after one line, as `| head -1` does
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1)
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestBlasThreads:
    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def probe(self, code, **env):
        """``code``'s stdout in a fresh interpreter without the BLAS variables."""
        clean = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        clean["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        return subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                              capture_output=True, text=True, check=True).stdout.split()

    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        code = ("import os, sys, powergames; "
                "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
        assert self.probe(code) == ["False", "False"]
        # the exported names and their modules load on first use
        code = ("import powergames; "
                "print(powergames.simplex.dump_problem is powergames.dump_problem)")
        assert self.probe(code) == ["True"]

    def test_cli_pins_one_thread_unless_set(self):
        code = ("import os, powergames.cli; "
                "print(*(os.environ[v] for v in %r))" % (self.BLAS_VARS,))
        assert self.probe(code) == ["1", "1", "1"]
        assert self.probe(code, OMP_NUM_THREADS="2") == ["1", "2", "1"]


def test_every_exported_name_resolves():
    import powergames

    for name in powergames.__all__:
        module = import_module(f"powergames.{powergames._HOME[name]}")
        assert getattr(powergames, name) is getattr(module, name), name
