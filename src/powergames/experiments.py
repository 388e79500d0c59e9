"""Experiment orchestration: single-game runs, channel-state sweeps,
action-set sweeps over type spaces, payoff-region export, file emission.

This module alone formats what the program emits: every JSON payload, on
stdout or in a file, is the text of ``emit_json``, and every CSV file is
written by ``write_csv``; the solver modules return numbers, not text.
Every emitted file carries a metadata block (config hash, seeds, tool
version) and contains only seeded, deterministic numbers: rerunning the
same config byte-reproduces the payloads.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .communication import (
    GameFamily,
    build_type_space,
    per_type_tensors,
    solve_commeq,
)
from .config import ExperimentConfig
from .correlated import (
    ce_payoff_region,
    ce_violation,
    solve_directional_ce,
    solve_welfare_ce,
)
from .errors import ConfigError, MuTooSmallError, SolverStallError
from .geometry import convex_hull_ccw
from .model import (
    ChannelMatrix,
    GameInstance,
    PayoffTensor,
    _pinned_linspace,
    build_payoff_tensor,
    build_power_grid,
    db_to_linear,
    grid_from_levels,
    nested_db_levels,
)
from .nash import enumerate_pure_nash, mixed_nash_2x2
from .regret import rm_run


def power_grids(cfg: ExperimentConfig, levels: int | None = None,
                nested: bool = False):
    """Per-player power grids; ``levels`` overrides the configured count."""
    p = cfg.power
    if p.levels_linear is not None:
        return (grid_from_levels(p.levels_linear),) * cfg.players
    m = levels if levels is not None else p.levels
    try:
        if nested:
            dbs = sorted(nested_db_levels(p.min_db, p.max_db, m))
            grid = grid_from_levels([db_to_linear(d) for d in dbs])
        else:
            grid = build_power_grid(p.min_db, p.max_db, m)
    except ValueError as exc:  # dB levels so close that linear ones coincide
        raise ConfigError(f"power: {m} levels from {p.min_db!r} to {p.max_db!r} dB: "
                          f"{exc}") from None
    return (grid,) * cfg.players


def game_from_config(cfg: ExperimentConfig, gains) -> GameInstance:
    chan = ChannelMatrix.from_array(gains)
    return GameInstance(chan, power_grids(cfg), cfg.alpha, cfg.noise, cfg.packet_len)


def single_game_tensor(cfg: ExperimentConfig) -> PayoffTensor:
    if cfg.channel.matrix is None:
        raise ConfigError(
            "this command needs an explicit channel.matrix; "
            "grid-mode channels are for the sweep command"
        )
    return build_payoff_tensor(game_from_config(cfg, cfg.channel.matrix))


def channel_states(cfg: ExperimentConfig, force_enumerate: bool = False):
    """Channel matrices for the sweep, as a list of K x K tuples."""
    ch = cfg.channel
    k = cfg.players
    if ch.grid is None:  # parse_config requires a matrix then
        return [ch.matrix], "explicit"
    values = _pinned_linspace(ch.grid.min, ch.grid.max, ch.grid.points)
    n_links = k * k
    if force_enumerate or ch.sweep.mode == "enumerate":
        mode = "enumerate"
        combos = itertools.product(range(len(values)), repeat=n_links)
    else:
        mode = "sample"
        rng = np.random.default_rng(ch.sweep.seed)
        combos = rng.integers(0, len(values), size=(ch.sweep.count, n_links))
    # combo lists grid indices of g[0][0], g[0][1], ..., g[k-1][k-1]
    states = [tuple(tuple(values[combo[j * k + i]] for i in range(k)) for j in range(k))
              for combo in combos]
    return states, mode


def metadata(cfg: ExperimentConfig, **extra) -> dict:
    meta = {
        "tool": "powergames",
        "version": __version__,
        "config_sha256": cfg.sha256(),
        "seeds": {
            "channel_sweep": cfg.channel.sweep.seed,
            "learning": cfg.learning.seed,
        },
    }
    meta.update(extra)
    return meta


def _cell(value) -> str:
    """The one CSV cell rule: a float as ``repr`` (the shortest decimal that
    round-trips), None as an empty cell, an int or a string as ``str``."""
    if value is None:
        return ""
    if isinstance(value, (numbers.Integral, str)):
        return str(value)
    return repr(float(value))


def write_csv(path, meta: dict, header, rows) -> str:
    """Write the metadata as ``# key: value`` lines, the header and one line
    per row; returns the text written."""
    lines = [f"# tool: {meta['tool']} {meta['version']}",
             f"# config_sha256: {meta['config_sha256']}"]
    lines += [f"# {key}: {json.dumps(value, sort_keys=True)}" for key, value in meta.items()
              if key not in ("tool", "version", "config_sha256")]
    lines.append(",".join(header))
    lines += [",".join(map(_cell, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    _write_text(path, text)
    return text


def _write_text(path, text: str):
    """Write ``text`` to ``path``; a path that cannot be written is a
    ConfigError naming it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _out_dir(path) -> Path:
    """Create the output directory ``path``; one that cannot be made is a
    ConfigError naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        msg = f"cannot create directory {str(path)!r}: {exc.strerror or exc}"
        raise ConfigError(msg) from None
    return out


def emit_json(payload: dict, path=None):
    """Write ``payload`` as JSON to ``path``, or print it to stdout when no
    path is given; both get the same text. Printing flushes, so a closed
    stdout raises here."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        _write_text(path, text + "\n")
    else:
        print(text, flush=True)


# ---------------------------------------------------------------- single runs

def game_dump(cfg: ExperimentConfig) -> dict:
    tensor = single_game_tensor(cfg)
    game = game_from_config(cfg, cfg.channel.matrix)
    return {
        "meta": metadata(cfg),
        "players": cfg.players,
        "dims": list(tensor.dims),
        "channel": [list(row) for row in game.channel.g],
        "power_levels": [list(g.values_linear) for g in game.grids],
        "alpha": game.alpha,
        "noise": game.noise,
        "packet_len": game.packet_len,
        "payoffs": [tensor.flat(i).tolist() for i in range(tensor.players)],
    }


def run_nash(cfg: ExperimentConfig) -> dict:
    tensor = single_game_tensor(cfg)
    profiles = enumerate_pure_nash(tensor)
    out = {
        "meta": metadata(cfg),
        "pure_profiles": [list(p) for p in profiles],
        "pure_payoffs": [[tensor.payoff(i, p) for i in range(tensor.players)]
                         for p in profiles],
    }
    if tensor.dims == (2, 2):
        out["mixed_2x2"] = [
            {"strategies": [list(p), list(q)], "payoffs": list(u)}
            for (p, q), u in mixed_nash_2x2(tensor)
        ]
    return out


def run_ce(cfg: ExperimentConfig, direction: float | None = None) -> dict:
    if direction is not None and cfg.players != 2:
        raise ConfigError("ce --direction is limited to 2-player games")
    tensor = single_game_tensor(cfg)
    if direction is None:
        rep = solve_welfare_ce(tensor)
        objective = "welfare"
    else:
        weights = (math.cos(direction), math.sin(direction))
        rep = solve_directional_ce(tensor, weights)
        objective = f"direction {direction!r} rad"
    return {
        "meta": metadata(cfg),
        "objective": objective,
        "welfare": rep.welfare,
        "per_player": list(rep.per_player_value),
        "max_violation": rep.max_violation,
        "iterations": rep.solver_iterations,
        "distribution": rep.distribution.probs.tolist(),
    }


def types_from_config(cfg: ExperimentConfig):
    if not cfg.types.enabled:
        raise ConfigError("this command needs a 'types' section in the config")
    values = _pinned_linspace(cfg.types.min, cfg.types.max, cfg.types.points)
    return build_type_space(values, cfg.players, mode=cfg.types.mode)


def run_commeq(cfg: ExperimentConfig, formulation: str | None = None) -> dict:
    space = types_from_config(cfg)
    family = GameFamily(power_grids(cfg), cfg.alpha, cfg.noise, cfg.packet_len)
    form = formulation or cfg.solver.formulation
    res = solve_commeq(space, family, form)
    return {
        "meta": metadata(cfg),
        "formulation": form,
        "welfare": res.welfare,
        "max_violation": res.max_violation,
        "iterations": res.solver_iterations,
        "device": device_payload(res.device),
    }


def device_payload(device) -> dict:
    """Joint-type key (gains to 6 decimal places) -> probability list, in
    joint-type order."""
    space = device.space
    return {
        "|".join("(" + ",".join(f"{g:.6f}" for g in space.types[i][t_i]) + ")"
                 for i, t_i in enumerate(space.decode(t))): device.conditionals[t].tolist()
        for t in range(space.joint_count)
    }


def run_regret(cfg: ExperimentConfig, steps: int | None = None,
               seed: int | None = None, rule: str | None = None,
               trace_out=None) -> dict:
    """One regret-matching run; its step trace is also written as CSV to
    ``trace_out`` when given."""
    tensor = single_game_tensor(cfg)
    steps = steps if steps is not None else cfg.learning.steps
    seed = seed if seed is not None else cfg.learning.seed
    rule = rule or cfg.learning.rule
    try:
        res = rm_run(tensor, steps, seed, mu=cfg.learning.mu, rule=rule)
    except MuTooSmallError as exc:
        raise ConfigError(f"learning.mu: {exc}") from None
    _, max_regret, ce_gap, welfare = res.trace[-1]  # the trace ends at ``steps``
    meta = metadata(cfg, seeds_used={"learning": seed})
    if trace_out:
        write_csv(trace_out, meta, ("step", "max_regret", "ce_gap", "welfare"), res.trace)
    return {
        "meta": meta,
        "rule": rule,
        "steps": steps,
        "welfare": welfare,
        "ce_gap": ce_gap,
        "max_regret": max_regret,
        "empirical": res.empirical.probs.tolist(),
        "trace": [list(row) for row in res.trace],
    }


# --------------------------------------------------------------------- sweeps

def _state_result(args):
    idx, gains, cfg = args
    tensor = build_payoff_tensor(game_from_config(cfg, gains))
    profiles = enumerate_pure_nash(tensor)
    ne_payoffs = [[tensor.payoff(i, p) for i in range(tensor.players)]
                  for p in profiles]
    best_ne = max((sum(u) for u in ne_payoffs), default=None)
    try:
        rep = solve_welfare_ce(tensor)
    except SolverStallError as exc:
        raise SolverStallError(
            f"sweep state {idx}, gains {[list(r) for r in gains]}: {exc}") from None
    row = {
        "state": idx,
        "gains": [list(r) for r in gains],
        "n_pure_ne": len(profiles),
        "pure_ne": [list(p) for p in profiles],
        "pure_ne_payoffs": ne_payoffs,
        "best_ne_welfare": best_ne,
        "ce_welfare": rep.welfare,
        "ce_violation": rep.max_violation,
        "ce_per_player": list(rep.per_player_value),
        "lp_iterations": rep.solver_iterations,
    }
    if cfg.sweep.include_regret:
        try:
            res = rm_run(tensor, cfg.learning.steps, cfg.learning.seed + idx,
                         mu=cfg.learning.mu, rule=cfg.learning.rule, trace=False)
        except MuTooSmallError as exc:
            raise ConfigError(f"learning.mu: sweep state {idx}: {exc}") from None
        row["regret_welfare"] = float(res.empirical.probs @ tensor.welfare_flat())
        row["regret_ce_gap"] = ce_violation(tensor, res.empirical)
    return row


def _aggregate(samples: list[float]) -> dict:
    if not samples:
        return {"mean": None, "stderr": None, "count": 0}
    arr = np.asarray(samples)
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "stderr": stderr, "count": int(arr.size)}


def run_channel_sweep(cfg: ExperimentConfig, force_enumerate: bool = False,
                      workers: int | None = None) -> dict:
    states, mode = channel_states(cfg, force_enumerate)
    jobs = [(i, g, cfg) for i, g in enumerate(states)]
    n_workers = workers if workers is not None else cfg.sweep.workers
    if n_workers == 0:
        n_workers = os.cpu_count() or 1
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_state_result, jobs))
    else:
        rows = list(map(_state_result, jobs))
    report = {
        "mode": mode,
        "states": rows,
        "aggregate": {
            "ce_welfare": _aggregate([r["ce_welfare"] for r in rows]),
            "best_ne_welfare": _aggregate(
                [r["best_ne_welfare"] for r in rows if r["best_ne_welfare"] is not None]
            ),
            "states_without_pure_ne": sum(1 for r in rows if r["n_pure_ne"] == 0),
        },
    }
    if cfg.sweep.include_regret:
        report["aggregate"]["regret_welfare"] = _aggregate(
            [r["regret_welfare"] for r in rows]
        )
    return report


def run_action_sweep(cfg: ExperimentConfig) -> dict:
    """Fig-2a-shaped table: welfare of CE baselines and communication
    equilibria as the action-set size grows."""
    space = types_from_config(cfg)
    levels = cfg.sweep.action_levels or (cfg.power.levels,)
    rows = []
    for m in levels:
        grids = power_grids(cfg, levels=m, nested=cfg.sweep.nested_grids)
        family = GameFamily(grids, cfg.alpha, cfg.noise, cfg.packet_len)
        tensors = per_type_tensors(space, family)
        prior_flat = space.prior.reshape(-1)
        per_state = 0.0
        for q, tensor in zip(prior_flat, tensors):
            if q > 0:
                per_state += q * solve_welfare_ce(tensor).welfare
        avg_values = sum(q * t.values for q, t in zip(prior_flat, tensors))
        avg_tensor = PayoffTensor(family.dims, np.ascontiguousarray(avg_values))
        avg_game_ce = solve_welfare_ce(avg_tensor).welfare
        lit = solve_commeq(space, family, "literal", tensors)
        can = solve_commeq(space, family, "canonical", tensors)
        rows.append({
            "levels": m,
            "ce_per_state_avg": float(per_state),
            "ce_average_game": float(avg_game_ce),
            "commeq_literal": float(lit.welfare),
            "commeq_canonical": float(can.welfare),
        })
    return {"nested_grids": cfg.sweep.nested_grids, "rows": rows}


def run_equilibrium_sweep(cfg: ExperimentConfig, force_enumerate: bool = False,
                          workers: int | None = None, out_dir=None) -> dict:
    """Full sweep per config: channel-state section when the channel is a
    grid, action-set section when a type space is configured. Writes
    sweep.json plus one CSV per section, to a directory made before any
    solve."""
    if cfg.channel.grid is None and not cfg.types.enabled:
        raise ConfigError("sweep: config has neither a channel grid nor types")
    out = _out_dir(out_dir if out_dir is not None else cfg.output_dir)
    report = {"meta": metadata(cfg)}
    if cfg.channel.grid is not None:
        report["channel_sweep"] = run_channel_sweep(cfg, force_enumerate, workers)
    if cfg.types.enabled:
        report["action_sweep"] = run_action_sweep(cfg)
    emit_json(report, out / "sweep.json")
    if "channel_sweep" in report:
        columns = ["state", "n_pure_ne", "best_ne_welfare", "ce_welfare", "ce_violation"]
        if cfg.sweep.include_regret:
            columns += ["regret_welfare", "regret_ce_gap"]
        k = cfg.players
        gains = [f"g{j + 1}{i + 1}" for j in range(k) for i in range(k)]
        write_csv(out / "sweep_states.csv", report["meta"], columns + gains,
                  [[r[c] for c in columns] + [v for row in r["gains"] for v in row]
                   for r in report["channel_sweep"]["states"]])
    if "action_sweep" in report:
        columns = ["levels", "ce_per_state_avg", "ce_average_game", "commeq_literal",
                   "commeq_canonical"]
        write_csv(out / "sweep_actions.csv", report["meta"], columns,
                  [[r[c] for c in columns] for r in report["action_sweep"]["rows"]])
    return report


def sweep_summary(report: dict) -> dict:
    """What ``sweep`` prints: the metadata, the channel sweep's aggregate
    and state count, and the action sweep's rows."""
    summary = {"meta": report["meta"]}
    if "channel_sweep" in report:
        summary["aggregate"] = report["channel_sweep"]["aggregate"]
        summary["states"] = len(report["channel_sweep"]["states"])
    if "action_sweep" in report:
        summary["action_rows"] = report["action_sweep"]["rows"]
    return summary


# -------------------------------------------------------------------- regions

def export_regions(cfg: ExperimentConfig, out_dir=None,
                   directions: int | None = None) -> dict:
    """Three CSVs for a 2-player game: feasible payoff hull, CE payoff
    polygon, NE payoff points; plus a manifest with checksums. The output
    directory is made before any solve."""
    if cfg.players != 2:
        raise ConfigError("region export is limited to 2-player games")
    tensor = single_game_tensor(cfg)
    out = _out_dir(out_dir if out_dir is not None else cfg.output_dir)
    d = directions if directions is not None else cfg.solver.directions

    feasible = convex_hull_ccw(zip(tensor.flat(0).tolist(), tensor.flat(1).tolist()))
    region = ce_payoff_region(tensor, directions=d)
    ne_rows = []
    for prof in enumerate_pure_nash(tensor):
        ne_rows.append((tensor.payoff(0, prof), tensor.payoff(1, prof), "pure"))
    if tensor.dims == (2, 2):
        for (p, q), payoffs in mixed_nash_2x2(tensor):
            if 0.0 < p[0] < 1.0 or 0.0 < q[0] < 1.0:
                ne_rows.append((payoffs[0], payoffs[1], "mixed"))

    meta = metadata(cfg, directions=d)

    files = {
        name: write_csv(out / name, meta, header, rows)
        for name, header, rows in (("feasible_hull.csv", ("u1", "u2"), feasible),
                                   ("ce_region.csv", ("u1", "u2"), region),
                                   ("ne_points.csv", ("u1", "u2", "kind"), ne_rows))
    }

    manifest = {
        "meta": meta,
        "files": {
            name: {"sha256": hashlib.sha256(text.encode()).hexdigest()}
            for name, text in files.items()
        },
        "counts": {
            "feasible_vertices": len(feasible),
            "ce_vertices": len(region),
            "ne_points": len(ne_rows),
        },
    }
    emit_json(manifest, out / "region_manifest.json")
    return manifest
