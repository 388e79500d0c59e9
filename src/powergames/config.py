"""Experiment configuration: JSON schema, strict loading, canonical hashing.

The frozen dataclasses below are the schema: each key is a field declared by
``_key`` with its default and the reader of its JSON value (other fields are
derived). Unknown keys and malformed values raise ``ConfigError`` naming the
dotted key. The resolved configuration (all defaults filled in) is what gets
hashed into output metadata; rerunning a config byte-reproduces every
numeric payload.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Optional

from .communication import FORMULATIONS, TYPE_MODES
from .correlated import REGION_DIRECTIONS
from .errors import ConfigError
from .model import DEFAULT_ALPHA, DEFAULT_NOISE, DEFAULT_PACKET_LEN, db_to_linear
from .regret import RULES


# ------------------------------------------------ readers of one JSON value

def _number(value, key: str, positive: bool = False) -> float:
    # the bound also rejects NaN, and integers too large for a float
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (value > 0 or not positive)):
        return float(value)
    raise ConfigError(f"{key}: must be a {'positive ' * positive}finite number, got {value!r}")


def _decibels(value, key: str) -> float:
    """A power in dB whose linear value is a finite normal float: above that
    range it overflows, and below it grid levels round to equal values."""
    db = _number(value, key)
    try:
        linear = db_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not sys.float_info.min <= linear <= sys.float_info.max:
        raise ConfigError(f"{key}: {value!r} dB is not a finite normal linear power "
                          "(about -3076 to 3082 dB)")
    return db


def _integer(value, key: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{key}: must be an integer >= {minimum}, got {value!r}")
    return value


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: must be true or false, got {value!r}")
    return value


def _choice(value, key: str, options: tuple[str, ...]) -> str:
    if not isinstance(value, str) or value not in options:
        raise ConfigError(f"{key}: must be one of {options}, got {value!r}")
    return value


def _text(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key}: must be a nonempty string, got {value!r}")
    return value


def _levels(value, key: str, item) -> tuple:
    """Nonempty strictly increasing list, each entry read by ``item``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key}: must be a nonempty list, got {value!r}")
    values = tuple(item(v, f"{key}[{n}]") for n, v in enumerate(value))
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ConfigError(f"{key}: need a strictly increasing list")
    return values


def _matrix(value, key: str) -> tuple[tuple[float, ...], ...]:
    """Nonempty square array of finite, nonnegative gains."""
    if (not isinstance(value, list) or not value
            or any(not isinstance(row, list) or len(row) != len(value) for row in value)):
        raise ConfigError(f"{key}: must be a square array, got {value!r}")
    out = tuple(tuple(_number(v, f"{key}[{j}][{i}]") for i, v in enumerate(row))
                for j, row in enumerate(value))
    if any(v < 0 for row in out for v in row):
        raise ConfigError(f"{key}: gains must be finite and >= 0")
    return out


def _read(raw, key: str, cls):
    """``cls`` from the JSON object ``raw`` of section ``key``: each present
    key through its field's reader, each absent key at its field's default."""
    name = key or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected an object")
    keys = {k: f for k, f in _fields(cls).items() if "read" in f.metadata}
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {sorted(unknown)}")
    values = {}
    for k, value in raw.items():
        f = keys[k]
        if value is None and f.default is None:
            continue
        values[k] = f.metadata["read"](value, f"{key}.{k}" if key else k)
    return cls(**values)


def _key(default, read=_read, **bounds):
    """A config key: its default and the reader of its value. A dataclass
    ``default`` is a nested section, defaulted from its own keys."""
    if isinstance(default, type):
        return field(default_factory=default, metadata={"read": partial(_read, cls=default)})
    return field(default=default, metadata={"read": partial(read, **bounds)})


# ------------------------------------------------------------------ schema

@dataclass(frozen=True)
class PowerSpec:
    min_db: float = _key(-20.0, _decibels)
    max_db: float = _key(20.0, _decibels)
    levels: int = _key(25, _integer, minimum=1)
    levels_linear: Optional[tuple[float, ...]] = _key(
        None, _levels, item=partial(_number, positive=True))


@dataclass(frozen=True)
class ChannelGridSpec:
    min: float = _key(0.01, _number, positive=True)
    max: float = _key(3.0, _number, positive=True)
    points: int = _key(10, _integer, minimum=1)


@dataclass(frozen=True)
class ChannelSweepSpec:
    mode: str = _key("sample", _choice, options=("sample", "enumerate"))
    count: int = _key(200, _integer, minimum=1)
    seed: int = _key(0, _integer, minimum=0)


@dataclass(frozen=True)
class ChannelSpec:
    matrix: Optional[tuple[tuple[float, ...], ...]] = _key(None, _matrix)
    grid: Optional[ChannelGridSpec] = _key(None, cls=ChannelGridSpec)
    sweep: ChannelSweepSpec = _key(ChannelSweepSpec)


@dataclass(frozen=True)
class TypesSpec:
    enabled: bool = False          # derived: the config has a types section
    mode: str = _key("diagonal", _choice, options=TYPE_MODES)
    min: float = _key(0.01, _number, positive=True)
    max: float = _key(3.0, _number, positive=True)
    points: int = _key(2, _integer, minimum=1)


@dataclass(frozen=True)
class SolverSpec:
    formulation: str = _key("literal", _choice, options=FORMULATIONS)
    directions: int = _key(REGION_DIRECTIONS, _integer, minimum=4)


@dataclass(frozen=True)
class LearningSpec:
    steps: int = _key(100_000, _integer, minimum=1)
    seed: int = _key(1, _integer, minimum=0)
    mu: Optional[float] = _key(None, _number, positive=True)
    rule: str = _key("conditional", _choice, options=RULES)


@dataclass(frozen=True)
class SweepSpec:
    include_regret: bool = _key(False, _boolean)
    workers: int = _key(0, _integer, minimum=0)    # 0 = available parallelism
    action_levels: Optional[tuple[int, ...]] = _key(
        None, _levels, item=partial(_integer, minimum=1))
    nested_grids: bool = _key(True, _boolean)


@dataclass(frozen=True)
class ExperimentConfig:
    players: int = _key(2, _integer, minimum=1)
    power: PowerSpec = _key(PowerSpec)
    channel: ChannelSpec = _key(ChannelSpec)
    alpha: float = _key(DEFAULT_ALPHA, _number, positive=True)
    noise: float = _key(DEFAULT_NOISE, _number, positive=True)
    packet_len: int = _key(DEFAULT_PACKET_LEN, _integer, minimum=1)
    types: TypesSpec = _key(TypesSpec)
    solver: SolverSpec = _key(SolverSpec)
    learning: LearningSpec = _key(LearningSpec)
    sweep: SweepSpec = _key(SweepSpec)
    output_dir: str = _key("out", _text)

    def resolved(self) -> dict:
        """Plain dict with every default filled in (hash/metadata source)."""
        return asdict(self)

    def sha256(self) -> str:
        payload = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def key_reader(key: str):
    """The reader of the dotted config ``key``, for a flag that overrides it."""
    cls = ExperimentConfig
    *sections, last = key.split(".")
    for name in sections:
        cls = _fields(cls)[name].default_factory
    return partial(_fields(cls)[last].metadata["read"], key=key)


def _fields(cls) -> dict:
    return {f.name: f for f in dataclasses.fields(cls)}


def parse_config(raw: dict) -> ExperimentConfig:
    cfg = _read(raw, "", ExperimentConfig)
    power, channel = cfg.power, cfg.channel

    if power.levels_linear is not None:
        if cfg.sweep.action_levels is not None:
            raise ConfigError("sweep.action_levels: cannot be combined with "
                              "power.levels_linear, which fixes the action grid")
        power = replace(power, min_db=0.0, max_db=0.0, levels=len(power.levels_linear))
    elif power.min_db > power.max_db:
        raise ConfigError("power.min_db: must not exceed power.max_db")

    if power.min_db != power.max_db:
        # build_power_grid takes a single level only as the point min_db == max_db
        if power.levels == 1:
            raise ConfigError("power.levels: 1 needs power.min_db == power.max_db")
        if not cfg.sweep.nested_grids and 1 in (cfg.sweep.action_levels or ()):
            raise ConfigError("sweep.action_levels: 1 needs power.min_db == "
                              "power.max_db, or nested_grids")

    if channel.matrix is None and channel.grid is None:
        raise ConfigError("channel: needs either 'matrix' or 'grid'")
    if channel.matrix is not None and len(channel.matrix) != cfg.players:
        raise ConfigError("channel.matrix: must be a players x players array")
    if channel.grid is not None and channel.grid.min > channel.grid.max:
        raise ConfigError("channel.grid.min: must not exceed channel.grid.max")
    if cfg.types.min > cfg.types.max:
        raise ConfigError("types.min: must not exceed types.max")

    return replace(cfg, power=power, types=replace(cfg.types, enabled="types" in raw))


def load_config(path) -> ExperimentConfig:
    """Read, parse and validate a JSON config; fully defaulted on return."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)
