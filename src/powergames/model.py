"""Power-control game instances and their dense payoff tensors.

A game is K transmitter/receiver pairs on an interference channel. Each
transmitter picks a discrete power level; its payoff is the packet success
probability at its own receiver minus a linear energy cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BudgetError, ConfigError

# Dense tensors above this entry count (K * prod(dims)) are refused.
TENSOR_ENTRY_BUDGET = 10**8
# energy cost per linear power unit, receiver noise power, packet length
DEFAULT_ALPHA = 0.01
DEFAULT_NOISE = 1.0
DEFAULT_PACKET_LEN = 100


@dataclass(frozen=True)
class PowerGrid:
    """Ordered set of transmit power levels for one player.

    ``values_linear`` is nonempty and strictly increasing, in linear power
    units.
    """

    values_linear: tuple[float, ...]

    def __post_init__(self):
        vals = self.values_linear
        if not vals:
            raise ValueError("a grid needs at least one level")
        if any(not math.isfinite(v) or v < 0 for v in vals):
            raise ValueError("grid values must be finite and nonnegative")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("grid values must be strictly increasing")

    @property
    def levels(self) -> int:
        return len(self.values_linear)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def build_power_grid(min_db: float, max_db: float, levels: int) -> PowerGrid:
    """Uniform grid of ``levels`` points on [min_db, max_db], stored linearly."""
    if not (math.isfinite(min_db) and math.isfinite(max_db)):
        raise ValueError("grid bounds must be finite")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if min_db > max_db:
        raise ValueError("min_db must not exceed max_db")
    if levels == 1 and min_db != max_db:
        raise ValueError("a single-level grid needs min_db == max_db")
    dbs = _pinned_linspace(min_db, max_db, levels)
    return PowerGrid(tuple(db_to_linear(d) for d in dbs))


def _pinned_linspace(lo: float, hi: float, points: int) -> list[float]:
    """``points`` evenly spaced values from ``lo`` to ``hi``; the last one is
    exactly ``hi`` (not ``lo`` plus a rounded multiple of the step)."""
    if points == 1:
        return [lo]
    step = (hi - lo) / (points - 1)
    values = [lo + k * step for k in range(points)]
    values[-1] = hi
    return values


def grid_from_levels(values_linear: Sequence[float]) -> PowerGrid:
    """Grid from an explicit strictly increasing list of linear power values."""
    vals = tuple(float(v) for v in values_linear)
    if not vals:
        raise ValueError("empty level list")
    if vals[0] <= 0:
        raise ValueError("linear power levels must be positive")
    return PowerGrid(vals)


def nested_db_levels(min_db: float, max_db: float, levels: int) -> list[float]:
    """dB levels whose sets are nested as ``levels`` grows (bisection order).

    levels=2 gives the endpoints; each further level inserts the midpoint of
    the widest remaining gap, so the M-level set contains the (M-1)-level set.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels == 1:
        return [min_db]
    pts = [min_db, max_db]
    while len(pts) < levels:
        gaps = [(b - a, i) for i, (a, b) in enumerate(zip(pts, pts[1:]))]
        width, i = max(gaps)
        pts.insert(i + 1, pts[i] + width / 2.0)
    return pts


@dataclass(frozen=True)
class ChannelMatrix:
    """K x K gains; ``g[j][i]`` is the gain from transmitter j to receiver i."""

    g: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        k = len(self.g)
        if k < 1 or any(len(row) != k for row in self.g):
            raise ValueError("channel matrix must be square and nonempty")
        for row in self.g:
            for v in row:
                if not math.isfinite(v) or v < 0:
                    raise ValueError("channel gains must be finite and nonnegative")

    @property
    def players(self) -> int:
        return len(self.g)

    @staticmethod
    def from_array(arr) -> "ChannelMatrix":
        a = np.asarray(arr, dtype=float)
        return ChannelMatrix(tuple(tuple(float(v) for v in row) for row in a))


@dataclass(frozen=True)
class GameInstance:
    """Everything needed to evaluate utilities: channel, grids, alpha, noise, L."""

    channel: ChannelMatrix
    grids: tuple[PowerGrid, ...]
    alpha: float = DEFAULT_ALPHA
    noise: float = DEFAULT_NOISE
    packet_len: int = DEFAULT_PACKET_LEN

    def __post_init__(self):
        if len(self.grids) != self.channel.players:
            raise ValueError("one power grid per player required")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive")
        if not (self.noise > 0 and math.isfinite(self.noise)):
            raise ValueError("noise must be positive")
        if self.packet_len < 1:
            raise ValueError("packet_len must be >= 1")

    @property
    def players(self) -> int:
        return self.channel.players

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(g.levels for g in self.grids)


def sinr(i: int, profile: Sequence[float], channel: ChannelMatrix, noise: float) -> float:
    """Signal-to-interference-plus-noise ratio at receiver i.

    ``profile`` holds linear transmit powers for all K players: floats, or
    arrays that broadcast together (then the ratio is an array).
    """
    if noise <= 0:
        raise ValueError("noise must be positive")
    g = channel.g
    k = channel.players
    if len(profile) != k:
        raise ValueError("profile length mismatch")
    if not 0 <= i < k:
        raise IndexError("player index out of range")
    interference = 0.0
    for j in range(k):
        if j != i:
            interference += profile[j] * g[j][i]
    return profile[i] * g[i][i] / (noise + interference)


def efficiency(x, packet_len: int):
    """Packet success probability (1 - e^-x)^L; in [0, 1], nondecreasing.

    ``x`` is a SINR (the result is a float) or an array of them. The
    exponential runs as ``math.exp`` per entry, and the power is
    ``np.float_power``, the C ``pow`` that float ``**`` calls: the SIMD
    ``np.exp`` and ``np.power`` may round the last bit differently.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("SINR must be nonnegative")
    if packet_len < 1:
        raise ValueError("packet_len must be >= 1")
    e = np.fromiter(map(math.exp, (-x).ravel().tolist()), float, x.size)
    out = np.float_power(1.0 - e.reshape(x.shape), packet_len)
    return float(out) if out.ndim == 0 else out


def utility(i: int, profile: Sequence[float], game: GameInstance) -> float:
    """Goodput-minus-cost payoff of player i at a linear power profile."""
    s = sinr(i, profile, game.channel, game.noise)
    return efficiency(s, game.packet_len) - game.alpha * profile[i]


@dataclass(frozen=True)
class PayoffTensor:
    """Dense per-player payoffs over all joint action profiles.

    Layout: ``values[i]`` has shape ``dims``; flattening is C-order, i.e.
    mixed-radix with player 1's action as the most significant digit.
    """

    dims: tuple[int, ...]
    values: np.ndarray = field(repr=False)  # shape (K, *dims), read-only

    def __post_init__(self):
        k = self.values.shape[0]
        if self.values.shape[1:] != self.dims or k != len(self.dims):
            raise ValueError("tensor shape mismatch")
        if not np.isfinite(self.values).all():
            raise ValueError("tensor entries must be finite")
        self.values.setflags(write=False)

    @property
    def players(self) -> int:
        return len(self.dims)

    @property
    def profile_count(self) -> int:
        return int(np.prod(self.dims))

    def player_payoffs(self, i: int) -> np.ndarray:
        """Payoff array of player i, shape ``dims``."""
        return self.values[i]

    def payoff(self, i: int, profile: Sequence[int]) -> float:
        return float(self.values[i][tuple(profile)])

    def flat(self, i: int) -> np.ndarray:
        """Payoffs of player i over mixed-radix profile indices."""
        return self.values[i].reshape(-1)

    def welfare_flat(self) -> np.ndarray:
        """Sum of all players' payoffs per mixed-radix profile index."""
        return self.values.reshape(self.players, -1).sum(axis=0)

    def encode(self, profile: Sequence[int]) -> int:
        return _encode(profile, self.dims)

    def decode(self, index: int) -> tuple[int, ...]:
        return _decode(index, self.dims)


def _encode(digits: Sequence[int], dims: Sequence[int]) -> int:
    """Mixed-radix index of ``digits``, the first digit most significant (the
    C-order layout of profiles and joint types); ValueError when the digit
    count does not match ``dims`` or a digit is out of range."""
    return int(np.ravel_multi_index(tuple(digits), tuple(dims)))


def _decode(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    """The digits whose ``_encode`` is ``index``; ValueError out of range."""
    return tuple(int(d) for d in np.unravel_index(index, tuple(dims)))


def build_payoff_tensor(game: GameInstance) -> PayoffTensor:
    """Evaluate every player's utility at every joint power profile.

    Entry for entry the same float as ``utility``: ``sinr`` and
    ``efficiency`` run unchanged over the power mesh, with the same IEEE
    operations in the same order as at one profile.
    """
    dims = game.dims
    total = game.players * int(np.prod(dims))
    if total > TENSOR_ENTRY_BUDGET:
        raise BudgetError(
            f"payoff tensor needs {total} entries, budget is {TENSOR_ENTRY_BUDGET}"
        )
    mesh = np.meshgrid(*[np.array(g.values_linear) for g in game.grids], indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        sinrs = np.array([sinr(i, mesh, game.channel, game.noise) for i in range(game.players)])
        values = efficiency(sinrs, game.packet_len) - game.alpha * np.array(mesh)
    if not np.isfinite(values).all():
        raise ConfigError(f"payoffs overflow (channel {game.channel.g}, top power levels "
                          f"{[g.values_linear[-1] for g in game.grids]}, alpha "
                          f"{game.alpha!r}); lower the gains, the power levels or alpha")
    return PayoffTensor(dims, values)
