import math

import numpy as np
import pytest

from powergames.errors import BudgetError
from powergames.model import (
    ChannelMatrix,
    GameInstance,
    PayoffTensor,
    build_payoff_tensor,
    build_power_grid,
    efficiency,
    grid_from_levels,
    nested_db_levels,
    sinr,
    utility,
)
from oracles import efficiency_reference, sinr_reference


def two_player_game(g=None, alpha=0.01, noise=1.0, packet_len=100, min_db=-20.0,
                    max_db=20.0, levels=25):
    chan = ChannelMatrix.from_array(g if g is not None else [[1.0, 0.5], [0.5, 1.0]])
    grid = build_power_grid(min_db, max_db, levels)
    return GameInstance(chan, (grid,) * chan.players, alpha, noise, packet_len)


class TestPowerGrid:
    def test_paper_setup_grid(self):
        grid = build_power_grid(-20.0, 20.0, 25)
        assert grid.levels == 25
        assert grid.values_linear[0] == pytest.approx(0.01, abs=0)
        assert grid.values_linear[-1] == pytest.approx(100.0, abs=0)
        dbs = [10.0 * math.log10(v) for v in grid.values_linear]
        steps = [b - a for a, b in zip(dbs, dbs[1:])]
        for s in steps:
            assert s == pytest.approx(40.0 / 24.0, rel=1e-12)

    def test_single_level(self):
        grid = build_power_grid(0.0, 0.0, 1)
        assert grid.values_linear == (1.0,)

    def test_three_levels(self):
        grid = build_power_grid(-10.0, 10.0, 3)
        assert grid.values_linear == pytest.approx((0.1, 1.0, 10.0), rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_power_grid(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            build_power_grid(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            build_power_grid(float("nan"), 1.0, 5)
        with pytest.raises(ValueError):
            build_power_grid(0.0, 1.0, 1)  # single level needs equal endpoints

    def test_explicit_levels(self):
        grid = grid_from_levels([0.5, 1.0, 4.0])
        assert grid.levels == 3
        assert grid.values_linear == (0.5, 1.0, 4.0)
        with pytest.raises(ValueError):
            grid_from_levels([1.0, 1.0])

    def test_nested_levels_are_nested(self):
        prev: set[float] = set()
        for m in range(2, 9):
            pts = nested_db_levels(-20.0, 20.0, m)
            assert len(pts) == m
            assert pts == sorted(pts)
            assert prev <= set(pts)
            prev = set(pts)


class TestSinr:
    def test_no_interference(self):
        chan = ChannelMatrix.from_array([[1.0, 0.0], [0.0, 1.0]])
        assert sinr(0, [1.0, 0.0], chan, 1.0) == 1.0

    def test_equal_interference(self):
        chan = ChannelMatrix.from_array([[1.0, 0.0], [1.0, 1.0]])
        assert sinr(0, [1.0, 1.0], chan, 1.0) == 0.5

    def test_matches_reference_three_players(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = rng.uniform(0.01, 3.0, size=(3, 3))
            chan = ChannelMatrix.from_array(g)
            powers = rng.uniform(0.0, 100.0, 3)
            for i in range(3):
                assert sinr(i, powers, chan, 1.3) == pytest.approx(
                    sinr_reference(i, powers, g, 1.3), rel=1e-14
                )

    def test_monotonicity(self):
        rng = np.random.default_rng(5)
        g = rng.uniform(0.1, 2.0, size=(2, 2))
        chan = ChannelMatrix.from_array(g)
        base = sinr(0, [1.0, 1.0], chan, 1.0)
        assert sinr(0, [2.0, 1.0], chan, 1.0) > base
        assert sinr(0, [1.0, 2.0], chan, 1.0) <= base

    def test_bad_noise(self):
        chan = ChannelMatrix.from_array([[1.0]])
        with pytest.raises(ValueError):
            sinr(0, [1.0], chan, 0.0)


class TestEfficiency:
    def test_zero(self):
        assert efficiency(0.0, 100) == 0.0

    def test_half(self):
        assert efficiency(math.log(2.0), 1) == pytest.approx(0.5, abs=1e-15)

    def test_high_precision_point(self):
        # frozen from the decimal reference at 50 digits
        assert efficiency(1.0, 100) == pytest.approx(1.202241007200134e-20, rel=1e-13)
        assert efficiency(1.0, 100) == pytest.approx(
            efficiency_reference(1.0, 100), rel=1e-13
        )

    def test_bounds_and_monotone(self):
        xs = np.linspace(0.0, 30.0, 400)
        vals = [efficiency(float(x), 100) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            efficiency(-0.1, 10)


class TestUtility:
    def test_zero_power(self):
        game = two_player_game()
        profile = [0.0, 50.0]
        assert utility(0, profile, game) == 0.0

    def test_single_player_value(self):
        chan = ChannelMatrix.from_array([[1.0]])
        game = GameInstance(chan, (build_power_grid(0.0, 0.0, 1),), 0.01, 1.0, 1)
        expected = (1.0 - math.exp(-1.0)) - 0.01
        assert utility(0, [1.0], game) == pytest.approx(expected, rel=1e-15)

    def test_compositional_identity(self):
        game = two_player_game()
        rng = np.random.default_rng(3)
        for _ in range(100):
            profile = rng.uniform(0.0, 100.0, 2)
            for i in range(2):
                direct = utility(i, profile, game)
                composed = efficiency(
                    sinr(i, profile, game.channel, game.noise), game.packet_len
                ) - game.alpha * profile[i]
                assert direct == composed


class TestPayoffTensor:
    def test_small_tensor_matches_direct_calls(self):
        game = two_player_game(levels=2, min_db=-10.0, max_db=10.0)
        tensor = build_payoff_tensor(game)
        assert tensor.values.size == 2 * 4
        lv = game.grids[0].values_linear
        for a0 in range(2):
            for a1 in range(2):
                for i in range(2):
                    assert tensor.payoff(i, (a0, a1)) == utility(
                        i, [lv[a0], lv[a1]], game
                    )

    def test_three_player_oracle(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.01, 3.0, size=(3, 3))
        chan = ChannelMatrix.from_array(g)
        grid = build_power_grid(-10.0, 10.0, 3)
        game = GameInstance(chan, (grid,) * 3, 0.02, 1.0, 10)
        tensor = build_payoff_tensor(game)
        assert tensor.values.size == 3 * 27
        for prof in np.ndindex(3, 3, 3):
            powers = [grid.values_linear[a] for a in prof]
            for i in range(3):
                s = sinr_reference(i, powers, g, 1.0)
                expected = (1.0 - math.exp(-s)) ** 10 - 0.02 * powers[i]
                assert tensor.payoff(i, prof) == pytest.approx(expected, rel=1e-12)

    def test_fidelity_bit_exact(self):
        game = two_player_game()
        tensor = build_payoff_tensor(game)
        lv = game.grids[0].values_linear
        rng = np.random.default_rng(21)
        for _ in range(100):
            prof = (int(rng.integers(25)), int(rng.integers(25)))
            i = int(rng.integers(2))
            powers = [lv[prof[0]], lv[prof[1]]]
            assert tensor.payoff(i, prof) == utility(i, powers, game)

    @pytest.mark.parametrize("gains, grids, alpha, noise, packet_len", [
        ([[1.0, 0.5], [0.5, 1.0]], ((-20.0, 20.0, 25),) * 2, 0.01, 1.0, 100),
        ([[2.33556, 0.0], [3.0, 1.33889]], ((-20.0, 20.0, 25),) * 2, 0.01, 1.0, 100),
        ([[0.01, 3.0], [0.0, 0.01]], ((-20.0, 20.0, 25),) * 2, 0.01, 1.0, 100),
        # at L = 1 a last-bit change of the exponential reaches the payoff
        ([[1.0, 0.5], [0.5, 1.0]], ((-20.0, 20.0, 25),) * 2, 0.01, 1.0, 1),
        ([[1.2, 0.3, 2.0], [0.7, 0.05, 0.0], [1.9, 2.5, 0.4]],
         ((-10.0, 10.0, 4), (-20.0, 5.0, 7), (0.0, 20.0, 5)), 0.037, 0.6, 17),
        ([[0.3, 1.1, 0.2], [2.9, 1.0, 1.4], [0.0, 0.8, 2.2]],
         ((-5.0, 15.0, 4), (-15.0, 15.0, 7), (-20.0, 0.0, 5)), 0.002, 2.5, 250),
    ])
    def test_bytes_equal_scalar_utility(self, gains, grids, alpha, noise, packet_len):
        # the tensor is built over the whole power mesh at once; every entry
        # must still be the very float the scalar utility gives
        game = GameInstance(ChannelMatrix.from_array(gains),
                            tuple(build_power_grid(*g) for g in grids),
                            alpha, noise, packet_len)
        tensor = build_payoff_tensor(game)
        levels = [g.values_linear for g in game.grids]
        for prof in np.ndindex(*game.dims):
            powers = [levels[j][a] for j, a in enumerate(prof)]
            for i in range(game.players):
                expected = np.float64(utility(i, powers, game)).tobytes()
                assert tensor.values[(i,) + prof].tobytes() == expected, (i, prof)
                # and the float of the formula in plain Python scalars
                s = sinr(i, powers, game.channel, noise)
                plain = (1.0 - math.exp(-s)) ** packet_len - alpha * powers[i]
                assert np.float64(plain).tobytes() == expected, (i, prof)

    def test_paper_scale_tensor(self):
        tensor = build_payoff_tensor(two_player_game())
        assert tensor.values.size == 2 * 625

    def test_utility_bound(self):
        game = two_player_game()
        tensor = build_payoff_tensor(game)
        pmax = game.grids[0].values_linear[-1]
        assert tensor.values.max() <= 1.0
        assert tensor.values.min() >= -game.alpha * pmax - 1e-12

    def test_index_round_trip(self):
        values = np.zeros((3, 2, 3, 4))
        tensor = PayoffTensor((2, 3, 4), values)
        for idx in range(tensor.profile_count):
            prof = tensor.decode(idx)
            assert tensor.encode(prof) == idx
        # player-major flat layout with player 1 most significant
        assert tensor.encode((1, 2, 3)) == 1 * 12 + 2 * 4 + 3
        for bad in ((1, 2), (1, 2, 3, 0), (2, 0, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                tensor.encode(bad)

    def test_budget_guard(self):
        chan = ChannelMatrix.from_array([[1.0, 0.5], [0.5, 1.0]])
        grid = build_power_grid(-20.0, 20.0, 8000)
        game = GameInstance(chan, (grid, grid))
        with pytest.raises(BudgetError):
            build_payoff_tensor(game)

    def test_validation(self):
        with pytest.raises(ValueError):
            GameInstance(
                ChannelMatrix.from_array([[1.0]]),
                (build_power_grid(0.0, 0.0, 1),),
                alpha=-1.0,
            )
        with pytest.raises(ValueError):
            ChannelMatrix.from_array([[1.0, -2.0], [0.1, 1.0]])
