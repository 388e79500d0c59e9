import numpy as np
import pytest

from powergames.correlated import (
    CePolytopeSolver,
    JointDistribution,
    ce_payoff_region,
    ce_violation,
    mediator_sample,
    solve_directional_ce,
    solve_welfare_ce,
)
from powergames.geometry import convex_hull_ccw
from powergames.model import (
    ChannelMatrix,
    GameInstance,
    PayoffTensor,
    build_payoff_tensor,
    build_power_grid,
)
from powergames.nash import enumerate_pure_nash
from oracles import build_ce_constraints, ce_gain_reference, polygon_contains, random_tensor
from test_nash import CHICKEN, DOMINANT, MATCHING_PENNIES, tensor_from


def power_tensor(gains, levels=25, seed_game=None, alpha=0.01, packet_len=100):
    chan = ChannelMatrix.from_array(gains)
    grid = build_power_grid(-20.0, 20.0, levels)
    game = GameInstance(chan, (grid,) * chan.players, alpha, 1.0, packet_len)
    return build_payoff_tensor(game)


class TestConstraintBuilder:
    def test_row_counts_2x2(self):
        prob = build_ce_constraints(DOMINANT)
        assert prob.ineq_coeffs.shape == (4, 4)
        assert prob.eq_coeffs.shape == (1, 4)

    def test_row_counts_paper_scale(self):
        tensor = power_tensor([[1.0, 0.5], [0.5, 1.0]])
        prob = build_ce_constraints(tensor)
        assert prob.ineq_coeffs.shape[0] == 2 * 25 * 24
        assert prob.n == 625

    def test_coefficients_match_hand_expansion(self):
        rng = np.random.default_rng(4)
        vals = random_tensor(rng, (2, 2))
        t = PayoffTensor((2, 2), vals.copy())
        prob = build_ce_constraints(t)
        u0, u1 = vals[0], vals[1]
        # rows ordered (player, recommended a, deviation b), b != a;
        # variables ordered (a0, a1) mixed-radix
        expected = np.array([
            [u0[0, 0] - u0[1, 0], u0[0, 1] - u0[1, 1], 0.0, 0.0],
            [0.0, 0.0, u0[1, 0] - u0[0, 0], u0[1, 1] - u0[0, 1]],
            [u1[0, 0] - u1[0, 1], 0.0, u1[1, 0] - u1[1, 1], 0.0],
            [0.0, u1[0, 1] - u1[0, 0], 0.0, u1[1, 1] - u1[1, 0]],
        ])
        assert prob.ineq_coeffs == pytest.approx(expected, abs=0)
        assert (prob.ineq_rhs == 0).all()
        assert (prob.eq_coeffs == 1).all()
        assert prob.eq_rhs[0] == 1.0


class TestWelfareCe:
    def test_dominant_point_mass(self):
        rep = solve_welfare_ce(DOMINANT)
        probs = rep.distribution.probs
        assert probs[DOMINANT.encode((1, 1))] == pytest.approx(1.0, abs=1e-9)
        assert rep.max_violation <= 1e-8

    def test_matching_pennies_uniform(self):
        rep = solve_welfare_ce(MATCHING_PENNIES)
        assert rep.distribution.probs == pytest.approx([0.25] * 4, abs=1e-6)
        assert rep.welfare == pytest.approx(0.0, abs=1e-9)

    def test_welfare_dominates_pure_ne(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            vals = random_tensor(rng, (3, 3))
            t = PayoffTensor((3, 3), vals.copy())
            rep = solve_welfare_ce(t)
            for prof in enumerate_pure_nash(t):
                ne_welfare = sum(t.payoff(i, prof) for i in range(2))
                assert rep.welfare >= ne_welfare - 1e-8
            assert rep.max_violation <= 1e-8
            assert rep.welfare == pytest.approx(sum(rep.per_player_value), abs=1e-9)

    def test_power_game_m25(self):
        tensor = power_tensor([[1.0, 2.1], [1.7, 0.9]])
        rep = solve_welfare_ce(tensor)
        assert rep.max_violation <= 1e-8
        best_ne = max(
            (sum(tensor.payoff(i, p) for i in range(2)) for p in enumerate_pure_nash(tensor)),
            default=None,
        )
        if best_ne is not None:
            assert rep.welfare >= best_ne - 1e-8

    def test_dominated_action_gets_no_mass(self):
        # action 0 of player 0 strictly dominated by action 1
        solver = CePolytopeSolver.for_tensor(DOMINANT)
        objective = np.zeros(4)
        objective[DOMINANT.encode((0, 0))] = 1.0
        objective[DOMINANT.encode((0, 1))] = 1.0
        _, value, _ = solver.maximize(objective)
        assert value <= 1e-9


class TestDirectionalCe:
    def test_equal_weights_match_welfare(self):
        rng = np.random.default_rng(6)
        vals = random_tensor(rng, (3, 3))
        t = PayoffTensor((3, 3), vals.copy())
        a = solve_welfare_ce(t)
        b = solve_directional_ce(t, (1.0, 1.0))
        assert a.welfare == pytest.approx(b.welfare, abs=1e-9)

    def test_unit_weight_beats_best_ne_payoff(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            vals = random_tensor(rng, (3, 3))
            t = PayoffTensor((3, 3), vals.copy())
            ne = enumerate_pure_nash(t)
            for i in range(2):
                w = [0.0, 0.0]
                w[i] = 1.0
                rep = solve_directional_ce(t, w)
                for prof in ne:
                    assert rep.per_player_value[i] >= t.payoff(i, prof) - 1e-8

    def test_opposite_directions_bracket_ne(self):
        rng = np.random.default_rng(19)
        vals = random_tensor(rng, (3, 3))
        t = PayoffTensor((3, 3), vals.copy())
        w = np.array([0.7, -0.3])
        hi = solve_directional_ce(t, w)
        lo = solve_directional_ce(t, -w)
        hi_proj = w @ np.asarray(hi.per_player_value)
        lo_proj = w @ np.asarray(lo.per_player_value)
        for prof in enumerate_pure_nash(t):
            proj = sum(w[i] * t.payoff(i, prof) for i in range(2))
            assert lo_proj - 1e-8 <= proj <= hi_proj + 1e-8

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            solve_directional_ce(DOMINANT, (0.0, 0.0))


class TestViolationOracle:
    def test_point_mass_on_ne_is_zero(self):
        probs = np.zeros(4)
        probs[DOMINANT.encode((1, 1))] = 1.0
        assert ce_violation(DOMINANT, JointDistribution((2, 2), probs)) == 0.0

    def test_point_mass_off_ne_equals_best_gain(self):
        probs = np.zeros(4)
        probs[DOMINANT.encode((0, 0))] = 1.0
        dist = JointDistribution((2, 2), probs)
        # best unilateral gain at (0,0): player 0 moving to 1 gains 1.0
        assert ce_violation(DOMINANT, dist) == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(14)
        for dims in [(2, 2), (3, 2), (3, 3, 2), (25, 25), (3, 4, 2)]:
            vals = random_tensor(rng, dims)
            t = PayoffTensor(dims, vals.copy())
            raw = rng.uniform(0.0, 1.0, t.profile_count)
            dist = JointDistribution(dims, raw / raw.sum())
            assert ce_violation(t, dist) == pytest.approx(
                ce_gain_reference(vals, dist.probs), abs=1e-12
            )

    def test_independent_of_master_helpers(self, monkeypatch):
        from powergames import correlated

        rng = np.random.default_rng(15)
        dims = (3, 4, 2)
        t = PayoffTensor(dims, random_tensor(rng, dims))
        raw = rng.uniform(0.0, 1.0, t.profile_count)
        dist = JointDistribution(dims, raw / raw.sum())
        expected = ce_violation(t, dist)

        def forbidden(*args, **kwargs):
            raise AssertionError("ce_violation used a helper of the LP master")

        for name in ("_told_index", "_map_rows", "_top", "_deviation_table",
                     "_canonical_cuts"):
            assert hasattr(correlated, name), name
            monkeypatch.setattr(correlated, name, forbidden)
        assert ce_violation(t, dist) == expected

    def test_dimension_mismatch(self):
        probs = np.full(4, 0.25)
        with pytest.raises(ValueError):
            ce_violation(tensor_from([[[0.0] * 3] * 2] * 2), JointDistribution((2, 2), probs))


class TestRegion:
    def test_matching_pennies_single_point(self):
        region = ce_payoff_region(MATCHING_PENNIES, directions=16)
        assert len(region) == 1
        assert region[0] == pytest.approx((0.0, 0.0), abs=1e-8)

    def test_dominant_single_point(self):
        region = ce_payoff_region(DOMINANT, directions=8)
        assert len(region) == 1
        assert region[0] == pytest.approx((1.0, 1.0), abs=1e-8)

    def test_contains_ne_points_and_inside_feasible_hull(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            vals = random_tensor(rng, (3, 3))
            t = PayoffTensor((3, 3), vals.copy())
            region = ce_payoff_region(t, directions=24)
            feasible = convex_hull_ccw(
                list(zip(t.flat(0).tolist(), t.flat(1).tolist()))
            )
            for prof in enumerate_pure_nash(t):
                pt = (t.payoff(0, prof), t.payoff(1, prof))
                assert polygon_contains(region, pt, tol=1e-7)
            for v in region:
                assert polygon_contains(feasible, v, tol=1e-7)

    def test_hull_drops_a_point_within_rounding_of_an_edge(self):
        # the support points of the fig2a_actions.json region at one commit:
        # the first lies 2.9e-18 off the edge u1 = -0.0001 between the next
        # and the last, so it once made a 4th vertex that the pivot path's
        # low bits took away again
        on_edge = (-0.00010000000000000289, 0.17029753716645352)
        points = [on_edge, (-9.999999999999593e-05, -0.00010000000000006531),
                  (0.8944916177316319, -0.0001), (-0.0001, 0.8944916177316319)]
        hull = convex_hull_ccw(points)
        assert on_edge not in hull and len(hull) == 3
        # a point 1e-9 outside that edge is a vertex
        outside = (-0.0001 - 1e-9, 0.17029753716645352)
        assert outside in convex_hull_ccw(points[1:] + [outside])

    def test_chicken_region_beats_ne_hull(self):
        region = ce_payoff_region(CHICKEN, directions=32)
        welfare_vertex = max(v[0] + v[1] for v in region)
        # best pure NE welfare is 9; correlation reaches strictly higher
        assert welfare_vertex > 9.0 + 1e-6

    def test_region_requires_two_players(self):
        vals = np.zeros((3, 2, 2, 2))
        with pytest.raises(ValueError):
            ce_payoff_region(PayoffTensor((2, 2, 2), vals), directions=8)

    def test_csv_shape(self, tmp_path):
        from powergames.config import parse_config
        from powergames.experiments import metadata, write_csv

        cfg = parse_config({"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}})
        text = write_csv(tmp_path / "r.csv", metadata(cfg), ("u1", "u2"),
                         [(0.5, 0.25), (1.0, 0.125)])
        assert (tmp_path / "r.csv").read_text() == text
        assert text.endswith("\nu1,u2\n0.5,0.25\n1.0,0.125\n")


class TestMediatorSample:
    def test_point_mass(self):
        probs = np.zeros(4)
        probs[2] = 1.0
        dist = JointDistribution((2, 2), probs)
        for seed in range(10):
            assert mediator_sample(dist, seed) == (1, 0)

    def test_frequencies(self):
        dist = JointDistribution((2, 2), np.full(4, 0.25))
        counts = np.zeros(4)
        for seed in range(100_000):
            prof = mediator_sample(dist, seed)
            counts[prof[0] * 2 + prof[1]] += 1
        freqs = counts / counts.sum()
        assert freqs == pytest.approx([0.25] * 4, abs=0.01)

    def test_deterministic(self):
        dist = JointDistribution((2, 2), np.array([0.1, 0.2, 0.3, 0.4]))
        assert mediator_sample(dist, 77) == mediator_sample(dist, 77)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution((2, 2), np.zeros(4))


class TestDistribution:
    def test_clamps_dust(self):
        raw = np.array([0.5, 0.5, -5e-13, 1e-13])
        dist = JointDistribution.from_raw((2, 2), raw)
        assert dist.probs.min() >= 0.0
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            JointDistribution.from_raw((2, 2), np.array([0.6, 0.5, -1e-6, 0.0]))
