import numpy as np
import pytest

from powergames.correlated import JointDistribution, ce_violation
from powergames.model import PayoffTensor
from powergames.nash import enumerate_pure_nash, mixed_nash_2x2
from oracles import best_response_set, pure_nash_reference, random_tensor


def tensor_from(values) -> PayoffTensor:
    arr = np.asarray(values, dtype=float)
    return PayoffTensor(arr.shape[1:], arr)


MATCHING_PENNIES = tensor_from([
    [[1.0, -1.0], [-1.0, 1.0]],
    [[-1.0, 1.0], [1.0, -1.0]],
])

# both prefer action 1 regardless of the opponent
DOMINANT = tensor_from([
    [[0.0, 0.0], [1.0, 1.0]],
    [[0.0, 1.0], [0.0, 1.0]],
])

CHICKEN = tensor_from([
    [[6.0, 2.0], [7.0, 0.0]],
    [[6.0, 7.0], [2.0, 0.0]],
])

COORDINATION = tensor_from([
    [[2.0, 0.0], [0.0, 1.0]],
    [[2.0, 0.0], [0.0, 1.0]],
])


class TestBestResponse:
    def test_single_action_player(self):
        t = tensor_from([[[1.0], [2.0]], [[0.0], [0.0]]])  # dims (2, 1)
        assert best_response_set(1, (0,), t) == {0}

    def test_dominant_action(self):
        for other in range(2):
            assert best_response_set(0, (other,), DOMINANT) == {1}
            assert best_response_set(1, (other,), DOMINANT) == {1}

    def test_tie_returns_all(self):
        t = tensor_from([
            [[1.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [0.0, 0.0]],
        ])
        assert best_response_set(0, (1,), t) == {0, 1}

    def test_index_errors(self):
        with pytest.raises(IndexError):
            best_response_set(2, (0,), DOMINANT)
        with pytest.raises(IndexError):
            best_response_set(0, (5,), DOMINANT)


class TestPureNash:
    def test_matching_pennies_has_none(self):
        assert enumerate_pure_nash(MATCHING_PENNIES) == []

    def test_dominant_unique(self):
        assert enumerate_pure_nash(DOMINANT) == [(1, 1)]

    def test_coordination_two(self):
        assert enumerate_pure_nash(COORDINATION) == [(0, 0), (1, 1)]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(13)
        for dims in [(2, 2), (3, 4), (4, 4, 4), (2, 3, 2)]:
            for _ in range(20):
                vals = random_tensor(rng, dims)
                t = PayoffTensor(dims, vals.copy())
                assert enumerate_pure_nash(t) == pure_nash_reference(vals)

    def test_sorted_by_profile_index(self):
        rng = np.random.default_rng(3)
        vals = random_tensor(rng, (4, 4))
        t = PayoffTensor((4, 4), vals.copy())
        ne = enumerate_pure_nash(t)
        keys = [t.encode(p) for p in ne]
        assert keys == sorted(keys)

    def test_deviation_check(self):
        rng = np.random.default_rng(29)
        vals = random_tensor(rng, (3, 3))
        t = PayoffTensor((3, 3), vals.copy())
        for prof in enumerate_pure_nash(t):
            for i in range(2):
                u = t.payoff(i, prof)
                for b in range(3):
                    alt = list(prof)
                    alt[i] = b
                    assert u >= t.payoff(i, tuple(alt))


class TestMixed2x2:
    def test_matching_pennies(self):
        eqs = mixed_nash_2x2(MATCHING_PENNIES)
        assert len(eqs) == 1
        (p, q), (u0, u1) = eqs[0]
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)
        assert q == pytest.approx([0.5, 0.5], abs=1e-12)
        assert u0 == pytest.approx(0.0, abs=1e-12)

    def test_dominant_game(self):
        eqs = mixed_nash_2x2(DOMINANT)
        assert len(eqs) == 1
        (p, q), _ = eqs[0]
        assert p[1] == 1.0 and q[1] == 1.0

    def test_chicken_three_equilibria(self):
        eqs = mixed_nash_2x2(CHICKEN)
        assert len(eqs) == 3
        pure_profiles = {(int(np.argmax(p)), int(np.argmax(q))) for (p, q), _ in eqs[:2]}
        assert pure_profiles == {(0, 1), (1, 0)}
        (p, q), (u0, u1) = eqs[-1]
        # indifference: both mix; verify by best-response values
        a = CHICKEN.player_payoffs(0)
        b = CHICKEN.player_payoffs(1)
        row_vals = a @ q
        col_vals = p @ b
        assert row_vals[0] == pytest.approx(row_vals[1], abs=1e-12)
        assert col_vals[0] == pytest.approx(col_vals[1], abs=1e-12)
        assert 0.0 < p[0] < 1.0 and 0.0 < q[0] < 1.0

    def test_probabilities_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            vals = random_tensor(rng, (2, 2))
            t = PayoffTensor((2, 2), vals.copy())
            for (p, q), _ in mixed_nash_2x2(t):
                assert -1e-12 <= p[0] <= 1 + 1e-12
                assert -1e-12 <= q[0] <= 1 + 1e-12
                assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            mixed_nash_2x2(tensor_from([[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
                                        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]]))


class TestNashCeConsistency:
    def test_pure_ne_point_mass_satisfies_ce_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            vals = random_tensor(rng, (3, 3))
            t = PayoffTensor((3, 3), vals.copy())
            for prof in enumerate_pure_nash(t):
                probs = np.zeros(t.profile_count)
                probs[t.encode(prof)] = 1.0
                dist = JointDistribution(t.dims, probs)
                assert ce_violation(t, dist) <= 1e-12
