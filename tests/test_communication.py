import itertools

import numpy as np
import pytest

from powergames import communication
from powergames.communication import (
    CommDevice,
    GameFamily,
    build_commeq_lp,
    build_type_space,
    commeq_violation,
    conditional_prior,
    per_type_tensors,
    solve_commeq,
)
from powergames.correlated import (
    JointDistribution,
    ce_violation,
    dominance_support,
    solve_welfare_ce,
)
from powergames.errors import BudgetError
from powergames.experiments import device_payload
from powergames.model import PayoffTensor, build_power_grid, grid_from_levels, nested_db_levels
from powergames.simplex import make_problem, solve_lp
from oracles import build_ce_constraints, result_digest


def family(levels=(1.0, 10.0), players=2, alpha=0.01, packet_len=10):
    grid = grid_from_levels(levels)
    return GameFamily((grid,) * players, alpha=alpha, noise=1.0, packet_len=packet_len)


class TestTypeSpace:
    def test_encode_range(self):
        space = build_type_space([0.5, 2.0], players=2)
        for bad in ((0, 3), (2, 0), (0,), (0, 0, 0)):
            with pytest.raises(ValueError):
                space.encode(bad)

    def test_encode_inverts_decode(self):
        space = build_type_space([0.5, 1.0, 2.0], players=2, mode="product")
        assert space.type_dims == (9, 9)
        for t in range(space.joint_count):
            assert space.encode(space.decode(t)) == t

    def test_diagonal_uniform(self):
        space = build_type_space([0.01, 3.0], players=2)
        assert space.type_dims == (2, 2)
        assert space.joint_count == 4
        assert (space.prior == 0.25).all()
        # diagonal: type n has every incoming gain at the n-th grid value
        assert space.types[0][0] == (0.01, 0.01)
        assert space.types[1][1] == (3.0, 3.0)

    def test_diagonal_ten(self):
        grid = np.linspace(0.01, 3.0, 10)
        space = build_type_space(list(grid), players=2)
        assert space.type_dims == (10, 10)

    def test_product_mode(self):
        space = build_type_space([0.01, 3.0], players=2, mode="product")
        assert space.type_dims == (4, 4)
        assert space.joint_count == 16
        assert set(space.types[0]) == {(0.01, 0.01), (0.01, 3.0), (3.0, 0.01), (3.0, 3.0)}

    def test_channel_reconstruction(self):
        space = build_type_space([0.5, 2.0], players=2)
        chan = space.channel_for((0, 1))
        # column i of the channel comes from player i's type
        assert chan.g[0][0] == 0.5 and chan.g[1][0] == 0.5
        assert chan.g[0][1] == 2.0 and chan.g[1][1] == 2.0

    def test_explicit_prior_validation(self):
        with pytest.raises(ValueError):
            build_type_space([1.0, 2.0], players=2, prior=np.array([[0.5, 0.5], [0.5, 0.5]]))
        space = build_type_space([1.0, 2.0], players=2,
                                 prior=np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert space.prior[0, 0] == 0.4

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            build_type_space([], players=2)


class TestConditionalPrior:
    def test_uniform_independent(self):
        space = build_type_space([1.0, 2.0], players=2)
        cond = conditional_prior(space, 0, 1)
        assert cond == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_correlated_table(self):
        prior = np.array([[0.4, 0.1], [0.2, 0.3]])
        space = build_type_space([1.0, 2.0], players=2, prior=prior)
        cond = conditional_prior(space, 0, 0)
        assert cond == pytest.approx([0.8, 0.2], abs=1e-12)
        cond = conditional_prior(space, 1, 1)
        assert cond == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(0.1, 1.0, size=(3, 3))
        space = build_type_space([1.0, 2.0, 3.0], players=2, prior=raw / raw.sum())
        for i in range(2):
            for t in range(3):
                assert conditional_prior(space, i, t).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_type(self):
        prior = np.array([[0.5, 0.5], [0.0, 0.0]])
        space = build_type_space([1.0, 2.0], players=2, prior=prior)
        with pytest.raises(ValueError):
            conditional_prior(space, 0, 1)


def reference_commeq_lp(space, tensors, formulation):
    """(objective, incentive rows, equality rows) of the communication LP,
    written coefficient by coefficient from the definitions: Bayes posteriors
    taken from the prior table, a constant deviation (literal) or the
    deviation map's auxiliary z_a >= what playing b when told a is worth
    (canonical)."""
    k = space.players
    dims = tensors[0].dims
    profiles = list(itertools.product(*[range(d) for d in dims]))
    joints = list(itertools.product(*[range(d) for d in space.type_dims]))
    s = len(profiles)
    n_x = len(joints) * s
    n_aux = 0
    if formulation == "canonical":
        n_aux = sum(space.type_dims[i] ** 2 * dims[i] for i in range(k))

    def col(joint, profile):
        return joints.index(joint) * s + profiles.index(profile)

    def payoff(i, joint, profile):
        return tensors[joints.index(joint)].payoff(i, profile)

    objective = np.zeros(n_x + n_aux)
    for joint in joints:
        for prof in profiles:
            objective[col(joint, prof)] = space.prior[joint] * sum(
                payoff(i, joint, prof) for i in range(k))
    eq_rows = []
    for joint in joints:
        row = np.zeros(n_x + n_aux)
        for prof in profiles:
            row[col(joint, prof)] = 1.0
        eq_rows.append(row)

    rows = []
    aux = n_x
    for i in range(k):
        for t_i in range(space.type_dims[i]):
            truths = [joint for joint in joints if joint[i] == t_i]
            marginal = sum(space.prior[joint] for joint in truths)
            posterior = {joint: space.prior[joint] / marginal for joint in truths}
            for t_rep in range(space.type_dims[i]):
                def reported(joint):
                    return joint[:i] + (t_rep,) + joint[i + 1:]

                def deviation(joint, b, told=None):
                    # minus the posterior payoff of reporting t_rep and then
                    # playing b when told ``told`` (any recommendation if None)
                    row = np.zeros(n_x + n_aux)
                    for prof in profiles:
                        if told is None or prof[i] == told:
                            dev = prof[:i] + (b,) + prof[i + 1:]
                            row[col(reported(joint), prof)] -= (
                                posterior[joint] * payoff(i, joint, dev))
                    return row

                truth = np.zeros(n_x + n_aux)
                for joint in truths:
                    for prof in profiles:
                        truth[col(joint, prof)] += posterior[joint] * payoff(i, joint, prof)
                if formulation == "literal":
                    for b in range(dims[i]):
                        rows.append(truth + sum(deviation(joint, b) for joint in truths))
                else:
                    head = truth.copy()
                    head[aux:aux + dims[i]] = -1.0
                    rows.append(head)
                    for a in range(dims[i]):
                        for b in range(dims[i]):
                            row = sum(deviation(joint, b, told=a) for joint in truths)
                            row[aux + a] = 1.0
                            rows.append(row)
                    aux += dims[i]
    return objective, np.array(rows), np.array(eq_rows)


# type spaces and action grids on which the solves are checked against LPs
# written from the definitions
DEFINITION_PARAMS = [
    ([0.5, 2.0], "diagonal", 2, np.array([[0.4, 0.1], [0.2, 0.3]]), (0.5, 2.0, 8.0)),
    ([0.3, 1.0, 2.5], "diagonal", 2,
     np.random.default_rng(3).dirichlet(np.ones(9)).reshape(3, 3), (0.5, 2.0, 5.0, 12.0)),
    ([0.5, 2.0], "diagonal", 3, None, (0.5, 2.0, 8.0)),
    ([0.5, 2.0], "product", 2, None, (0.5, 2.0, 8.0)),
    # its canonical reference LP once stalled in the solver's last dual pass
    ([0.3, 2.5], "product", 2, None, (0.5, 2.0, 5.0, 12.0)),
]
DEFINITION_IDS = ["correlated-prior", "dirichlet-3-types-4-actions", "three-players",
                  "product-2-points", "product-4-actions"]
DEFINITION_CASES = pytest.mark.parametrize("types, mode, players, prior, levels",
                                           DEFINITION_PARAMS, ids=DEFINITION_IDS)
# sha256 of each literal solve's conditionals and (welfare, violation,
# pivots): the literal master runs over every column, so the canonical
# family's dominance reduction left these bytes as they were. Taken with
# numpy 2.4 and its bundled OpenBLAS on x86-64; a BLAS that rounds
# differently moves them
LITERAL_DIGESTS = [
    "4ceb1ffb3c95e052b07a1bcf1fe860eb2427b8f785d80748f4ae73b4c5f39998",
    "88e164e6112c08e520b230fe96912c6587063b2cd703ef29f8445e9c4737b1df",
    "edf525843cfd364e65d24da756db50bcdeb08da8c3cb5a2506a58266bb326db9",
    "4f0ad749c88bc45db7a962e2a1f03ed5c0070e942223ec1bfaacbef5d7a116a7",
    "acb172b49d6750bc046acb817f4a2671aa2e2e64b067f39307385c89b26e4b72",
]



class TestLpStructure:
    def test_rows_match_definitions_three_actions(self):
        prior = np.array([[0.4, 0.1], [0.2, 0.3]])  # correlated, so posteriors differ
        space = build_type_space([0.5, 2.0], players=2, prior=prior)
        fam = family(levels=(0.5, 2.0, 8.0))
        tensors = per_type_tensors(space, fam)
        prob = build_commeq_lp(space, fam, tensors)
        objective, rows, eq_rows = reference_commeq_lp(space, tensors, "literal")
        assert prob.ineq_coeffs.shape == rows.shape
        np.testing.assert_allclose(prob.ineq_coeffs, rows, rtol=0, atol=1e-12)
        assert (prob.ineq_rhs == 0).all()
        np.testing.assert_allclose(prob.objective, objective, rtol=0, atol=1e-12)
        assert (prob.eq_coeffs == eq_rows).all() and (prob.eq_rhs == 1).all()
        # p(a|t) >= 0 for 4 joint types x 9 profiles
        assert prob.n == 4 * 9

    @DEFINITION_CASES
    def test_canonical_welfare_matches_definitions(self, types, mode, players, prior, levels):
        # the lazily cut master against the auxiliary LP written from the
        # definitions, with one free z_a per (player, true type, report, told a),
        # written as z+ - z- over two nonnegative columns
        space = build_type_space(types, players=players, mode=mode, prior=prior)
        fam = family(levels=levels, players=players)
        tensors = per_type_tensors(space, fam)
        objective, rows, eq_rows = reference_commeq_lp(space, tensors, "canonical")
        n_x = space.joint_count * tensors[0].profile_count

        def split(a):
            return np.concatenate([a, -a[..., n_x:]], axis=-1)

        reference = solve_lp(make_problem(
            split(objective), ineq_rows=[(r, 0.0) for r in split(rows)],
            eq_rows=[(r, 1.0) for r in split(eq_rows)]))
        res = solve_commeq(space, fam, "canonical", tensors=tensors)
        assert reference.status == "optimal"
        assert abs(res.welfare - reference.objective_value) <= 1e-9
        assert res.max_violation <= 1e-8

    @pytest.mark.parametrize("prior, alpha, packet_len", [
        (None, 0.01, 100),
        (np.array([[0.3, 0.0, 0.1], [0.1, 0.2, 0.0], [0.0, 0.1, 0.2]]), 0.05, 10),
        (np.array([[0.3, 0.0, 0.1], [0.1, 0.2, 0.0], [0.0, 0.1, 0.2]]), 0.1, 100),
    ], ids=["uniform", "zero-joint-types", "deep"])
    def test_reduced_canonical_matches_definitions(self, prior, alpha, packet_len):
        # games with dominated actions at every type: the master over the
        # surviving columns against the auxiliary LP over every column
        space = build_type_space([0.3, 1.0, 2.5], players=2, prior=prior)
        fam = family(levels=(0.5, 2.0, 5.0, 12.0), alpha=alpha, packet_len=packet_len)
        tensors = per_type_tensors(space, fam)
        objective, rows, eq_rows = reference_commeq_lp(space, tensors, "canonical")
        n_x = space.joint_count * tensors[0].profile_count
        assert dominance_support(tensors, space.prior).size < n_x

        def split(a):
            return np.concatenate([a, -a[..., n_x:]], axis=-1)

        reference = solve_lp(make_problem(
            split(objective), ineq_rows=[(r, 0.0) for r in split(rows)],
            eq_rows=[(r, 1.0) for r in split(eq_rows)]))
        res = solve_commeq(space, fam, "canonical", tensors=tensors)
        assert reference.status == "optimal"
        assert abs(res.welfare - reference.objective_value) <= 1e-9
        assert res.max_violation <= 1e-8

    @DEFINITION_CASES
    def test_literal_welfare_matches_definitions(self, types, mode, players, prior, levels):
        # the lazily cut master against every literal row written from the
        # definitions
        space = build_type_space(types, players=players, mode=mode, prior=prior)
        fam = family(levels=levels, players=players)
        tensors = per_type_tensors(space, fam)
        objective, rows, eq_rows = reference_commeq_lp(space, tensors, "literal")
        reference = solve_lp(make_problem(
            objective, ineq_rows=[(r, 0.0) for r in rows], eq_rows=[(r, 1.0) for r in eq_rows]))
        res = solve_commeq(space, fam, "literal", tensors=tensors)
        assert reference.status == "optimal"
        assert abs(res.welfare - reference.objective_value) <= 1e-9
        assert res.max_violation <= 1e-8

    @pytest.mark.parametrize("case, digest", zip(DEFINITION_PARAMS, LITERAL_DIGESTS),
                             ids=DEFINITION_IDS)
    def test_literal_outputs_unchanged(self, case, digest):
        types, mode, players, prior, levels = case
        space = build_type_space(types, players=players, mode=mode, prior=prior)
        res = solve_commeq(space, family(levels=levels, players=players), "literal")
        assert result_digest(res) == digest

    def test_literal_row_count(self):
        space = build_type_space([0.5, 2.0], players=2)
        prob = build_commeq_lp(space, family())
        # K * |T_i|^2 * M incentive rows
        assert prob.ineq_coeffs.shape[0] == 2 * 4 * 2
        assert prob.eq_coeffs.shape[0] == 4
        assert prob.n == 4 * 4

    def test_single_type_matches_ce_rows(self):
        space = build_type_space([1.0], players=2)
        fam = family()
        prob = build_commeq_lp(space, fam)
        tensor = per_type_tensors(space, fam)[0]
        ce = build_ce_constraints(tensor)
        # binary actions: constant deviations coincide with obedience rows
        assert prob.ineq_coeffs.shape[0] == ce.ineq_coeffs.shape[0] == 4
        mine = {tuple(np.round(r, 12)) for r in prob.ineq_coeffs}
        ref = {tuple(np.round(r, 12)) for r in ce.ineq_coeffs}
        assert mine == ref

    def test_budget_guard(self):
        grid = list(np.linspace(0.01, 3.0, 35))
        space = build_type_space(grid, players=2)  # |T| = 1225
        fam = GameFamily((build_power_grid(-20, 20, 30),) * 2)
        with pytest.raises(BudgetError):
            build_commeq_lp(space, fam)

    def test_budget_checked_before_tensors(self, monkeypatch):
        calls = []
        build = communication.build_payoff_tensor
        monkeypatch.setattr(communication, "build_payoff_tensor",
                            lambda game: calls.append(1) or build(game))
        grid = list(np.linspace(0.01, 3.0, 35))
        space = build_type_space(grid, players=2)  # |T| = 1225
        fam = GameFamily((build_power_grid(-20, 20, 30),) * 2)
        for formulation in ("literal", "canonical"):
            with pytest.raises(BudgetError):
                solve_commeq(space, fam, formulation)
        assert calls == []

    def test_tableau_budget_guard(self):
        fam = GameFamily((build_power_grid(-20, 20, 25),) * 2)
        # the literal LP has |T_i|^2 * M_i incentive rows per player
        ten = build_type_space(list(np.linspace(0.01, 3.0, 10)), players=2)
        with pytest.raises(BudgetError, match="entries of simplex data"):
            build_commeq_lp(ten, fam)
        # the master of either family starts from one row per joint type
        many = build_type_space(list(np.linspace(0.01, 3.0, 35)), players=2)
        for formulation in ("literal", "canonical"):
            with pytest.raises(BudgetError, match="entries of simplex data"):
                solve_commeq(many, fam, formulation)
        # the paper's two types fit
        build_commeq_lp(build_type_space([0.5, 2.0], players=2), fam)


class TestSolve:
    def test_single_type_literal_equals_ce(self):
        # with one joint type and binary actions the literal LP is the CE LP
        space = build_type_space([1.5], players=2)
        fam = family(levels=(1.0, 10.0))
        res = solve_commeq(space, fam, "literal")
        tensor = per_type_tensors(space, fam)[0]
        ce = solve_welfare_ce(tensor)
        assert res.welfare == pytest.approx(ce.welfare, abs=1e-8)
        assert res.max_violation <= 1e-8

    def test_single_type_canonical_equals_ce_three_actions(self):
        space = build_type_space([1.5], players=2)
        fam = family(levels=(0.5, 2.0, 8.0))
        res = solve_commeq(space, fam, "canonical")
        tensor = per_type_tensors(space, fam)[0]
        ce = solve_welfare_ce(tensor)
        assert res.welfare == pytest.approx(ce.welfare, abs=1e-8)

    def test_single_type_random_3x3_canonical_is_ce_literal_is_coarse_ce(self):
        # one joint type: the canonical LP is the CE LP once its auxiliaries
        # are projected out; the literal LP asks only that no constant action
        # pays more (coarse CE), which this game's welfare optimum exploits
        tensor = PayoffTensor((3, 3), np.random.default_rng(0).uniform(0.0, 1.0, (2, 3, 3)))
        space = build_type_space([1.0], players=2)
        fam = family(levels=(1.0, 2.0, 4.0))
        ce = solve_welfare_ce(tensor).welfare
        can = solve_commeq(space, fam, "canonical", tensors=[tensor])
        lit = solve_commeq(space, fam, "literal", tensors=[tensor])
        assert abs(can.welfare - ce) <= 1e-8
        assert lit.welfare > ce + 1e-3

    def test_canonical_never_above_literal(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            grid = sorted(rng.uniform(0.05, 3.0, 2))
            space = build_type_space(list(grid), players=2)
            m = int(rng.integers(2, 4))
            levels = tuple(sorted(rng.uniform(0.5, 20.0, m)))
            fam = family(levels=levels)
            lit = solve_commeq(space, fam, "literal")
            can = solve_commeq(space, fam, "canonical")
            assert can.welfare <= lit.welfare + 1e-8

    def test_dominant_action_per_type(self):
        # huge power cost makes the lowest level strictly dominant everywhere
        fam = family(levels=(1.0, 3.0), alpha=2.0)
        space = build_type_space([0.5, 2.5], players=2)
        res = solve_commeq(space, fam, "literal")
        for t in range(space.joint_count):
            assert res.device.conditionals[t][0] == pytest.approx(1.0, abs=1e-8)

    def test_welfare_nondecreasing_in_nested_grids(self):
        space = build_type_space([0.01, 3.0], players=2)
        welfares = []
        for m in (2, 3, 4):
            levels = tuple(10.0 ** (d / 10.0) for d in sorted(nested_db_levels(-20.0, 20.0, m)))
            fam = GameFamily((grid_from_levels(levels),) * 2, alpha=0.01,
                             noise=1.0, packet_len=100)
            res = solve_commeq(space, fam, "literal")
            welfares.append(res.welfare)
        assert welfares[0] <= welfares[1] + 1e-8
        assert welfares[1] <= welfares[2] + 1e-8


class TestViolationOracle:
    def test_solver_output_verifies(self):
        space = build_type_space([0.5, 2.0], players=2)
        fam = family()
        res = solve_commeq(space, fam, "literal")
        assert commeq_violation(res.device, fam, "literal") <= 1e-8

    def test_single_type_matches_ce_violation(self):
        space = build_type_space([1.0], players=2)
        fam = family(levels=(1.0, 5.0, 20.0))
        tensors = per_type_tensors(space, fam)
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 1.0, tensors[0].profile_count)
        raw /= raw.sum()
        device = CommDevice(space, fam.dims, raw.reshape(1, -1).copy())
        dist = JointDistribution(fam.dims, raw.copy())
        # constant-action gaps vs per-recommendation gaps: compare canonical,
        # which includes all deviation maps, against the CE oracle bound
        lit = commeq_violation(device, fam, "literal")
        can = commeq_violation(device, fam, "canonical")
        ce = ce_violation(tensors[0], dist)
        assert lit <= can + 1e-12
        assert ce <= can + 1e-12

    def test_single_type_binary_equals_ce_violation(self):
        space = build_type_space([1.0], players=2)
        fam = family(levels=(1.0, 10.0))
        tensors = per_type_tensors(space, fam)
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw = rng.uniform(0.0, 1.0, 4)
            raw /= raw.sum()
            device = CommDevice(space, fam.dims, raw.reshape(1, -1).copy())
            dist = JointDistribution(fam.dims, raw.copy())
            assert commeq_violation(device, fam, "literal") == pytest.approx(
                ce_violation(tensors[0], dist), abs=1e-12
            )

    def test_point_mass_gap_is_best_deviation(self):
        fam = family(levels=(1.0, 3.0), alpha=2.0)  # lowest power dominant
        space = build_type_space([1.0], players=2)
        tensor = per_type_tensors(space, fam)[0]
        probs = np.zeros(4)
        probs[tensor.encode((1, 1))] = 1.0  # both at the dominated high level
        device = CommDevice(space, fam.dims, probs.reshape(1, -1).copy())
        gap = commeq_violation(device, fam, "literal")
        expected = max(
            tensor.payoff(0, (0, 1)) - tensor.payoff(0, (1, 1)),
            tensor.payoff(1, (1, 0)) - tensor.payoff(1, (1, 1)),
        )
        assert gap == pytest.approx(expected, abs=1e-12)

    def test_independent_of_builder_helpers(self, monkeypatch):
        from powergames import correlated

        fam = family(levels=(1.0, 4.0, 20.0))
        space = build_type_space([0.5, 2.0], players=2, prior=[[0.1, 0.2], [0.3, 0.4]])
        tensors = per_type_tensors(space, fam)
        rng = np.random.default_rng(21)
        raw = rng.uniform(0.0, 1.0, (space.joint_count, tensors[0].profile_count))
        device = CommDevice(space, fam.dims, raw / raw.sum(axis=1, keepdims=True))
        expected = {f: commeq_violation(device, fam, f, tensors) for f in ("literal", "canonical")}
        zero_type = CommDevice(build_type_space([0.5, 2.0], players=2,
                                                prior=[[0.5, 0.5], [0.0, 0.0]]),
                               fam.dims, device.conditionals.copy())

        def forbidden(*args, **kwargs):
            raise AssertionError("commeq_violation used a helper of the LP builders")

        names = ("conditional_prior", "_incentive_terms", "_told_index", "_map_rows",
                 "_top", "_deviation_table", "_canonical_cuts", "_literal_cuts")
        for name in names:
            owners = [m for m in (communication, correlated) if hasattr(m, name)]
            assert owners, name
            for module in owners:
                monkeypatch.setattr(module, name, forbidden)
        for f, value in expected.items():
            assert commeq_violation(device, fam, f, tensors) == value
        with pytest.raises(ValueError, match="zero-probability type"):
            commeq_violation(zero_type, fam, "literal", tensors)


class TestDeviceJson:
    def test_key_format_and_order(self):
        space = build_type_space([0.5, 2.0], players=2)
        conds = np.full((4, 4), 0.25)
        device = CommDevice(space, (2, 2), conds)
        payload = device_payload(device)
        keys = list(payload)
        assert keys[0] == "(0.500000,0.500000)|(0.500000,0.500000)"
        assert keys[1] == "(0.500000,0.500000)|(2.000000,2.000000)"
        assert len(keys) == 4
        assert payload[keys[0]] == [0.25, 0.25, 0.25, 0.25]
