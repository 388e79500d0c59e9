import copy
from pathlib import Path

import numpy as np
import pytest

from powergames.config import load_config
from powergames.correlated import ce_violation, solve_welfare_ce
from powergames.errors import MuTooSmallError
from powergames.experiments import channel_states, game_from_config
from powergames.model import PayoffTensor, build_payoff_tensor
from powergames.regret import (
    _BLOCK,
    _CHUNK,
    _advance,
    _repeat,
    _steps,
    default_mu,
    empirical_distribution,
    rm_init,
    rm_run,
    rm_step,
)
from oracles import random_tensor, reference_rm_run, reference_rm_step
from test_nash import DOMINANT, MATCHING_PENNIES


class TestStep:
    def test_zero_regret_repeats_action(self):
        state = rm_init(DOMINANT, seed=0)
        first = rm_step(state, DOMINANT, mu=10.0)
        # force all regrets nonpositive: the next action must repeat
        for d in state.diffs:
            d[:] = -1.0
        second = rm_step(state, DOMINANT, mu=10.0)
        assert second == first

    def test_mu_too_small(self):
        state = rm_init(DOMINANT, seed=0)
        rm_step(state, DOMINANT, mu=10.0)
        state.diffs[0][:] = 50.0
        state.diffs[1][:] = 50.0
        with pytest.raises(MuTooSmallError, match=r"mu=1e-06 .* payoff spread = 1\.0 "):
            rm_step(state, DOMINANT, mu=1e-6)

    def test_hand_trace_conditional(self):
        # replay the realized history through the update formula by hand
        tensor = MATCHING_PENNIES
        mu = default_mu(tensor)
        state = rm_init(tensor, seed=42)
        history = [rm_step(state, tensor, mu) for _ in range(2)]
        expected = [np.zeros((2, 2)), np.zeros((2, 2))]
        for prof in history:
            for i in range(2):
                held = prof[i]
                for b in range(2):
                    alt = list(prof)
                    alt[i] = b
                    expected[i][held, b] += tensor.payoff(i, tuple(alt)) - tensor.payoff(i, prof)
        for i in range(2):
            assert state.diffs[i] == pytest.approx(expected[i], abs=0)
        assert state.t == 2

    def test_hand_trace_literal(self):
        tensor = MATCHING_PENNIES
        mu = default_mu(tensor)
        state = rm_init(tensor, seed=42, rule="paper-literal")
        history = [rm_step(state, tensor, mu) for _ in range(3)]
        expected = [np.zeros((2, 2)), np.zeros((2, 2))]
        for prof in history:
            for i in range(2):
                # every row accumulates the same switch differences
                for a in range(2):
                    for b in range(2):
                        alt = list(prof)
                        alt[i] = b
                        expected[i][a, b] += tensor.payoff(i, tuple(alt)) - tensor.payoff(i, prof)
        for i in range(2):
            assert state.diffs[i] == pytest.approx(expected[i], abs=0)

    def test_probabilities_valid_along_run(self):
        rng = np.random.default_rng(1)
        vals = random_tensor(rng, (3, 3))
        tensor = PayoffTensor((3, 3), vals.copy())
        mu = default_mu(tensor)
        state = rm_init(tensor, seed=7)
        for _ in range(500):
            rm_step(state, tensor, mu)
            regs = state.regrets()
            for i in range(2):
                held = state.last[i]
                switch = regs[i][held] / mu
                switch[held] = 0.0
                assert switch.min() >= 0.0
                assert switch.sum() <= 1.0 + 1e-12


class TestRun:
    def test_dominant_concentrates(self):
        res = rm_run(DOMINANT, steps=10_000, seed=3)
        idx = DOMINANT.encode((1, 1))
        assert res.empirical.probs[idx] >= 0.95

    def test_matching_pennies_converges_to_ce(self):
        res = rm_run(MATCHING_PENNIES, steps=100_000, seed=5)
        assert ce_violation(MATCHING_PENNIES, res.empirical) <= 0.05

    def test_single_step_point_mass(self):
        res = rm_run(DOMINANT, steps=1, seed=11)
        assert res.empirical.probs.max() == 1.0
        assert res.state.t == 1

    def test_deterministic(self):
        a = rm_run(MATCHING_PENNIES, steps=2000, seed=9)
        b = rm_run(MATCHING_PENNIES, steps=2000, seed=9)
        assert (a.empirical.probs == b.empirical.probs).all()
        assert a.trace == b.trace

    def test_convergence_small_random_games(self):
        rng = np.random.default_rng(123)
        for k in range(10):
            dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            vals = random_tensor(rng, dims)
            tensor = PayoffTensor(dims, vals.copy())
            spread = float(vals.max() - vals.min())
            res = rm_run(tensor, steps=100_000, seed=int(rng.integers(1 << 30)))
            assert ce_violation(tensor, res.empirical) <= 0.05 * spread, f"game {k}"

    def test_not_above_optimal_ce(self):
        # the optimal-CE welfare bounds any CE; finite-run play is only an
        # approximate CE, so this is checked on the power-game family where
        # it holds with margin, not on adversarial random tensors
        from powergames.model import (
            ChannelMatrix,
            GameInstance,
            build_payoff_tensor,
            build_power_grid,
        )

        rng = np.random.default_rng(99)
        for k in range(5):
            m = int(rng.integers(2, 5))
            g = rng.uniform(0.01, 3.0, size=(2, 2))
            game = GameInstance(
                ChannelMatrix.from_array(g), (build_power_grid(-20, 20, m),) * 2
            )
            tensor = build_payoff_tensor(game)
            res = rm_run(tensor, steps=50_000, seed=k)
            best = solve_welfare_ce(tensor)
            welfare = float(res.empirical.probs @ tensor.welfare_flat())
            assert welfare <= best.welfare + 1e-6

    def test_literal_rule_runs(self):
        res = rm_run(MATCHING_PENNIES, steps=5000, seed=2, rule="paper-literal")
        assert res.state.t == 5000

    def test_bad_args(self):
        with pytest.raises(ValueError):
            rm_run(DOMINANT, steps=0, seed=0)
        with pytest.raises(ValueError):
            rm_init(DOMINANT, seed=0, rule="nonsense")


class TestEmpirical:
    def test_counts_identity(self):
        tensor = MATCHING_PENNIES
        state = rm_init(tensor, seed=31)
        mu = default_mu(tensor)
        seen = []
        for _ in range(5):
            seen.append(rm_step(state, tensor, mu))
        dist = empirical_distribution(state)
        for prof in {tuple(p) for p in seen}:
            expected = sum(1 for p in seen if p == prof) / 5
            assert dist.probs[tensor.encode(prof)] == expected
        assert int(state.counts.sum()) == state.t == 5

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            empirical_distribution(rm_init(DOMINANT, seed=0))


class TestTrace:
    def test_schedule_and_csv(self, tmp_path):
        from powergames.config import parse_config
        from powergames.experiments import run_regret

        res = rm_run(MATCHING_PENNIES, steps=1000, seed=1)
        steps = [row[0] for row in res.trace]
        assert steps == sorted(steps)
        assert steps[-1] == 1000
        assert steps[0] == 1
        cfg = parse_config({"channel": {"matrix": [[1.0, 0.5], [0.5, 1.0]]},
                            "power": {"levels": 3}})
        path = tmp_path / "trace.csv"
        result = run_regret(cfg, steps=1000, seed=1, trace_out=path)
        lines = [l for l in path.read_text().split("\n")[:-1] if not l.startswith("#")]
        assert lines[0] == "step,max_regret,ce_gap,welfare"
        assert len(lines) == len(result["trace"]) + 1
        # the step as an int, every float round-trips
        for line, row in zip(lines[1:], result["trace"]):
            parts = line.split(",")
            assert parts[0] == str(row[0])
            assert [float(v) for v in parts[1:]] == list(row[1:])


def _state_bytes(state):
    return (tuple(d.tobytes() for d in state.diffs), state.counts.tobytes(), state.last,
            state.t, state.rng.bit_generator.state)


def _outcome(run, *args, **kwargs):
    """A run's bytes, or the message of the MuTooSmallError it raised."""
    try:
        res = run(*args, **kwargs)
    except MuTooSmallError as exc:
        return str(exc)
    return _state_bytes(res.state) + (repr(res.trace),)


def _mu_bound(tensor):
    return (max(tensor.dims) - 1) * float(tensor.values.max() - tensor.values.min())


# unequal dims, with a 1-action player among 2 and among 3 players
ORACLE_DIMS = [(3, 4), (1, 5), (2, 1, 3), (4, 3, 2)]
# around the exact pass of a block, the block cap and the trace checkpoint 512
ORACLE_STEPS = [1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                511, 513, 5000]


class TestBlockKernel:
    """Block stepping reproduces the one-period, one-action rule bit for bit."""

    @pytest.mark.parametrize("rule", ["conditional", "paper-literal"])
    @pytest.mark.parametrize("dims", ORACLE_DIMS)
    def test_matches_reference(self, rule, dims):
        rng = np.random.default_rng([len(dims), *dims, len(rule)])
        tensor = PayoffTensor(dims, random_tensor(rng, dims))
        # the default mu, and a tight one that cuts blocks short often
        for mu in (None, 1.01 * _mu_bound(tensor)):
            for k, steps in enumerate(ORACLE_STEPS):
                seed = int(rng.integers(1 << 30))
                args = (tensor, steps, seed)
                kwargs = dict(mu=mu, rule=rule, trace=k % 2 == 0)
                assert _outcome(rm_run, *args, **kwargs) == \
                    _outcome(reference_rm_run, *args, **kwargs), (mu, steps)

    def test_mu_too_small_parity(self):
        rng = np.random.default_rng(2024)
        raised = 0
        for _ in range(100):
            dims = tuple(int(m) for m in rng.integers(1, 5, size=int(rng.integers(2, 4))))
            tensor = PayoffTensor(dims, random_tensor(rng, dims))
            mu = 10.0 ** rng.uniform(-2.0, 0.2) * max(_mu_bound(tensor), 1e-3)
            args = (tensor, int(rng.integers(2, 600)), int(rng.integers(1 << 30)))
            kwargs = dict(mu=mu, rule=("conditional", "paper-literal")[int(rng.integers(2))])
            got = _outcome(rm_run, *args, **kwargs)
            assert got == _outcome(reference_rm_run, *args, **kwargs)
            raised += isinstance(got, str)
        assert 25 <= raised <= 75   # both outcomes are exercised

    @pytest.mark.parametrize("rule", ["conditional", "paper-literal"])
    def test_steps_do_not_fork_from_run(self, rule):
        tensor = PayoffTensor((3, 1, 4), random_tensor(np.random.default_rng(8), (3, 1, 4)))
        mu = 1.01 * _mu_bound(tensor)
        for n in (1, 2, _BLOCK + 1, 700):
            state = rm_init(tensor, seed=n, rule=rule)
            for _ in range(n):
                rm_step(state, tensor, mu)
            res = rm_run(tensor, n, seed=n, mu=mu, rule=rule, trace=False)
            assert _state_bytes(state) == _state_bytes(res.state)

    @pytest.mark.parametrize("rule", ["conditional", "paper-literal"])
    def test_step_matches_reference_on_a_hand_set_state(self, rule):
        # a state rm_init never makes: the literal rule's rows differ
        tensor = PayoffTensor((3, 3), random_tensor(np.random.default_rng(4), (3, 3)))
        mu = default_mu(tensor)
        states = [rm_init(tensor, seed=6, rule=rule) for _ in range(2)]
        for step in (rm_step, reference_rm_step):
            state = states[step is reference_rm_step]
            step(state, tensor, mu)
            state.diffs[0][:] = np.arange(9.0).reshape(3, 3) * 0.1
            for _ in range(50):
                step(state, tensor, mu)
        assert _state_bytes(states[0]) == _state_bytes(states[1])

    @pytest.mark.parametrize("rule", ["conditional", "paper-literal"])
    def test_paper_scale_blocks(self, rule):
        # a 25-level state of the paper sweep, over several screened blocks
        # with switches among them; with the trace, blocks stop at checkpoints
        cfg = load_config(Path(__file__).parent.parent / "configs" / "paper_setup.json")
        tensor = build_payoff_tensor(game_from_config(cfg, channel_states(cfg)[0][5]))
        for trace in (False, True):
            args = (tensor, 3 * _BLOCK + 5, 5)
            kwargs = dict(rule=rule, trace=trace)
            assert _outcome(rm_run, *args, **kwargs) == \
                _outcome(reference_rm_run, *args, **kwargs), trace

    def test_mu_too_small_leaves_the_state(self):
        state = rm_init(DOMINANT, seed=0)
        rm_step(state, DOMINANT, mu=10.0)
        state.diffs[0][:] = 50.0
        before = _state_bytes(state)[:4]
        with pytest.raises(MuTooSmallError):
            rm_step(state, DOMINANT, mu=1e-6)
        assert _state_bytes(state)[:4] == before


def _rule_sums(state, tensor, mu, i):
    """The exact rule's cumulative sums before and through player i's held
    action, as ``reference_rm_step`` computes them."""
    h = state.last[i]
    switch = state.regrets()[i][h] / mu
    switch[h] = 0.0
    total = float(switch.sum())
    before = 0.0
    for b in range(h):
        before += float(switch[b])
    return before, before + (1.0 - total)


class _Placed:
    """A generator for ``reference_rm_step`` whose uniforms come from
    ``pick(period, player, before, through)``, on the exact rule's sums in
    the state the draw is made in. Keeps what it drew."""

    def __init__(self, state, tensor, mu, pick):
        self.state, self.tensor, self.mu, self.pick = state, tensor, mu, pick
        self.drawn = []

    def random(self):
        period, i = divmod(len(self.drawn), self.tensor.players)
        before, through = _rule_sums(self.state, self.tensor, self.mu, i)
        self.drawn.append(self.pick(period, i, before, through))
        return self.drawn[-1]


def _safe(before, through):
    """A uniform well inside the held action's interval, where there is one."""
    mid = 0.5 * (before + through)
    return mid if 0.0 <= before < mid < through else 0.5


def _raised(play):
    """The message of the MuTooSmallError ``play()`` raised, or None."""
    try:
        play()
    except MuTooSmallError as exc:
        return str(exc)
    return None


def _advance_parity(tensor, state, mu, periods, pick):
    """Plays ``periods`` periods from a hand-set state with the uniforms
    ``pick`` places: one period at a time by ``reference_rm_step``, and in
    blocks by ``_advance``. Both must end in the same bytes, or raise the
    same error from the same state."""
    ref, blk = copy.deepcopy(state), copy.deepcopy(state)
    ref.rng = _Placed(ref, tensor, mu, pick)
    ref_error = _raised(lambda: [reference_rm_step(ref, tensor, mu) for _ in range(periods)])
    k = tensor.players
    drawn = ref.rng.drawn
    if ref_error is not None:
        # the period it raised in drew only the uniforms of the players
        # before the one that raised
        drawn = drawn + [0.5] * (k - len(drawn) % k)
    u = np.array(drawn).reshape(-1, k)

    def play():
        pos = 0
        while pos < len(u):
            pos += _advance(blk, tensor, mu, u[pos:])

    blk_error = _raised(play)
    return [(tuple(d.tobytes() for d in st.diffs), st.counts.tobytes(), st.last, st.t, error)
            for st, error in ((ref, ref_error), (blk, blk_error))]


def _rising_start(total, at):
    """The start x of a regret that rises by 2 a period from t = 1 and whose
    value over t at period ``at`` is ``total``. Every x + 2 k is exact: x is
    a multiple of 2**-44 below 512 in size."""
    x = total * (at + 1) - 2.0 * at
    while (got := (x + 2.0 * at) / (at + 1)) != total:
        x = float(np.nextafter(x, np.inf if got < total else -np.inf))
    return x


def _hand_set(dims, rule, seed, t=1000):
    """A state at period ``t`` whose held rows give switch totals of up to
    about 0.35, most entries positive, so screened periods and boundaries
    sit side by side."""
    rng = np.random.default_rng(seed)
    tensor = PayoffTensor(dims, random_tensor(rng, dims))
    state = rm_init(tensor, seed=0, rule=rule)
    mu = default_mu(tensor)
    state.t = t
    state.last = tuple(int(rng.integers(m)) for m in dims)
    state.counts[state.last] = t
    spread = float(tensor.values.max() - tensor.values.min())
    state.diffs = [rng.uniform(-0.3, 1.0, (m, m)) * t * spread * max(dims) / m
                   for m in dims]
    return tensor, state, mu


class TestScreenBoundaries:
    """Uniforms at, and one ulp either side of, each boundary the exact rule
    reads, at the last period of a block's exact pass and early, midway and
    late among the periods the screen bounds: it may clear only periods the
    rule surely keeps, so block play still matches the reference."""

    PERIODS = _CHUNK + 96
    AT = (_CHUNK - 1, _CHUNK, _CHUNK + 48, _CHUNK + 95)

    @pytest.mark.parametrize("rule", ["conditional", "paper-literal"])
    @pytest.mark.parametrize("dims", [(4, 3), (3, 2, 4)])
    @pytest.mark.parametrize("which", ["before", "through"])
    def test_cumulative_sums(self, rule, dims, which):
        for seed in range(4):
            tensor, state, mu = _hand_set(dims, rule, seed)
            for i in range(len(dims)):
                for at in self.AT:
                    for side in (-np.inf, None, np.inf):
                        def pick(period, j, before, through):
                            if (period, j) != (at, i):
                                return _safe(before, through)
                            x = before if which == "before" else through
                            x = x if side is None else float(np.nextafter(x, side))
                            # a generator draws in [0, 1)
                            return x if 0.0 <= x < 1.0 else _safe(before, through)
                        ref, blk = _advance_parity(tensor, state, mu, self.PERIODS, pick)
                        assert ref == blk, (seed, i, at, side)

    @pytest.mark.parametrize("rule", ["conditional", "paper-literal"])
    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 3)])
    def test_total_at_the_limit(self, rule, dims):
        # from t = 1 at mu = 1, one entry of player i's held row starts
        # negative and rises by 2 a period, so its switch total first reaches
        # 1 + 1e-12, or one ulp either side, at period `at`, which the screen
        # bounds. At or below the limit player i switches there (to a row of
        # -1000s); the other players never do
        limit = 1.0 + 1e-12
        at = _CHUNK + 40
        for i in range(len(dims)):
            for total in (float(np.nextafter(limit, 0.0)), limit, float(np.nextafter(limit, 2.0))):
                tensor, state, _ = _hand_set(dims, rule, seed=i)
                h = state.last[i]
                own = list(state.last)
                own[i] = (h + 1) % dims[i]
                values = tensor.values.copy()
                values[(i, *state.last)] = 0.0
                values[(i, *own)] = 2.0
                tensor = PayoffTensor(dims, values)
                state.t = 1
                for d in state.diffs:
                    d[...] = -1000.0
                state.diffs[i][h, own[i]] = _rising_start(total, at)
                ref, blk = _advance_parity(tensor, state, 1.0, at + 8,
                                           lambda p, j, b, th: _safe(b, th))
                assert ref == blk, (i, total)
                assert (ref[-1] is not None) == (total > limit)


def _far_hand_set(dims, rule, seed):
    """A state at period 10**6 whose regret entries are about 10**6 times
    their step, of either sign, except some up to a block's length of steps
    from 0 on the side that crosses it, some exact multiples of the step and
    some -0, so a block's commit crosses many binades."""
    rng = np.random.default_rng(seed)
    tensor = PayoffTensor(dims, random_tensor(rng, dims))
    state = rm_init(tensor, seed=0, rule=rule)
    t = 10 ** 6
    state.t = t
    state.last = tuple(int(rng.integers(m)) for m in dims)
    state.counts[state.last] = t
    state.diffs = []
    for i, delta in enumerate(_steps(tensor, state.last)):
        m = dims[i]
        far = delta * rng.uniform(-1.0, 0.3, (m, m)) * t
        near = -delta * rng.uniform(0.0, _BLOCK, (m, m))
        exact = -delta * rng.integers(0, _BLOCK, (m, m))
        pick = rng.integers(4, size=(m, m))
        state.diffs.append(np.select([pick == 0, pick == 1, pick == 2], [far, near, exact], -0.0))
    return tensor, state, default_mu(tensor)


class TestLongCommits:
    """Whole blocks that hold the profile, from states whose commits cross
    zero and many binades, match the one-period rule bit for bit."""

    @pytest.mark.parametrize("rule", ["conditional", "paper-literal"])
    @pytest.mark.parametrize("dims", [(4, 3), (3, 2, 4)])
    def test_matches_reference(self, rule, dims):
        for seed in range(2):
            tensor, state, mu = _far_hand_set(dims, rule, seed)
            ref, blk = _advance_parity(tensor, state, mu, _BLOCK,
                                       lambda p, j, b, th: _safe(b, th))
            assert ref == blk, seed
            # the profile held through the block
            assert ref[2:] == (state.last, state.t + _BLOCK, None), seed


def _accumulated(x, delta, n):
    """``x`` after ``n`` sequential ``+= delta``, by one whole accumulate."""
    rows = np.empty((n + 1,) + x.shape)
    rows[0] = x
    rows[1:] = delta
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.accumulate(rows, axis=0, out=rows)
    return rows[-1]


def _repeat_cases(rng, shape, n):
    """(x, delta) pairs of the given shape of x, delta one entry per column."""
    m = shape[-1]
    sign = lambda size: rng.choice([-1.0, 1.0], size)
    scale = 10.0 ** rng.uniform(-300.0, 300.0, m)
    delta = sign(m) * scale
    # magnitudes from 1e-300 to 1e300, up to 1e9 steps from 0
    yield sign(shape) * scale * 10.0 ** rng.uniform(-1.0, 9.0, shape), delta
    # rows that cross 0 within the run, some from an exact multiple of the step
    yield -delta * rng.uniform(0.0, n, shape), delta
    yield -delta * rng.integers(0, n + 1, shape), delta
    # exact half-ulp ties and steps of a few ulps, growing and shrinking,
    # from anywhere in a binade and from near either edge
    low = 2.0 ** rng.integers(-1000, 1000, m)
    ulp = low * 2.0 ** -52
    for frac in (rng.integers(0, 5, m) + 0.5, rng.uniform(0.2, 6.0, m)):
        step = sign(m) * ulp * frac
        for x in (low * rng.uniform(1.0, 2.0, shape),
                  low + ulp * rng.integers(0, 3 * n + 2, shape),
                  2.0 * low - ulp * rng.integers(1, 3 * n + 2, shape)):
            yield sign(m) * x, step
    # delta 0 on +0, -0 and any value, with some +-0 among other rows
    zero = rng.choice([0.0, -0.0], shape)
    yield zero, np.zeros(m)
    yield np.where(rng.random(shape) < 0.5, zero, delta * 10.0), np.where(rng.random(m) < 0.5, 0.0, delta)
    # subnormal steps from +-0
    yield zero, 5e-324 * rng.integers(-3, 4, m)
    yield zero, sign(m) * 2.0 ** rng.uniform(-1070.0, -1022.0, m)
    # sums that overflow to inf
    yield sign(m) * 1.7e308 * rng.uniform(0.5, 1.0, shape), sign(m) * 10.0 ** rng.uniform(303.0, 306.0, m)


class TestRepeat:
    """A commit's binade jumps give the bits of its adds one by one."""

    NS = [1, 2, 3, *range(_CHUNK - 1, _CHUNK + 3), 4095]

    @pytest.mark.parametrize("shape", [(25,), (7, 7)])
    def test_matches_one_accumulate(self, shape):
        rng = np.random.default_rng(len(shape))
        for n in self.NS:
            for trial in range(3):
                for k, (x, delta) in enumerate(_repeat_cases(rng, shape, n)):
                    # a commit folds a step into a held row, or into every
                    # row of a matrix, laid out flat
                    flat = np.broadcast_to(delta, shape).ravel()
                    with np.errstate(over="ignore", invalid="ignore"):
                        got = _repeat(x.ravel(), flat, n)
                    assert got.tobytes() == _accumulated(x, delta, n).tobytes(), (n, trial, k)


class TestNumpyFacts:
    """What the block kernel needs numpy to keep: a change here would change
    every regret run's bytes, so it fails here first."""

    def test_row_reduce_matches_1d_sum(self):
        rng = np.random.default_rng(0)
        for m in range(1, 31):
            x = rng.standard_normal((257, m)) * 10.0 ** rng.integers(-8, 8, size=(257, m))
            rows = np.add.reduce(x, axis=1)
            assert rows.tobytes() == np.array([np.add.reduce(r) for r in x]).tobytes(), m

    def test_chunked_accumulate_matches_one_accumulate(self):
        # a commit accumulates in chunks, each starting from the last row of
        # the one before; the rows are single rows and whole matrices
        rng = np.random.default_rng(3)
        for shape in ((7,), (25,), (4, 4)):
            for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17):
                rows = np.empty((n + 1,) + shape)
                rows[0] = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 6, size=shape)
                rows[1:] = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 2, size=shape)
                whole = np.add.accumulate(rows, axis=0)
                last = rows[0].copy()
                for start in range(0, n, _CHUNK):
                    chunk = np.concatenate((last[None], rows[1 + start:1 + start + _CHUNK]))
                    last = np.add.accumulate(chunk, axis=0)[-1]
                assert last.tobytes() == whole[-1].tobytes(), (shape, n)

    def test_uniform_block_matches_single_draws(self):
        one, block = np.random.default_rng(17), np.random.default_rng(17)
        for g in (one, block):
            [g.integers(m) for m in (25, 1, 3)]
        singles = np.array([one.random() for _ in range(1000)])
        assert singles.tobytes() == np.concatenate(
            (block.random((300, 2)).ravel(), block.random(400))).tobytes()
        assert one.bit_generator.state == block.bit_generator.state
