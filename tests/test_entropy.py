"""Entropy estimators against independent brute-force oracles."""

import math
import re
import tracemalloc
import warnings
from math import log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcausal import (
    ConditioningSet,
    DelayGrid,
    EmbeddingParams,
    MultivariateSeries,
    build_moptn,
    ce_tensor,
    conditional_entropy_given_set,
    epsilon_test,
    threshold,
)
from opcausal import entropy
from opcausal.errors import (
    ConditioningTooLarge,
    DegenerateSample,
    InvalidLambda,
    LagTooLarge,
    TooFewChannels,
)
from opcausal.ordinal import PatternMatrix
from opcausal.simulate import simulate_ar


def oracle_co_occurrence_entropy(src, dst, tau, n_patterns):
    """Nested-loop plug-in estimate of H(dst at t+tau | src at t)."""
    pairs = [(src[t], dst[t + tau]) for t in range(len(src) - tau)]
    total = len(pairs)
    joint = {}
    marginal = {}
    for i, j in pairs:
        joint[(i, j)] = joint.get((i, j), 0) + 1
        marginal[i] = marginal.get(i, 0) + 1
    h = 0.0
    for (i, j), c in joint.items():
        p_ij = c / total
        p_j_given_i = c / marginal[i]
        h -= p_ij * math.log2(p_j_given_i)
    return h


def pair_ce(src, dst, tau):
    """H(dst at t + tau | src at t) of m=3 symbols: ce_tensor's entry [1, 0, 0] on (src, dst)."""
    pi = PatternMatrix(symbols=np.column_stack([src, dst]), params=EmbeddingParams(m=3, d=1))
    return ce_tensor(pi, DelayGrid([tau])).values[1, 0, 0]


def oracle_conditional_entropy_given_set(pi, target, members, t_start):
    """Joint-histogram estimate of H(target at t | member symbols at lags)."""
    joint = {}
    cond = {}
    total = 0
    for t in range(t_start, pi.n_times):
        key = tuple(pi.symbols[t - tau, ch] for ch, tau in members)
        full = key + (pi.symbols[t, target],)
        joint[full] = joint.get(full, 0) + 1
        cond[key] = cond.get(key, 0) + 1
        total += 1
    h = 0.0
    for full, c in joint.items():
        h -= c / total * math.log2(c / cond[full[:-1]])
    return h


def composed_conditional_entropy_given_set(pi, target, members, t_start):
    """The set estimator as one composition: int64 codes, bincount, sum-and-check.

    The counts are re-summed for the sample total, and a joint alphabet past
    the dense limit goes through the unique-count estimator.
    """
    f = pi.n_patterns
    digits = [pi.symbols[t_start - tau : pi.n_times - tau, c] for c, tau in members]
    codes = digits[0].astype(np.int64)
    for digit in (*digits[1:], pi.symbols[t_start:, target]):
        codes *= f
        codes += digit
    n_bins = f ** (len(members) + 1)
    if n_bins > entropy._DENSE_MAX_BINS:
        total = codes.size
        _, joint_counts = np.unique(codes, return_counts=True)
        _, state_counts = np.unique(codes // f, return_counts=True)
        h_joint = -np.sum(joint_counts / total * np.log2(joint_counts / total))
        h_state = -np.sum(state_counts / total * np.log2(state_counts / total))
        return float(h_joint - h_state)
    counts = np.bincount(codes, minlength=n_bins).reshape(-1, f)
    total = counts.sum(axis=(-2, -1), keepdims=True)
    assert not np.any(total == 0)
    joint = counts / total
    row = joint.sum(axis=-1, keepdims=True)
    terms = np.divide(joint, row, out=np.ones_like(joint), where=joint > 0)
    np.log2(terms, out=terms)
    terms *= joint
    return float(-terms.reshape(-1).sum())


def assert_pair_counts_equal_bincounts(symbols, m, lags, dtype):
    """_lagged_pair_counts of every ordered pair, a channel with itself too, against bincounts."""
    n_times, n = symbols.shape
    f = math.factorial(m)
    pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=m, d=1))
    src, tgt = np.divmod(np.arange(n * n), n)
    lag_counts = entropy._lagged_pair_counts(pi, DelayGrid(lags), src, tgt)
    for tau, got in zip(lags, lag_counts, strict=True):
        assert got.dtype == dtype and got.shape == (n * n, f, f)
        for p in range(n * n):
            codes = symbols[: n_times - tau, src[p]] * f + symbols[tau:, tgt[p]]
            want = np.bincount(codes, minlength=f * f).reshape(f, f)
            np.testing.assert_array_equal(got[p], want)


symbol_sequences = st.lists(st.integers(0, 5), min_size=5, max_size=50)


class TestCoOccurrenceOracle:
    @settings(max_examples=200, deadline=None)
    @given(symbol_sequences, symbol_sequences, st.integers(0, 3))
    def test_matches_nested_loop_oracle(self, a, b, tau):
        n = min(len(a), len(b))
        src = np.array(a[:n])
        dst = np.array(b[:n])
        if n - tau < 1:
            tau = n - 1
        got = pair_ce(src, dst, tau)
        want = oracle_co_occurrence_entropy(src, dst, tau, 6)
        assert got == pytest.approx(want, abs=1e-12)

    def test_self_at_zero_lag_is_zero(self, rng):
        x = rng.integers(0, 6, size=5000)
        assert pair_ce(x, x, 0) == 0.0

    def test_independent_streams_near_log2_6(self, rng):
        a = rng.integers(0, 6, size=20_000)
        b = rng.integers(0, 6, size=20_000)
        h = pair_ce(a, b, 3)
        assert abs(h - log2(6)) < 0.02

    @settings(max_examples=50, deadline=None)
    @given(symbol_sequences, symbol_sequences, st.integers(0, 3))
    def test_bounds(self, a, b, tau):
        n = min(len(a), len(b))
        tau = min(tau, n - 1)
        h = pair_ce(np.array(a[:n]), np.array(b[:n]), tau)
        assert -1e-12 <= h <= log2(6) + 1e-12

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            pair_ce(np.zeros(5, dtype=int), np.zeros(5, dtype=int), 5)


class TestConditionalEntropyGivenSet:
    # the oracle is compared on 200 samples, below 10 per state on purpose
    @pytest.mark.filterwarnings(
        "ignore:only .* samples for .* joint conditioning states:RuntimeWarning"
    )
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 3),
    )
    def test_matches_joint_histogram_oracle(self, seed, r):
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 6, size=(200, 4))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        channels = rng.choice(4, size=r, replace=False)
        members = [(int(ch), int(rng.integers(0, 5))) for ch in channels]
        cond = ConditioningSet(members)
        t_start = cond.max_delay
        got = conditional_entropy_given_set(pi, 0, cond, t_start=t_start)
        want = oracle_conditional_entropy_given_set(pi, 0, members, t_start)
        assert got == pytest.approx(want, abs=1e-12)

    # the joint codes take the narrowest unsigned type below f^(members + 1);
    # four symbols in use, 0, 1, f - 2 and f - 1, so joint states repeat and
    # a run of f - 1 in every channel reaches the largest code
    @pytest.mark.filterwarnings(
        "ignore:only .* samples for .* joint conditioning states:RuntimeWarning"
    )
    @pytest.mark.parametrize(
        "m, members, code_dtype",
        [
            (3, [(1, 1), (2, 2)], np.uint8),
            (3, [(1, 1), (2, 2), (3, 3)], np.uint16),
            (4, [(1, 1), (2, 2)], np.uint16),
            (4, [(1, 1), (2, 2), (3, 3)], np.uint32),
            (5, [(1, 1), (2, 2)], np.uint32),
        ],
    )
    def test_matches_the_oracle_at_each_code_type(self, rng, m, members, code_dtype):
        f = math.factorial(m)
        symbols = rng.choice([0, 1, f - 2, f - 1], size=(2000, 4))
        symbols[500:510] = f - 1
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=m, d=1))
        t_start = max(tau for _, tau in members)
        codes = entropy._joint_codes(pi, members, t_start, 0)
        assert codes.dtype == code_dtype
        assert codes.max() == f ** (len(members) + 1) - 1
        got = conditional_entropy_given_set(pi, 0, ConditioningSet(members))
        want = oracle_conditional_entropy_given_set(pi, 0, members, t_start)
        assert want > 1.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_adding_member_never_increases_entropy(self, rng):
        symbols = rng.integers(0, 6, size=(3000, 3))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        small = ConditioningSet([(1, 2)])
        large = ConditioningSet([(1, 2), (2, 4)])
        t_start = 4
        h_small = conditional_entropy_given_set(pi, 0, small, t_start=t_start)
        h_large = conditional_entropy_given_set(pi, 0, large, t_start=t_start)
        assert h_large <= h_small + 1e-12

    def test_sparse_path_matches_joint_histogram_oracle(self, rng, monkeypatch):
        # m=5 with three members: 120^3 states x 120 symbols is past the
        # dense bincount limit, so the unique-count estimator runs
        calls = []
        sparse = entropy._conditional_entropy_sparse

        def spy(*args):
            calls.append(args)
            return sparse(*args)

        monkeypatch.setattr(entropy, "_conditional_entropy_sparse", spy)
        # few symbols in use, so joint states repeat and the entropy is not 0
        symbols = rng.integers(0, 4, size=(3000, 4))
        symbols[1:, 0] = symbols[:-1, 1] * 30 + rng.integers(0, 3, size=2999)
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=5, d=1))
        members = [(1, 1), (2, 2), (3, 4)]
        with pytest.warns(RuntimeWarning, match="unreliable"):
            got = conditional_entropy_given_set(pi, 0, ConditioningSet(members))
        want = oracle_conditional_entropy_given_set(pi, 0, members, 4)
        assert len(calls) == 1
        assert 1.0 < want < log2(120)
        assert got == pytest.approx(want, abs=1e-12)

    def test_int64_joint_code_overflow_raises(self, rng):
        # m=8 has 40320 patterns: three members and the target fit int64
        # codes (40320**4 < 2**63), four members plus the candidate do not
        symbols = rng.integers(0, 40320, size=(500, 6))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=8, d=1))
        members = [(1, 1), (2, 1), (3, 1), (4, 1)]
        with pytest.raises(ConditioningTooLarge, match="int64"):
            epsilon_test(pi, 0, 5, 2, ConditioningSet(members), delta=0.1)
        with pytest.warns(RuntimeWarning, match="unreliable"):
            got = conditional_entropy_given_set(pi, 0, ConditioningSet(members[:3]))
        assert got == pytest.approx(
            oracle_conditional_entropy_given_set(pi, 0, members[:3], 1), abs=1e-12
        )

    def test_explicit_window_pins_sample_count(self, rng):
        symbols = rng.integers(0, 6, size=(500, 2))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        cond = ConditioningSet([(1, 3)])
        with pytest.raises(ValueError):
            conditional_entropy_given_set(pi, 0, cond, t_start=2)


    @pytest.mark.parametrize("explicit_start", [False, True], ids=["default", "explicit"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_bit_identical_to_composed_estimator(self, m, size, explicit_start, monkeypatch):
        calls = []
        sparse = entropy._conditional_entropy_sparse

        def spy(*args):
            calls.append(args)
            return sparse(*args)

        monkeypatch.setattr(entropy, "_conditional_entropy_sparse", spy)
        series, _ = simulate_ar(4000, seed=5)
        pi = build_moptn(series, EmbeddingParams(m=m, d=1))
        members = [(3, 2), (0, 1), (5, 7)][:size]
        cond = ConditioningSet(members)
        t_start = cond.max_delay + 9 if explicit_start else cond.max_delay
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = conditional_entropy_given_set(
                pi, 0, cond, t_start=t_start if explicit_start else None
            )
        want = composed_conditional_entropy_given_set(pi, 0, members, t_start)
        assert got.hex() == want.hex()
        assert 0.0 < got < log2(math.factorial(m))
        # m=5 with three members has 120^4 joint bins, past the dense limit
        assert len(calls) == (1 if math.factorial(m) ** (size + 1) > 1e7 else 0)
        n_valid = pi.n_times - t_start
        sparse_states = n_valid / math.factorial(m) ** size < entropy.MIN_SAMPLES_PER_STATE
        assert [str(w.message) for w in caught] == (
            [
                f"only {n_valid} samples for {math.factorial(m) ** size} joint conditioning "
                "states; entropy estimate may be unreliable"
            ]
            if sparse_states
            else []
        )
        assert all(w.category is RuntimeWarning and w.filename == __file__ for w in caught)


def given_set(pi, target, members, t_start=None):
    return conditional_entropy_given_set(pi, target, ConditioningSet(members), t_start)


class TestEstimatorErrors:
    """Each named error of ce_tensor and the set estimator, on 50 x 3 symbols."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda pi: ce_tensor(pi, DelayGrid([1, 50])),
                LagTooLarge,
                "max delay 50 exceeds symbol sequence length 50",
            ),
            (lambda pi: given_set(pi, 3, [(1, 2)]), ValueError, "target channel 3 out of range"),
            (lambda pi: given_set(pi, -1, [(1, 2)]), ValueError, "target channel -1 out of range"),
            (
                lambda pi: given_set(pi, 0, [(3, 2)]),
                ValueError,
                "conditioning channel 3 out of range",
            ),
            (
                lambda pi: given_set(pi, 0, [(-1, 2)]),
                ValueError,
                "conditioning channel -1 out of range",
            ),
            (
                lambda pi: given_set(pi, 0, [(1, 50)]),
                LagTooLarge,
                "conditioning delay 50 out of range",
            ),
            (
                lambda pi: given_set(pi, 0, [(1, -1)]),
                ValueError,
                "conditioning delays must be non-negative",
            ),
            (
                lambda pi: given_set(pi, 0, [(1, 5)], t_start=4),
                ValueError,
                "t_start 4 smaller than the largest delay 5",
            ),
            (
                lambda pi: given_set(pi, 0, [(1, 5)], t_start=50),
                DegenerateSample,
                "no valid time indices",
            ),
            (
                lambda pi: ConditioningSet([]),
                ValueError,
                "conditioning set must have at least one member",
            ),
            (
                lambda pi: ConditioningSet([(1, 2), (1, 2)]),
                ValueError,
                "duplicate (channel, delay) pair in conditioning set",
            ),
        ],
        ids=[
            "ce-lag",
            "target-N",
            "target-neg",
            "member-N",
            "member-neg",
            "member-lag",
            "member-neg-lag",
            "t_start-low",
            "t_start-T",
            "empty-set",
            "duplicate",
        ],
    )
    def test_message(self, rng, call, error, message):
        symbols = rng.integers(0, 6, size=(50, 3))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        with pytest.raises(error, match=re.escape(message)):
            call(pi)


class TestSymbolLayout:
    """Results do not depend on the memory order of the symbol matrix."""

    @pytest.mark.parametrize(
        "m, members",
        [(3, [(1, 2), (2, 5)]), (5, [(1, 1), (2, 2), (3, 4)])],
        ids=["dense", "sparse"],
    )
    def test_c_ordered_matrix_matches_build_moptn(self, rng, m, members, monkeypatch):
        calls = []
        sparse = entropy._conditional_entropy_sparse

        def spy(*args):
            calls.append(args)
            return sparse(*args)

        monkeypatch.setattr(entropy, "_conditional_entropy_sparse", spy)
        # noisy sines use few patterns, so joint states repeat even at m=5
        t = np.arange(3000)[:, None]
        data = np.sin(0.3 * t + rng.uniform(0, 6, 4)) + 0.05 * rng.standard_normal((3000, 4))
        series = MultivariateSeries(data=data)
        built = build_moptn(series, EmbeddingParams(m=m, d=1))
        c_ordered = np.ascontiguousarray(built.symbols)
        assert built.symbols.flags.f_contiguous
        assert not c_ordered.flags.f_contiguous
        given = PatternMatrix(symbols=c_ordered, params=built.params)
        assert given.symbols.flags.f_contiguous
        np.testing.assert_array_equal(given.symbols, c_ordered)

        delays = DelayGrid([1, 3, 7])
        assert (
            ce_tensor(given, delays).values.tobytes()
            == ce_tensor(built, delays).values.tobytes()
        )
        cond = ConditioningSet(members)
        t_start = cond.max_delay
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = [conditional_entropy_given_set(pi, 0, cond) for pi in (given, built)]
        assert len(calls) == (2 if m == 5 else 0)
        assert got[0] == got[1]
        want = oracle_conditional_entropy_given_set(built, 0, members, t_start)
        assert 0.1 < want < log2(math.factorial(m))
        assert got[0] == pytest.approx(want, abs=1e-12)


class TestCETensor:
    # m=3 counts by matrix product, m=4 by the per-pair loop
    @pytest.mark.parametrize("m", [3, 4])
    def test_one_channel_is_an_error(self, rng, m):
        series = MultivariateSeries(data=rng.standard_normal((200, 1)))
        pi = build_moptn(series, EmbeddingParams(m=m, d=1))
        with pytest.raises(TooFewChannels, match="at least two channels, got 1"):
            ce_tensor(pi, DelayGrid([1, 2]))

    def test_shape_and_diagonal(self, random_series):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        t = ce_tensor(pi, DelayGrid([1, 2, 5]))
        assert t.values.shape == (3, 3, 3)
        for j in range(3):
            np.testing.assert_allclose(np.diag(t.values[:, :, j]), t.h_max)

    def test_entries_within_bounds(self, random_series):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        t = ce_tensor(pi, DelayGrid([1, 4]))
        assert np.all(t.values >= -1e-12)
        assert np.all(t.values <= t.h_max + 1e-12)

    def test_matches_pairwise_calls(self, random_series):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        t = ce_tensor(pi, DelayGrid([2]))
        want = conditional_entropy_given_set(pi, 0, ConditioningSet([(1, 2)]))
        assert t.values[0, 1, 0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_every_entry_equals_pairwise_estimate(self, rng, m):
        # m <= 3 counts by one-hot products over row blocks, m >= 4 pair by
        # pair with dense bincounts; T' spans several blocks and is not a
        # multiple of their size
        f = math.factorial(m)
        n_times = 2 * entropy._ROW_BLOCK + 37
        pi = PatternMatrix(
            symbols=rng.integers(0, f, size=(n_times, 4)),
            params=EmbeddingParams(m=m, d=1),
        )
        delays = DelayGrid([0, 1, 5, entropy._ROW_BLOCK + 3, n_times - 1])
        t = ce_tensor(pi, delays)
        for j, tau in enumerate(delays):
            for src in range(4):
                for tgt in range(4):
                    if tgt == src:
                        assert t.values[tgt, src, j] == log2(f)
                        continue
                    # the last lag leaves one sample, and m=6 has under 10 per state
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        want = conditional_entropy_given_set(
                            pi, tgt, ConditioningSet([(src, tau)])
                        )
                    assert t.values[tgt, src, j] == want

    # pairs whose target is uniform given each source symbol, with rows of
    # k * m! samples for each k listed, so that H is log2(m!) exactly: the
    # float sum misses it by 1-3 ulps, on the products (m = 2, 3), the
    # dense bincounts (m = 4, 5) and the distinct-code counts (m = 7)
    @pytest.mark.parametrize(
        "m, rows",
        [
            (2, [2, 1]),
            (3, [1, 2, 3, 1, 1, 3]),
            (4, [3, 2, 2, 1, 1, 0, 0, 0, 0, 3, 2, 3, 2, 2, 3, 2, 2, 2, 2, 3, 1, 3, 2, 0]),
            (5, [2, 1, 3]),
            (7, [3, 1]),
        ],
    )
    def test_a_uniform_pair_is_h_max_exactly(self, rng, m, rows):
        f = math.factorial(m)
        source = np.repeat(np.arange(len(rows)), f * np.array(rows))
        target = np.concatenate([np.tile(np.arange(f), k) for k in rows])
        order = rng.permutation(source.size)
        # channel 1 at t + 1 follows channel 0 at t
        symbols = np.stack([np.r_[source[order], 0], np.r_[0, target[order]]], axis=1)
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=m, d=1))
        counts = np.zeros((f, f), dtype=np.int64)
        np.add.at(counts, (source, target), 1)
        assert entropy._conditional_entropy_from_counts(counts, source.size) != log2(f)
        assert ce_tensor(pi, DelayGrid([1])).values[1, 0, 0] == log2(f)

    @pytest.mark.parametrize("m", [3, 4])
    def test_a_nearly_uniform_pair_keeps_its_float_sum(self, rng, m):
        # a source that stays in one symbol, and a target that shows every
        # symbol 30,000 times but one sample moved from symbol 0 to 1: H lies
        # within _NEAR_H_MAX below log2(m!), and the exact test leaves it
        f = math.factorial(m)
        target = rng.permutation(np.repeat(np.arange(f), 30_000))
        target[np.flatnonzero(target == 0)[0]] = 1
        symbols = np.stack([np.zeros(target.size + 1, dtype=int), np.r_[0, target]], axis=1)
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=m, d=1))
        want = conditional_entropy_given_set(pi, 1, ConditioningSet([(0, 1)]))
        assert 0 < log2(f) - want <= entropy._NEAR_H_MAX
        assert ce_tensor(pi, DelayGrid([1])).values[1, 0, 0] == want

    # the products count two lags at once on the symbols below f - 1: an even
    # and an odd grid, with lag 0 and lags past one row block, paired with a
    # near lag, with each other and alone, and a grid of far lags only, whose
    # target blocks are each encoded on their own; T' just short of and just
    # past two blocks; a channel that never shows the dropped symbol and one
    # that shows nothing else; and the odd grid on 19 channels, whose 96
    # indicator rows at m=3 cut the block below _ROW_BLOCK samples. Every
    # ordered pair is counted, a channel with itself too.
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("grid", ["even", "odd", "far", "wide"])
    def test_product_counts_equal_pairwise_bincounts(self, rng, m, extra, grid):
        f = math.factorial(m)
        n = 19 if grid == "wide" else 4
        block = entropy._block_rows(n * (f - 1) + 1)
        # of these widths, only the wide grid's at m=3 cuts the block
        assert (block < entropy._ROW_BLOCK) == (grid == "wide" and m == 3)
        n_times = 2 * block + extra
        symbols = rng.integers(0, f, size=(n_times, n))
        symbols[:, 1] = rng.integers(0, f - 1, size=n_times)
        symbols[:, 2] = f - 1
        if grid == "even":
            lags = [0, 1, 5, block + 3]
        elif grid == "far":
            lags = [block + 1, block + 5]
        else:
            lags = [0, 2, block + 1, block + 2, n_times - 1]
        assert_pair_counts_equal_bincounts(symbols, m, lags, np.uint16)

    # a channel that shows symbol 0 throughout counts T' with itself at lag 0:
    # 65,535 is uint16's largest value, and from T' = 65,536 the counts widen
    @pytest.mark.parametrize("n_times, dtype", [(65_535, np.uint16), (65_536, np.uint32)])
    def test_counts_widen_when_uint16_cannot_hold_t_prime(self, rng, n_times, dtype):
        symbols = rng.integers(0, 6, size=(n_times, 3))
        symbols[:, 2] = 0
        assert_pair_counts_equal_bincounts(symbols, 3, [0, 1, entropy._ROW_BLOCK + 3], dtype)

    def test_row_block_must_stay_below_the_packing_factor(self, rng, monkeypatch):
        # a block of _PACK rows could count _PACK, which overflows into the packed second lag
        monkeypatch.setattr(entropy, "_ROW_BLOCK", entropy._PACK)
        pi = PatternMatrix(
            symbols=rng.integers(0, 6, size=(100, 2)), params=EmbeddingParams(m=3, d=1)
        )
        with pytest.raises(RuntimeError, match="must stay below the packing factor"):
            ce_tensor(pi, DelayGrid([1, 2]))

    def test_wide_tensor_peak_memory_stays_at_the_per_lag_products(self, rng):
        # 36 channels at m=3, T' about 2e4 and the CLI's lags 1-10, the shape
        # of one wide_infer item. Every lag's products summed as uint16, one
        # lag's counts, block buffers sized by the width (1035 samples) and
        # three product buffers peak at 2,714,414-2,715,126 traced bytes
        # over seven rng seeds (numpy 2.4.6); the bound keeps the 4.8%
        # margin the earlier bounds had over their designs (7,838,480 over
        # 7,479,648, then 5,011,947 over 4,782,508 with all lags' counts and
        # 2048-sample blocks, then 3,496,852 over 3,336,772 with int32 sums)
        pi = PatternMatrix(
            symbols=rng.integers(0, 6, size=(19_998, 36)), params=EmbeddingParams(m=3, d=1)
        )
        tracemalloc.start()
        try:
            ce_tensor(pi, DelayGrid(range(1, 11)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_845_452

    def test_order_7_counts_sparse_pairs_in_little_memory(self, rng):
        # 5040^2 joint bins per pair: a dense count would hold 203 MB of
        # int64 per pair, so the pairs go through the unique-count estimator
        pi = PatternMatrix(
            symbols=rng.integers(0, 5040, size=(3000, 3)),
            params=EmbeddingParams(m=7, d=1),
        )
        delays = DelayGrid([1, 2])
        tracemalloc.start()
        try:
            t = ce_tensor(pi, delays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        for j, tau in enumerate(delays):
            for src in range(3):
                for tgt in range(3):
                    if tgt != src:
                        want = oracle_co_occurrence_entropy(
                            pi.symbols[:, src], pi.symbols[:, tgt], tau, 5040
                        )
                        assert t.values[tgt, src, j] == pytest.approx(want, abs=1e-12)


class TestSymbolRange:
    """A symbol outside [0, m!) is an error, never a silently dropped count."""

    @pytest.mark.parametrize("m, bad", [(3, 9), (3, -1), (4, 24), (4, -1)])
    def test_pattern_matrix_rejects_out_of_range_symbols(self, rng, m, bad):
        f = math.factorial(m)
        symbols = rng.integers(0, f, size=(743, 2))
        symbols[5, 1] = bad
        with pytest.raises(ValueError, match=rf"symbols must be integers in \[0, {f}\)"):
            PatternMatrix(symbols=symbols, params=EmbeddingParams(m=m, d=1))

    # the range check reads min() and max() in the input's own type
    @pytest.mark.parametrize("dtype", np.typecodes["AllInteger"])
    def test_every_integer_type_is_range_checked(self, rng, dtype):
        symbols = rng.integers(0, 6, size=(743, 2)).astype(dtype)
        bad = [6, 127] + ([-1] if np.dtype(dtype).kind == "i" else [])
        for value in bad:
            symbols[5, 1] = value
            with pytest.raises(ValueError, match=r"symbols must be integers in \[0, 6\)"):
                PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))

    def test_empty_integer_matrix_builds(self):
        symbols = np.zeros((0, 2), dtype=np.int64)
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        assert pi.symbols.shape == (0, 2) and pi.symbols.dtype == np.uint8

    def test_pattern_matrix_rejects_non_integer_symbols(self):
        with pytest.raises(ValueError, match=r"symbols must be integers in \[0, 6\)"):
            PatternMatrix(symbols=np.zeros((10, 2)), params=EmbeddingParams(m=3, d=1))

    def test_pattern_matrix_holds_narrow_symbols(self, rng):
        # uint64 symbols become the embedding's narrow type, as int64 ones do
        symbols = rng.integers(0, 24, size=(743, 3))
        params = EmbeddingParams(m=4, d=1)
        unsigned = PatternMatrix(symbols=symbols.astype(np.uint64), params=params)
        assert unsigned.symbols.dtype == np.uint8
        assert unsigned.symbols.flags.f_contiguous
        delays = DelayGrid([1, 4])
        assert (
            ce_tensor(unsigned, delays).values.tobytes()
            == ce_tensor(PatternMatrix(symbols=symbols, params=params), delays).values.tobytes()
        )

    @pytest.mark.parametrize("m, dtype", [(3, np.uint8), (6, np.uint16)])
    def test_int64_symbols_become_the_narrow_type(self, rng, m, dtype):
        symbols = rng.integers(0, math.factorial(m), size=(743, 2))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=m, d=1))
        assert pi.symbols.dtype == dtype and pi.symbols.flags.f_contiguous
        np.testing.assert_array_equal(pi.symbols, symbols)

    # each would wrap onto a valid symbol in the narrow type: 256 and -256
    # to 0 in uint8, 65541 to 5 in uint16
    @pytest.mark.parametrize("m, bad", [(3, 256), (3, -256), (6, 65_541)])
    def test_symbols_that_the_narrow_type_would_wrap_are_rejected(self, rng, m, bad):
        f = math.factorial(m)
        symbols = rng.integers(0, f, size=(743, 2))
        symbols[5, 1] = bad
        with pytest.raises(ValueError, match=rf"symbols must be integers in \[0, {f}\)"):
            PatternMatrix(symbols=symbols, params=EmbeddingParams(m=m, d=1))

    # a bad symbol in either channel of a pair, in an int or a float matrix
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [6, -1, 2.5])
    def test_co_occurrence_rejects_bad_symbols(self, rng, side, bad):
        pair = rng.integers(0, 6, size=(100, 2)).astype(type(bad))
        pair[50, side] = bad
        with pytest.raises(ValueError, match=r"symbols must be integers in \[0, 6\)"):
            PatternMatrix(symbols=pair, params=EmbeddingParams(m=3, d=1))


class TestThreshold:
    def test_snaps_high_entries(self, random_series):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        t = threshold(ce_tensor(pi, DelayGrid([1])), 0.9)
        cut = 0.9 * t.h_max
        assert np.all((t.values < cut) | (t.values == t.h_max))

    def test_idempotent(self, random_series):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        once = threshold(ce_tensor(pi, DelayGrid([1])), 0.95)
        twice = threshold(once, 0.95)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_input_not_mutated(self, random_series):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        t = ce_tensor(pi, DelayGrid([1]))
        before = t.values.copy()
        threshold(t, 0.5)
        np.testing.assert_array_equal(t.values, before)

    @pytest.mark.parametrize("lam", [0.0, -0.1, 1.5])
    def test_invalid_lambda(self, random_series, lam):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        t = ce_tensor(pi, DelayGrid([1]))
        with pytest.raises(InvalidLambda):
            threshold(t, lam)


class TestDelayGrid:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DelayGrid([])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DelayGrid([3, 1])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DelayGrid([-1, 2])

    def test_iteration(self):
        assert list(DelayGrid(range(1, 4))) == [1, 2, 3]

    @pytest.mark.parametrize(
        "delays, bad",
        [([1.7, 2.2], "1.7"), ([1, 2.5], "2.5"), ([True, 2], "True"), (["1"], "'1'")],
    )
    def test_rejects_a_delay_that_is_not_whole(self, delays, bad):
        # int() would truncate 1.7 and 2.2 to the grid (1, 2)
        with pytest.raises(ValueError, match=re.escape(f"delay must be an integer, got {bad}")):
            DelayGrid(delays)

    def test_whole_delays_of_any_type_become_ints(self):
        grid = DelayGrid([2, np.int64(3), 4.0, np.float64(5.0)])
        assert grid.delays == (2, 3, 4, 5)
        assert {type(t) for t in grid.delays} == {int}


class TestConditioningSetMembers:
    @pytest.mark.parametrize(
        "members, message",
        [
            ([(0.9, 2)], "channel must be an integer, got 0.9"),
            ([(0, 2.6)], "delay must be an integer, got 2.6"),
            ([(0, 1), (1, float("nan"))], "delay must be an integer, got nan"),
        ],
    )
    def test_rejects_a_member_that_is_not_whole(self, members, message):
        # int() would truncate (0.9, 2.6) to the member (0, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            ConditioningSet(members)

    def test_whole_members_of_any_type_become_ints(self):
        cond = ConditioningSet([(np.int64(1), 2.0), (0, np.int64(3))])
        assert cond.members == ((1, 2), (0, 3))
        assert {type(v) for member in cond.members for v in member} == {int}
