"""Entropy estimators against independent brute-force oracles."""

import math
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
    co_occurrence_entropy,
    conditional_entropy_given_set,
    epsilon_test,
    threshold,
)
from opcausal import entropy
from opcausal.errors import (
    ConditioningTooLarge,
    InvalidLambda,
    LagTooLarge,
    TooFewChannels,
)
from opcausal.ordinal import PatternMatrix


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
        got = co_occurrence_entropy(src, dst, tau, 6)
        want = oracle_co_occurrence_entropy(src, dst, tau, 6)
        assert got == pytest.approx(want, abs=1e-12)

    def test_self_at_zero_lag_is_zero(self, rng):
        x = rng.integers(0, 6, size=5000)
        assert co_occurrence_entropy(x, x, 0, 6) == 0.0

    def test_independent_streams_near_log2_6(self, rng):
        a = rng.integers(0, 6, size=20_000)
        b = rng.integers(0, 6, size=20_000)
        h = co_occurrence_entropy(a, b, 3, 6)
        assert abs(h - log2(6)) < 0.02

    @settings(max_examples=50, deadline=None)
    @given(symbol_sequences, symbol_sequences, st.integers(0, 3))
    def test_bounds(self, a, b, tau):
        n = min(len(a), len(b))
        tau = min(tau, n - 1)
        h = co_occurrence_entropy(np.array(a[:n]), np.array(b[:n]), tau, 6)
        assert -1e-12 <= h <= log2(6) + 1e-12

    def test_lag_too_large(self):
        with pytest.raises(LagTooLarge):
            co_occurrence_entropy(np.zeros(5, dtype=int), np.zeros(5, dtype=int), 5, 6)


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
        want = co_occurrence_entropy(pi.symbols[:, 1], pi.symbols[:, 0], 2, 6)
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
                    want = co_occurrence_entropy(pi.symbols[:, src], pi.symbols[:, tgt], tau, f)
                    assert t.values[tgt, src, j] == want

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

    def test_pattern_matrix_rejects_non_integer_symbols(self):
        with pytest.raises(ValueError, match=r"symbols must be integers in \[0, 6\)"):
            PatternMatrix(symbols=np.zeros((10, 2)), params=EmbeddingParams(m=3, d=1))

    def test_pattern_matrix_holds_int64_symbols(self, rng):
        # uint64 symbols mixed with int64 codes would become floats
        symbols = rng.integers(0, 24, size=(743, 3))
        params = EmbeddingParams(m=4, d=1)
        unsigned = PatternMatrix(symbols=symbols.astype(np.uint64), params=params)
        assert unsigned.symbols.dtype == np.int64
        assert unsigned.symbols.flags.f_contiguous
        delays = DelayGrid([1, 4])
        assert (
            ce_tensor(unsigned, delays).values.tobytes()
            == ce_tensor(PatternMatrix(symbols=symbols, params=params), delays).values.tobytes()
        )

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [6, -1, 2.5])
    def test_co_occurrence_rejects_bad_symbols(self, rng, side, bad):
        pair = rng.integers(0, 6, size=(2, 100)).astype(type(bad))
        pair[side, 50] = bad
        with pytest.raises(ValueError, match=r"symbols must be integers in \[0, 6\)"):
            co_occurrence_entropy(pair[0], pair[1], 1, 6)


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
