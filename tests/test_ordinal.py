"""Ordinal pattern encoding: worked examples, counting, and properties."""

import re
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opcausal import EmbeddingParams, MultivariateSeries, build_moptn, embed
from opcausal.errors import NonFiniteValue, SeriesTooShort
from opcausal.ordinal import decimate


def lex_rank(perm):
    """Rank of a permutation among all permutations of its length, sorted."""
    ordered = sorted(permutations(range(len(perm))))
    return ordered.index(tuple(perm))


def encode_channel(x, params):
    """Ordinal symbols of the one-channel series x, as build_moptn encodes them."""
    return build_moptn(MultivariateSeries(data=x), params).symbols[:, 0]


def encode_vector(z):
    """Pattern index of one vector: the single symbol of the series z at d=1."""
    (symbol,) = encode_channel(z, EmbeddingParams(m=len(z), d=1))
    return int(symbol)


def reference_symbols(x, params):
    """Ordinal symbols of one channel: Lehmer code of each embedding vector's stable argsort."""
    perms = np.argsort(embed(x, params), axis=1, kind="stable")
    m = params.m
    code = np.zeros(perms.shape[0], dtype=np.int64)
    for j in range(m - 1):
        smaller_after = np.sum(perms[:, j + 1 :] < perms[:, j : j + 1], axis=1)
        code += smaller_after * factorial(m - 1 - j)
    return code


def oracle_inputs(kind, rng, shape):
    """Continuous samples, samples rounded so ties are common, or ties holding +0.0 and -0.0."""
    x = rng.standard_normal(shape)
    if kind == "rounded":
        return np.round(2.0 * x)
    if kind == "signed_zeros":
        return np.copysign(np.round(x), rng.choice([-1.0, 1.0], shape))
    return x


class TestEncodePattern:
    def test_known_vector(self):
        # rank order of [3, 9, 10, 1, 6] is (3, 0, 4, 1, 2): index 76
        assert encode_vector(np.array([3.0, 9.0, 10.0, 1.0, 6.0])) == 76

    def test_increasing_vector_is_identity_pattern(self):
        assert encode_vector(np.array([1.0, 2.0, 3.0])) == 0

    def test_ties_resolve_to_earlier_index(self):
        # [2, 2, 1]: smallest is x3, then the tie goes to the earlier x1
        assert encode_vector(np.array([2.0, 2.0, 1.0])) == 4

    def test_constant_vector_is_identity_pattern(self):
        assert encode_vector(np.zeros(4)) == 0

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 6),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_matches_enumerated_lexicographic_rank(self, z):
        perm = tuple(np.argsort(z, kind="stable"))
        assert encode_vector(z) == lex_rank(perm)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 5),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
    def test_index_in_range(self, z):
        m = z.size
        assert 0 <= encode_vector(z) < factorial(m)


class TestEmbed:
    def test_vector_count(self):
        x = np.arange(100.0)
        params = EmbeddingParams(m=3, d=7)
        assert embed(x, params).shape == (100 - 2 * 7, 3)

    def test_rows_are_lagged_samples(self):
        x = np.arange(20.0)
        vectors = embed(x, EmbeddingParams(m=4, d=2))
        np.testing.assert_array_equal(vectors[0], [0, 2, 4, 6])
        np.testing.assert_array_equal(vectors[-1], [13, 15, 17, 19])

    def test_too_short_series(self):
        with pytest.raises(SeriesTooShort):
            embed(np.arange(5.0), EmbeddingParams(m=3, d=3))

    def test_exact_minimum_length(self):
        params = EmbeddingParams(m=3, d=3)
        assert embed(np.arange(7.0), params).shape == (1, 3)

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="^embed expects a one-dimensional series$"):
            embed(np.zeros((20, 2)), EmbeddingParams(m=3, d=1))

    @given(
        st.integers(2, 5),
        st.integers(1, 10),
        st.integers(0, 50),
    )
    def test_count_formula(self, m, d, extra):
        params = EmbeddingParams(m=m, d=d)
        t = params.span + 1 + extra
        x = np.random.default_rng(0).standard_normal(t)
        assert encode_channel(x, params).size == t - (m - 1) * d


class TestEncodeSeries:
    def test_matches_per_vector_encoding(self, rng):
        x = rng.standard_normal(300)
        params = EmbeddingParams(m=4, d=3)
        vectors = embed(x, params)
        expected = [encode_vector(v) for v in vectors]
        np.testing.assert_array_equal(encode_channel(x, params), expected)

    def test_monotone_series_is_all_identity(self):
        symbols = encode_channel(np.arange(50.0), EmbeddingParams(m=3, d=2))
        assert np.all(symbols == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, rng, bad):
        x = rng.standard_normal(100)
        x[40] = bad
        with pytest.raises(NonFiniteValue, match="NaN or infinite"):
            encode_channel(x, EmbeddingParams(m=3, d=2))


class TestBuildMoptn:
    def test_shape(self, random_series):
        pi = build_moptn(random_series, EmbeddingParams(m=3, d=5))
        assert pi.symbols.shape == (2000 - 2 * 5, 3)
        assert pi.n_patterns == 6

    def test_channels_encoded_independently(self, rng):
        data = rng.standard_normal((500, 2))
        params = EmbeddingParams(m=3, d=2)
        pi = build_moptn(MultivariateSeries(data=data), params)
        np.testing.assert_array_equal(pi.symbols[:, 0], encode_channel(data[:, 0], params))
        np.testing.assert_array_equal(pi.symbols[:, 1], encode_channel(data[:, 1], params))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            build_moptn(
                MultivariateSeries(data=np.zeros((4, 2))), EmbeddingParams(m=3, d=2)
            )

    # 9000 rows cross the encoder's row blocks; m = 8 runs every comparison
    @pytest.mark.parametrize("kind", ["continuous", "rounded", "signed_zeros"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_equals_argsort_lehmer_oracle(self, rng, m, d, kind):
        data = oracle_inputs(kind, rng, (9000, 3))
        params = EmbeddingParams(m=m, d=d)
        symbols = build_moptn(MultivariateSeries(data=data), params).symbols
        expected = np.stack([reference_symbols(data[:, n], params) for n in range(3)], axis=1)
        assert symbols.dtype == (np.uint8 if m <= 5 else np.uint16) and symbols.flags.f_contiguous
        np.testing.assert_array_equal(symbols, expected)

    # 40 channels take 921-row blocks, so 2500 rows cross two block edges
    @pytest.mark.parametrize("kind", ["continuous", "rounded"])
    def test_wide_input_equals_the_oracle_across_narrower_blocks(self, rng, kind):
        data = oracle_inputs(kind, rng, (2500, 40))
        params = EmbeddingParams(m=4, d=2)
        symbols = build_moptn(MultivariateSeries(data=data), params).symbols
        expected = np.stack([reference_symbols(data[:, n], params) for n in range(40)], axis=1)
        np.testing.assert_array_equal(symbols, expected)

    def test_wide_encode_peak_memory_stays_at_its_blocks(self, rng):
        # 20,000 x 36 samples at m=3, d=100, the shape of one wide_infer
        # item: the T' x N uint8 symbols and one 1024-row block's counts,
        # codes and temporaries peak at 1,448,948-1,449,348 traced bytes
        # over seven rng seeds (numpy 2.4.6), against 2,994,884-2,995,284
        # with 4096-row blocks; the bound keeps the 4.8% margin of
        # ce_tensor's peak-memory bound
        series = MultivariateSeries(data=rng.standard_normal((20_000, 36)))
        tracemalloc.start()
        try:
            build_moptn(series, EmbeddingParams(m=3, d=100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_518_917

    @pytest.mark.parametrize("m", range(2, 9))
    def test_symbols_take_the_narrowest_type(self, rng, m):
        dtype = np.uint8 if m <= 5 else np.uint16
        params = EmbeddingParams(m=m, d=1)
        assert params.symbol_dtype == dtype
        pi = build_moptn(MultivariateSeries(data=rng.standard_normal((50, 2))), params)
        assert pi.symbols.dtype == dtype

    @pytest.mark.parametrize("kind", ["rounded", "signed_zeros"])
    def test_oracle_inputs_hold_ties(self, rng, kind):
        x = oracle_inputs(kind, rng, (9000, 3))[:, 0]
        vectors = embed(x, EmbeddingParams(m=3, d=1))
        tied = (vectors[:, :, None] == vectors[:, None, :]).sum(axis=(1, 2)) > 3
        assert tied.mean() > 0.2
        if kind == "signed_zeros":
            zeros = x[x == 0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()


class TestDecimate:
    def test_strided_copy(self, rng):
        s = MultivariateSeries(data=rng.standard_normal((100, 2)), sample_rate=1000.0)
        dec = decimate(s, 4)
        np.testing.assert_array_equal(dec.data, s.data[::4])
        assert dec.sample_rate == 250.0

    def test_factor_one_is_identity(self, random_series):
        dec = decimate(random_series, 1)
        np.testing.assert_array_equal(dec.data, random_series.data)

    def test_rejects_bad_factor(self, random_series):
        with pytest.raises(ValueError):
            decimate(random_series, 0)

    # True once kept every sample, and 2.5 reached the slice as a bare TypeError
    @pytest.mark.parametrize("factor", [True, 2.5])
    def test_factor_that_is_not_an_integer_is_named(self, random_series, factor):
        message = f"decimation factor must be an integer, got {factor!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            decimate(random_series, factor)

    def test_whole_float_factor_is_the_integer(self, random_series):
        np.testing.assert_array_equal(
            decimate(random_series, 2.0).data, decimate(random_series, 2).data
        )


class TestParams:
    @pytest.mark.parametrize("m", [0, 1, 9])
    def test_dimension_bounds(self, m):
        with pytest.raises(ValueError):
            EmbeddingParams(m=m, d=1)

    def test_delay_bound(self):
        with pytest.raises(ValueError):
            EmbeddingParams(m=3, d=0)

    NOT_INTEGERS = [
        (3.5, 1, "embedding dimension must be an integer in [2, 8], got 3.5"),
        (3.0, 1, "embedding dimension must be an integer in [2, 8], got 3.0"),
        (3, 1.5, "embedding delay must be an integer >= 1, got 1.5"),
        (3, True, "embedding delay must be an integer >= 1, got True"),
        (3, "2", "d must be a number, got '2'"),
    ]

    # each id names the inputs alone, so rewording a message renames no test
    @pytest.mark.parametrize(
        "m, d, message", NOT_INTEGERS, ids=[f"{m!r}-{d!r}" for m, d, _ in NOT_INTEGERS]
    )
    def test_rejects_a_value_that_is_not_an_integer(self, m, d, message):
        # a float m or d would otherwise build and fail later in the encoder
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmbeddingParams(m=m, d=d)

    def test_numpy_integers_become_ints(self):
        # so a network's params, which copy m and d, stay JSON numbers
        params = EmbeddingParams(m=np.int64(3), d=np.int64(2))
        assert params == EmbeddingParams(m=3, d=2)
        assert type(params.m) is int and type(params.d) is int

    def test_span(self):
        assert EmbeddingParams(m=3, d=100).span == 200

    def test_series_needs_a_column(self):
        # so build_moptn always reaches embed, which names a short series
        with pytest.raises(ValueError, match="at least one column"):
            MultivariateSeries(data=np.zeros((10, 0)))

    def test_series_data_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="^series data must be a T x N matrix$"):
            MultivariateSeries(data=np.zeros((10, 2, 2)))

    def test_series_needs_a_name_per_column(self):
        message = "^channel_names length must match the number of columns$"
        with pytest.raises(ValueError, match=message):
            MultivariateSeries(data=np.zeros((10, 2)), channel_names=["a", "b", "c"])

    @pytest.mark.parametrize("rate", [0.0, -100.0, float("nan"), float("inf")])
    def test_sample_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="sample rate must be a positive finite number"):
            MultivariateSeries(data=np.zeros((10, 2)), sample_rate=rate)
