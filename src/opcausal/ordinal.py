"""Ordinal pattern encoding of multivariate time series.

Each channel is delay-embedded and every embedding vector is mapped to the
integer index of the permutation describing the rank order of its components
(smallest first, ties broken by ascending time index). The resulting T'xN
symbol matrix is the substrate for all entropy computations downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import factorial

import numpy as np

from .errors import NonFiniteValue, SeriesTooShort, check, whole


@dataclass(frozen=True)
class EmbeddingParams:
    """Embedding dimension `m` and delay `d` (in samples), integers under the rules M and d."""

    m: int
    d: int

    def __post_init__(self):
        for attr, name in (("m", "M"), ("d", "d")):
            check(name, getattr(self, attr))
            object.__setattr__(self, attr, int(getattr(self, attr)))  # np.int64(3) becomes 3

    @property
    def n_patterns(self) -> int:
        return factorial(self.m)

    @property
    def symbol_dtype(self) -> np.dtype:
        """Narrowest type holding every symbol below m!: uint8 for m <= 5, uint16 up to 8."""
        return np.min_scalar_type(self.n_patterns - 1)

    @property
    def span(self) -> int:
        """Number of samples covered by one embedding vector minus one."""
        return (self.m - 1) * self.d


@dataclass
class MultivariateSeries:
    """T x N matrix of real samples with optional sample rate and names."""

    data: np.ndarray
    sample_rate: float | None = None
    channel_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim == 1:
            self.data = self.data[:, None]
        if self.data.ndim != 2:
            raise ValueError("series data must be a T x N matrix")
        if self.data.shape[1] == 0:
            raise ValueError("series data needs at least one column")
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteValue("series contains NaN or infinite samples")
        if self.sample_rate is not None:
            check("sample_rate", self.sample_rate)
        # a list of its own, so a series derived by dataclasses.replace shares none
        self.channel_names = list(self.channel_names) or [f"x{n + 1}" for n in range(self.n_channels)]
        if len(self.channel_names) != self.data.shape[1]:
            raise ValueError("channel_names length must match the number of columns")

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]


def decimate(series: MultivariateSeries, factor: int) -> MultivariateSeries:
    """Keep every factor-th sample (no anti-alias filter, plain subsampling).

    Ordinal patterns depend only on rank order, so subsampling is the natural
    way to match the pattern span to the timescale of interest; low-pass
    filtering beforehand would distort the rank structure it is meant to
    protect.
    """
    factor = whole("decimation factor", factor)
    if factor < 1:
        raise ValueError("decimation factor must be >= 1")
    rate = None if series.sample_rate is None else series.sample_rate / factor
    return replace(series, data=series.data[::factor].copy(), sample_rate=rate)


@dataclass
class PatternMatrix:
    """T' x N ordinal symbol indices in [0, m! - 1], each channel contiguous.

    The symbols are held as `params.symbol_dtype`, unsigned and as narrow as
    m! allows, whatever integer type they arrive in. Arithmetic on them can
    wrap in that type, so code computing with them casts them first.
    """

    symbols: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        symbols = np.asarray(self.symbols)
        f = self.params.n_patterns
        # an empty matrix has no symbol out of range, and no min or max
        if symbols.dtype.kind not in "iu" or (
            symbols.size and (symbols.min() < 0 or symbols.max() >= f)
        ):
            raise ValueError(f"symbols must be integers in [0, {f})")
        self.symbols = np.asfortranarray(symbols, dtype=self.params.symbol_dtype)

    @property
    def n_times(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_channels(self) -> int:
        return self.symbols.shape[1]

    @property
    def n_patterns(self) -> int:
        return self.params.n_patterns


def _n_vectors(n_samples: int, params: EmbeddingParams) -> int:
    """Embedding vectors in a series of n_samples; SeriesTooShort if none fits."""
    n_vectors = n_samples - params.span
    if n_vectors < 1:
        raise SeriesTooShort(
            f"need at least {params.span + 1} samples for m={params.m}, d={params.d}; "
            f"got {n_samples}"
        )
    return n_vectors


def embed(x: np.ndarray, params: EmbeddingParams) -> np.ndarray:
    """Delay-embed a single series into a (T - (m-1)d) x m matrix of vectors.

    Row t holds [x_t, x_{t+d}, ..., x_{t+(m-1)d}]; the last vector ends
    exactly at the final sample.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("embed expects a one-dimensional series")
    n_vectors = _n_vectors(x.size, params)
    cols = [x[k * params.d : k * params.d + n_vectors] for k in range(params.m)]
    return np.column_stack(cols)


# Rows encoded per pass: _BLOCK_ROWS up to 9 channels and fewer beyond, so
# that a block holds at most _BLOCK_SAMPLES samples and its int8 counts,
# int32 codes and their temporaries take about 0.74 traced MB at m = 3
# whatever the width (1024 rows at N = 36).
_BLOCK_ROWS = 4096
_BLOCK_SAMPLES = 9 * _BLOCK_ROWS


def _encode(data: np.ndarray, params: EmbeddingParams) -> np.ndarray:
    """T' x N Fortran symbols of the finite T x N samples in data, as params.symbol_dtype.

    The symbol of a vector is the Lehmer code of its stable argsort:
    sum over components e of inv(e) * (m-1-rank(e))!, where inv(e) counts the
    earlier components above x_e and rank(e) is e's sorted position, ties
    going to the earlier component. One comparison x_a > x_e per pair a < e
    adds to inv(e) and rank(a); rank(e) gains the e - inv(e) earlier
    components that do not exceed x_e.
    """
    m, d = params.m, params.d
    n_vectors = _n_vectors(data.shape[0], params)
    weights = np.array([factorial(m - 1 - r) for r in range(m)], dtype=np.int32)
    out = np.empty((n_vectors, data.shape[1]), dtype=params.symbol_dtype, order="F")
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_SAMPLES // data.shape[1]))
    for r0 in range(0, n_vectors, rows):
        r1 = min(r0 + rows, n_vectors)
        x = [data[r0 + k * d : r1 + k * d] for k in range(m)]
        inv = np.zeros((m, *x[0].shape), dtype=np.int8)
        rank = np.zeros_like(inv)
        greater = np.empty(x[0].shape, dtype=bool)
        for e in range(1, m):
            for a in range(e):
                np.greater(x[a], x[e], out=greater)
                inv[e] += greater.view(np.int8)
                rank[a] += greater.view(np.int8)
        rank += np.arange(m, dtype=np.int8)[:, None, None] - inv
        code = np.zeros(x[0].shape, dtype=np.int32)
        for e in range(1, m):
            code += inv[e] * weights[rank[e]]
        out[r0:r1] = code
    return out


def build_moptn(series: MultivariateSeries, params: EmbeddingParams) -> PatternMatrix:
    """Encode every channel of a multivariate series into a PatternMatrix."""
    return PatternMatrix(symbols=_encode(series.data, params), params=params)
