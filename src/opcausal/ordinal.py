"""Ordinal pattern encoding of multivariate time series.

Each channel is delay-embedded and every embedding vector is mapped to the
integer index of the permutation describing the rank order of its components
(smallest first, ties broken by ascending time index). The resulting T'xN
symbol matrix is the substrate for all entropy computations downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .errors import NonFiniteValue, SeriesTooShort, check

MAX_EMBEDDING_DIM = 8


@dataclass(frozen=True)
class EmbeddingParams:
    """Embedding dimension `m` (>=2) and delay `d` (>=1, in samples)."""

    m: int
    d: int

    def __post_init__(self):
        if not (2 <= self.m <= MAX_EMBEDDING_DIM):
            raise ValueError(f"embedding dimension must be in [2, {MAX_EMBEDDING_DIM}], got {self.m}")
        if self.d < 1:
            raise ValueError(f"embedding delay must be >= 1, got {self.d}")

    @property
    def n_patterns(self) -> int:
        return factorial(self.m)

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
        if not self.channel_names:
            self.channel_names = [f"x{n + 1}" for n in range(self.data.shape[1])]
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
    if factor < 1:
        raise ValueError("decimation factor must be >= 1")
    return MultivariateSeries(
        data=series.data[::factor].copy(),
        sample_rate=None if series.sample_rate is None else series.sample_rate / factor,
        channel_names=list(series.channel_names),
    )


def _check_symbols(symbols: np.ndarray, f: int) -> None:
    """Raise ValueError unless every symbol is an integer in [0, f)."""
    if symbols.dtype.kind not in "iu" or np.any((symbols < 0) | (symbols >= f)):
        raise ValueError(f"symbols must be integers in [0, {f})")


@dataclass
class PatternMatrix:
    """T' x N int64 ordinal symbol indices in [0, m! - 1], each channel contiguous."""

    symbols: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        symbols = np.asarray(self.symbols)
        _check_symbols(symbols, self.params.n_patterns)
        self.symbols = np.asfortranarray(symbols, dtype=np.int64)

    @property
    def n_times(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_channels(self) -> int:
        return self.symbols.shape[1]

    @property
    def n_patterns(self) -> int:
        return self.params.n_patterns


def embed(x: np.ndarray, params: EmbeddingParams) -> np.ndarray:
    """Delay-embed a single series into a (T - (m-1)d) x m matrix of vectors.

    Row t holds [x_t, x_{t+d}, ..., x_{t+(m-1)d}]; the last vector ends
    exactly at the final sample.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("embed expects a one-dimensional series")
    n_vectors = x.size - params.span
    if n_vectors < 1:
        raise SeriesTooShort(
            f"need at least {params.span + 1} samples for m={params.m}, d={params.d}; got {x.size}"
        )
    cols = [x[k * params.d : k * params.d + n_vectors] for k in range(params.m)]
    return np.column_stack(cols)


def _lehmer_index(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation row (Lehmer code)."""
    m = perms.shape[1]
    code = np.zeros(perms.shape[0], dtype=np.int64)
    for j in range(m - 1):
        smaller_after = np.sum(perms[:, j + 1 :] < perms[:, j : j + 1], axis=1)
        code += smaller_after * factorial(m - 1 - j)
    return code


def encode_series(x: np.ndarray, params: EmbeddingParams) -> np.ndarray:
    """Ordinal symbol sequence of a single channel."""
    # kept until the return: freeing it before the Lehmer step raised peak RSS
    vectors = embed(x, params)
    # a stable argsort puts the smallest component first and resolves ties
    # toward the earlier time index, which is exactly the required tie rule
    return _lehmer_index(np.argsort(vectors, axis=1, kind="stable"))


def build_moptn(series: MultivariateSeries, params: EmbeddingParams) -> PatternMatrix:
    """Encode every channel of a multivariate series into a PatternMatrix."""
    symbols = np.stack(
        [encode_series(series.data[:, n], params) for n in range(series.n_channels)]
    )
    return PatternMatrix(symbols=symbols.T, params=params)

