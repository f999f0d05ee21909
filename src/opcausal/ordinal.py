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

from .errors import NonFiniteValue, SeriesTooShort

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
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteValue("series contains NaN or infinite samples")
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


@dataclass
class PatternMatrix:
    """T' x N ordinal symbol indices in [0, m! - 1], each channel contiguous."""

    symbols: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        self.symbols = np.asfortranarray(self.symbols)

    @property
    def n_times(self) -> int:
        return self.symbols.shape[0]

    @property
    def n_channels(self) -> int:
        return self.symbols.shape[1]

    @property
    def n_patterns(self) -> int:
        return self.params.n_patterns

    def channel(self, n: int) -> np.ndarray:
        return self.symbols[:, n]


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


def _rank_permutations(vectors: np.ndarray) -> np.ndarray:
    """Stable argsort of each row: position of the smallest component first.

    Ties are resolved toward the earlier time index, which is exactly the
    required tie rule.
    """
    return np.argsort(vectors, axis=1, kind="stable")


def _lehmer_index(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation row (Lehmer code)."""
    m = perms.shape[1]
    code = np.zeros(perms.shape[0], dtype=np.int64)
    for j in range(m - 1):
        smaller_after = np.sum(perms[:, j + 1 :] < perms[:, j : j + 1], axis=1)
        code += smaller_after * factorial(m - 1 - j)
    return code


def encode_pattern(z: np.ndarray) -> int:
    """Map one embedding vector to its ordinal pattern index in [0, m!-1]."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError("encode_pattern expects a vector of length >= 2")
    if not np.all(np.isfinite(z)):
        raise NonFiniteValue("embedding vector contains NaN or infinite values")
    perm = _rank_permutations(z[None, :])
    return int(_lehmer_index(perm)[0])


def encode_series(x: np.ndarray, params: EmbeddingParams) -> np.ndarray:
    """Ordinal symbol sequence of a single channel."""
    vectors = embed(x, params)
    return _lehmer_index(_rank_permutations(vectors))


def build_moptn(series: MultivariateSeries, params: EmbeddingParams) -> PatternMatrix:
    """Encode every channel of a multivariate series into a PatternMatrix."""
    if series.n_samples <= params.span:
        raise SeriesTooShort(
            f"need at least {params.span + 1} samples for m={params.m}, d={params.d}; "
            f"got {series.n_samples}"
        )
    symbols = np.stack(
        [encode_series(series.data[:, n], params) for n in range(series.n_channels)]
    )
    return PatternMatrix(symbols=symbols.T, params=params)

