"""Lagged conditional entropies between ordinal symbol sequences.

The pairwise measure is the conditional Shannon entropy of the target's
symbols given the source's symbols a fixed lag earlier, in bits. A full
tensor of these values over all ordered channel pairs and a grid of lags is
the candidate-link structure that the causal stage thresholds and prunes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import permutations
from math import log2

import numpy as np

from .errors import (
    ConditioningTooLarge,
    DegenerateSample,
    LagTooLarge,
    TooFewChannels,
    check,
    whole,
)
from .ordinal import PatternMatrix

# Below this many samples per joint conditioning state the plug-in entropy
# estimate becomes unreliable; we warn rather than fail.
MIN_SAMPLES_PER_STATE = 10

# pipeline defaults: lambda (fraction of h_max) and delta (bits)
DEFAULT_LAMBDA = 0.995
DEFAULT_DELTA = 0.15


@dataclass(frozen=True)
class DelayGrid:
    """Strictly increasing list of non-negative lags, in samples."""

    delays: tuple[int, ...]

    def __init__(self, delays):
        delays = tuple(whole("delay", t) for t in delays)
        if not delays:
            raise ValueError("delay grid must be non-empty")
        if any(t < 0 for t in delays):
            raise ValueError("delays must be non-negative")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValueError("delays must be strictly increasing")
        object.__setattr__(self, "delays", delays)

    def __len__(self) -> int:
        return len(self.delays)

    def __iter__(self):
        return iter(self.delays)

    @property
    def max_delay(self) -> int:
        return self.delays[-1]

    @property
    def min_delay(self) -> int:
        return self.delays[0]


@dataclass
class CETensor:
    """N x N x J conditional entropies: values[n, m, j] = H_tau_j(X_n | X_m).

    Entry (n, m, j) measures the candidate link X_m -> X_n at lag tau_j.
    The diagonal is held at h_max so self-pairs can never look like links.
    """

    values: np.ndarray
    delays: DelayGrid
    n_patterns: int
    thresholded: bool = False

    @property
    def h_max(self) -> float:
        return log2(self.n_patterns)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    def candidates(self) -> np.ndarray:
        """Mask of the candidate links: the entries below h_max once thresholded."""
        if not self.thresholded:
            raise ValueError("candidate links need a thresholded tensor")
        return self.values < self.h_max


@dataclass(frozen=True)
class ConditioningSet:
    """Set of (channel, delay) pairs whose past symbols are conditioned on."""

    members: tuple[tuple[int, int], ...]

    def __init__(self, members):
        members = tuple((whole("channel", c), whole("delay", t)) for c, t in members)
        if not members:
            raise ValueError("conditioning set must have at least one member")
        if any(t < 0 for _, t in members):
            raise ValueError("conditioning delays must be non-negative")
        if len(set(members)) != len(members):
            raise ValueError("duplicate (channel, delay) pair in conditioning set")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def max_delay(self) -> int:
        return max(t for _, t in self.members)


def _conditional_entropy_from_counts(counts: np.ndarray, total: int):
    """H(col | row) in bits from joint count matrices; empty cells contribute 0.

    `counts` is one (rows, cols) matrix, giving a float, or a stack of them
    with leading batch axes, giving an array of that batch shape. `total` is
    the sample count of every matrix, the sum of its cells, which each caller
    knows and which is never 0. Each matrix goes through the same operations
    in the same order either way, so a batched value is bit-identical to the
    single-matrix one.
    """
    joint = counts / total
    row = joint.sum(axis=-1, keepdims=True)
    # an empty cell keeps 1.0, whose log2 times its 0 joint is +0.0
    terms = np.divide(joint, row, out=np.ones_like(joint), where=joint > 0)
    np.log2(terms, out=terms)
    terms *= joint
    h = -terms.reshape(*counts.shape[:-2], -1).sum(axis=-1)
    return float(h) if counts.ndim == 2 else h


# Largest alphabet for which ce_tensor counts by matrix product. The product
# has a row for each of the f-1 symbols below the last and a row of ones,
# from which the last symbol's counts follow, so it costs about (f-1)^2
# multiply-adds per sample and ordered pair for every two lags, against one
# joint-code count per pair and lag in the loop, and its count matrices grow
# as (N*f)^2. On a 2-core Xeon, random symbols, lags 1-10, T'=1e4 for N=9
# and 2e4 for N=36, medians of two runs of 3-7 calls each: at m=3 (f=6) the
# product took 0.0065-0.0074 s against 0.022-0.028 s for N=9 and
# 0.068-0.084 s against 0.54-0.58 s for N=36; at m=4 (f=24) 0.040-0.042 s
# against 0.025-0.033 s for N=9 and 0.73-0.74 s against 0.63-0.64 s for
# N=36. At m=5 (f=120), counting one lag on all f symbols per product, it
# took 1.9 s against 0.26 s for N=9.
_PRODUCT_MAX_PATTERNS = 6

# Most rows per one-hot block; it must stay below _PACK. A product counts two
# lags at once: its right operand is onehot(tau_j) + _PACK * onehot(tau_(j+1)),
# so each entry is c_j + _PACK * c_(j+1) with both counts at most _ROW_BLOCK.
# Every term and partial sum is then an integer at most
# _ROW_BLOCK * (1 + _PACK) < 2^24, exact in float32 whatever order BLAS
# sums in, and the low _PACK_BITS bits are c_j.
_ROW_BLOCK = 2048
_PACK_BITS = 12
_PACK = 1 << _PACK_BITS

# About the bytes of the two float32 block buffers, indicators and packed targets, of
# (N*(f-1) + 1) rows each: a wide input takes fewer samples per block, about
# 1035 at N=36 and m=3, while N <= 18 at m=3 keeps _ROW_BLOCK.
_BLOCK_BYTES = 1_500_000


def _block_rows(width: int) -> int:
    """Samples per one-hot block of `width` indicator rows."""
    return min(_ROW_BLOCK, _BLOCK_BYTES // (2 * 4 * width))


def ce_tensor(pi: PatternMatrix, delays: DelayGrid) -> CETensor:
    """Pairwise conditional entropies for all ordered pairs over the lag grid."""
    n = pi.n_channels
    f = pi.n_patterns
    h_max = log2(f)
    if n < 2:
        raise TooFewChannels(f"pairwise entropies need at least two channels, got {n}")
    if delays.max_delay >= pi.n_times:
        raise LagTooLarge(
            f"max delay {delays.max_delay} exceeds symbol sequence length {pi.n_times}"
        )
    values = np.full((n, n, len(delays)), h_max, dtype=float)
    if f <= _PRODUCT_MAX_PATTERNS:
        tgt, src = np.nonzero(~np.eye(n, dtype=bool))
        lag_counts = _lagged_pair_counts(pi, delays, src, tgt)
        for j, (tau, pair_counts) in enumerate(zip(delays, lag_counts)):
            values[tgt, src, j] = _conditional_entropy_from_counts(pair_counts, pi.n_times - tau)
        return CETensor(values=values, delays=delays, n_patterns=f)
    for j, tau in enumerate(delays):
        for src, tgt in permutations(range(n), 2):
            codes = _joint_codes(pi, [(src, tau)], tau, tgt)
            values[tgt, src, j] = _entropy_of_codes(codes, f, f)
    return CETensor(values=values, delays=delays, n_patterns=f)


def _lagged_pair_counts(pi: PatternMatrix, delays: DelayGrid, src, tgt):
    """Lagged joint counts of the channel pairs (src[p], tgt[p]), one lag at a time.

    Yields for each lag tau_j a P x f x f array whose entry [p, a, b] counts
    the t with channel src[p] in symbol a at t and channel tgt[p] in symbol b
    at t + tau_j, over t in [0, T' - tau_j), as the pair's joint codes count
    them. Only one lag's counts exist at a time, beside every lag's products.
    No count exceeds T', so the counts are int32 while T' < 2^31, and int64
    past that.

    The products count the symbols a, b < f - 1, and by their row of ones
    each channel's symbol counts over the lag's source and target rows. The
    counts of the last symbol are what those leave over: c[a, f-1] is the
    source's count of a less the c[a, b] with b < f - 1, and c[f-1, b]
    likewise from the target's count of b.
    """
    n = pi.n_channels
    g = pi.n_patterns - 1
    sums = _indicator_products(pi.symbols, delays.delays, g)
    # each pair's f x f cells in one lag's products; the last symbol reads
    # the ones, the count of every symbol, and then takes the others' away,
    # one slice at a time, as a sum over a short axis is slower
    symbol = np.arange(g + 1)
    rows = np.where(symbol < g, src[:, None] * g + symbol, n * g)
    cols = np.where(symbol < g, tgt[:, None] * g + symbol, n * g)
    index = rows[:, :, None] * sums.shape[-1] + cols[:, None]
    for lag_sums in sums:
        counts = lag_sums.take(index)
        for b in range(g):
            counts[..., g] -= counts[..., b]
        for a in range(g):
            counts[:, g] -= counts[:, a]
        yield counts


def _indicator_products(symbols: np.ndarray, lags, g: int) -> np.ndarray:
    """Indicator rows of the sources times those of the targets, summed per lag.

    Returns a J x (N*g + 1) x (N*g + 1) array whose entry [j, m*g + a, n*g + b]
    counts the t in [0, T' - tau_j) with channel m in symbol a < g at t and
    channel n in symbol b < g at t + tau_j. Index N*g is the row of ones, so
    the last column holds the source symbols' counts over rows [0, T' - tau_j),
    the last row the target symbols' over rows [tau_j, T'), and the corner
    T' - tau_j.
    """
    # a packed entry c_j + _PACK * c_(j+1) splits back only while c_j < _PACK
    if _ROW_BLOCK >= _PACK:
        raise RuntimeError(f"_ROW_BLOCK {_ROW_BLOCK} must stay below the packing factor {_PACK}")
    n_times, n = symbols.shape
    width = n * g + 1
    size = _block_rows(width)
    count_dtype = np.promote_types(np.int32, np.min_scalar_type(-n_times))
    sums = np.zeros((len(lags), width, width), dtype=count_dtype)
    # a block encodes its own rows plus those of the lags up to one block
    # ahead; a farther lag's target rows are encoded on their own, so a lag
    # near T' does not stretch every block over the rows in between
    near = max((tau for tau in lags if tau <= size), default=0)
    block = np.empty((width, size + near), dtype=np.float32)
    packed = np.empty((width, size), dtype=np.float32)
    for start in range(0, n_times - lags[0], size):
        onehot = _onehot(symbols[start : start + size + near], block)

        def target(tau, k):
            """Indicator columns t + tau of the block's first k columns t."""
            if tau <= near:
                return onehot[:, tau : tau + k]
            rows = symbols[start + tau : start + tau + k]
            return _onehot(rows, np.empty((width, k), dtype=np.float32))

        for j in range(0, len(lags), 2):
            k = min(size, n_times - lags[j] - start)
            if k <= 0:
                break
            # columns of the block in the next lag's window, past which its
            # part of z stays 0; the last lag of an odd grid runs alone
            k_next = max(0, min(k, n_times - lags[j + 1] - start)) if j + 1 < len(lags) else 0
            z = packed[:, :k]
            if k_next:
                np.multiply(target(lags[j + 1], k_next), _PACK, out=z[:, :k_next])
            z[:, k_next:] = 0
            z += target(lags[j], k)
            # every entry is an integer below 2^24, exact in int32
            both = (onehot[:, :k] @ z.T).astype(np.int32)
            sums[j] += both & (_PACK - 1)
            if k_next:
                both >>= _PACK_BITS
                sums[j + 1] += both
    return sums


def _onehot(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Time-major float32 indicators of a block of symbol rows, in the first columns of out.

    out has N*g + 1 rows: entry [n*g + a, t] is 1.0 where channel n shows
    symbol a < g at row t, so the symbols g and up have no row, and the last
    row is all ones.
    """
    k, n = rows.shape
    onehot = out[:, :k]
    g = (out.shape[0] - 1) // n
    symbols = np.arange(g, dtype=rows.dtype)[:, None]
    # splitting the first axis makes a view, so equal writes into out
    np.equal(rows.T[:, None], symbols, out=onehot[:-1].reshape(n, g, k))
    onehot[-1] = 1
    return onehot


def threshold(tensor: CETensor, lam: float) -> CETensor:
    """Snap every entry >= lam * h_max to exactly h_max.

    Idempotent; entries below the cut are untouched.
    """
    check("lambda", lam)
    v, h_max = tensor.values, tensor.h_max
    return replace(tensor, values=np.where(v >= lam * h_max, h_max, v), thresholded=True)


def _joint_codes(pi: PatternMatrix, members, t_start: int, target: int) -> np.ndarray:
    """Base-m! code of the conditioning symbols at each t, the target's last.

    The codes are below f^(members + 1) and held in the narrowest unsigned
    type of that bound: uint8 up to 256 joint bins, uint16 up to 65,536,
    then uint32, and uint64 only past the dense limit, where they are
    counted by their distinct values.
    """
    f, n_times = pi.n_patterns, pi.n_times
    digits = [pi.symbols[t_start - tau : n_times - tau, c] for c, tau in members]
    digits.append(pi.symbols[t_start:, target])
    # The first product is a new array of the type that holds every code, so
    # no step can wrap. Its dtype is named, not left to numpy's promotion of
    # narrow symbols and a Python int, which differs before NEP 50 (numpy 1.x).
    codes = np.multiply(digits[0], f, dtype=np.min_scalar_type(f ** len(digits) - 1))
    codes += digits[1]
    for digit in digits[2:]:
        codes *= f
        codes += digit
    return codes


def conditional_entropy_given_set(
    pi: PatternMatrix,
    target: int,
    cond: ConditioningSet,
    t_start: int | None = None,
) -> float:
    """H(target symbol at t | conditioning symbols at their lags), in bits.

    Evaluated over t in [t_start, T'), where t_start defaults to the largest
    delay in the set so every lagged index exists. Passing an explicit
    t_start >= that maximum pins the window, which makes entropies for nested
    sets directly comparable.
    """
    n_times, n_channels = pi.symbols.shape
    if not (0 <= target < n_channels):
        raise ValueError(f"target channel {target} out of range")
    for channel, tau in cond.members:
        if not (0 <= channel < n_channels):
            raise ValueError(f"conditioning channel {channel} out of range")
        if tau >= n_times:
            raise LagTooLarge(f"conditioning delay {tau} out of range")
    f = pi.n_patterns
    n_states = f ** len(cond)
    # the joint code of the set and the target symbol is below n_states * f,
    # which must stay within int64's range
    if n_states * f > 2**63:
        raise ConditioningTooLarge(
            f"{len(cond)} conditioning members over {f} patterns overflow int64 joint codes"
        )
    min_start = cond.max_delay
    if t_start is None:
        t_start = min_start
    elif t_start < min_start:
        raise ValueError(f"t_start {t_start} smaller than the largest delay {min_start}")
    n_valid = n_times - t_start
    if n_valid < 1:
        raise DegenerateSample("no valid time indices for this conditioning set")

    if n_valid / n_states < MIN_SAMPLES_PER_STATE:
        warnings.warn(
            f"only {n_valid} samples for {n_states} joint conditioning states; "
            "entropy estimate may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    return _entropy_of_codes(_joint_codes(pi, cond.members, t_start, target), n_states, f)


# Largest dense joint alphabet: counts and estimator arrays take 24 B a bin, 240 MB here.
_DENSE_MAX_BINS = 10_000_000


def _entropy_of_codes(codes: np.ndarray, n_states: int, f: int) -> float:
    """H(last digit | the other digits), in bits, of base-f codes in [0, n_states * f)."""
    if n_states * f <= _DENSE_MAX_BINS:
        counts = np.bincount(codes, minlength=n_states * f).reshape(n_states, f)
        return _conditional_entropy_from_counts(counts, codes.size)
    return _conditional_entropy_sparse(codes, f)


def _conditional_entropy_sparse(codes: np.ndarray, f: int) -> float:
    """Same estimator by unique counts of the joint codes, for huge alphabets."""
    total = codes.size
    _, joint_counts = np.unique(codes, return_counts=True)
    _, state_counts = np.unique(codes // f, return_counts=True)
    h_joint = -np.sum(joint_counts / total * np.log2(joint_counts / total))
    h_state = -np.sum(state_counts / total * np.log2(state_counts / total))
    return float(h_joint - h_state)
