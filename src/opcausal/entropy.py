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
)
from .ordinal import PatternMatrix, _check_symbols

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
        delays = tuple(int(t) for t in delays)
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
        members = tuple((int(c), int(t)) for c, t in members)
        if not members:
            raise ValueError("conditioning set must have at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate (channel, delay) pair in conditioning set")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def max_delay(self) -> int:
        return max(t for _, t in self.members)


def _conditional_entropy_from_counts(counts: np.ndarray):
    """H(col | row) in bits from joint count matrices; empty cells contribute 0.

    `counts` is one (rows, cols) matrix, giving a float, or a stack of them
    with leading batch axes, giving an array of that batch shape. Each matrix
    goes through the same operations in the same order either way, so a
    batched value is bit-identical to the single-matrix one.
    """
    total = counts.sum(axis=(-2, -1), keepdims=True)
    if np.any(total == 0):
        raise DegenerateSample("no samples to estimate entropy from")
    joint = counts / total
    row = joint.sum(axis=-1, keepdims=True)
    # an empty cell keeps 1.0, whose log2 times its 0 joint is +0.0
    terms = np.divide(joint, row, out=np.ones_like(joint), where=joint > 0)
    np.log2(terms, out=terms)
    terms *= joint
    h = -terms.reshape(*counts.shape[:-2], -1).sum(axis=-1)
    return float(h) if counts.ndim == 2 else h


def co_occurrence_entropy(
    src: np.ndarray, dst: np.ndarray, tau: int, n_patterns: int
) -> float:
    """Conditional entropy of dst's symbol at t + tau given src's at t, in bits."""
    src, dst = np.asarray(src), np.asarray(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be one-dimensional and equally long")
    n_pairs = src.size - tau
    if n_pairs < 1:
        raise LagTooLarge(f"lag {tau} leaves no valid pairs in a series of length {src.size}")
    _check_symbols(src, n_patterns)
    _check_symbols(dst, n_patterns)
    src, dst = src.astype(np.int64), dst.astype(np.int64)
    codes = src[:n_pairs] * n_patterns + dst[tau:]
    return _entropy_of_codes(codes, n_patterns, n_patterns)


# Largest alphabet for which ce_tensor counts by matrix product. The dense
# product costs f^2 multiply-adds per sample and ordered pair, against one
# joint-code count per pair in the loop, and its count matrices grow as (N*f)^2.
# On a 2-core Xeon, T'=1e4-2e4 and 10 lags: at m=3 (f=6) the product took
# 0.017 s against 0.055 s for N=9 and 0.17 s against 3 s for N=36; at m=4
# (f=24) 0.080 s against 0.066 s for N=9 and 2.0 s against 3.3 s for N=36,
# holding 60 MB of counts; at m=5 (f=120) 1.9 s against 0.26 s for N=9.
_PRODUCT_MAX_PATTERNS = 6

# Rows per one-hot block. A block's product entries count at most this many
# samples, far below 2^24, so they are exact in float32.
_ROW_BLOCK = 2048


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
        # counts[j, src, a, tgt, b]: samples with channel src in symbol a at t
        # and channel tgt in symbol b at t + tau_j
        counts = _lagged_counts_by_product(pi, delays).reshape(len(delays), n, f, n, f)
        tgt, src = np.nonzero(~np.eye(n, dtype=bool))
        for j in range(len(delays)):
            pair_counts = counts[j].transpose(2, 0, 1, 3)[tgt, src]
            values[tgt, src, j] = _conditional_entropy_from_counts(pair_counts)
        return CETensor(values=values, delays=delays, n_patterns=f)
    for j, tau in enumerate(delays):
        for src, tgt in permutations(range(n), 2):
            codes = _joint_codes(pi, [(src, tau)], tau, tgt)
            values[tgt, src, j] = _entropy_of_codes(codes, f, f)
    return CETensor(values=values, delays=delays, n_patterns=f)


def _lagged_counts_by_product(pi: PatternMatrix, delays: DelayGrid) -> np.ndarray:
    """Lagged joint counts of every ordered channel pair, one product per lag.

    Returns a J x N*f x N*f int64 array whose entry [j, m*f + a, n*f + b]
    counts the t with channel m in symbol a at t and channel n in symbol b
    at t + tau_j, over t in [0, T' - tau_j), as the pair's joint codes count them.
    """
    n_times, n = pi.symbols.shape
    f = pi.n_patterns
    width = n * f
    counts = np.zeros((len(delays), width, width), dtype=np.int64)
    # a block encodes its own rows plus those of the lags up to one block
    # ahead; a farther lag's target rows are encoded on their own, so a lag
    # near T' does not stretch every block over the rows in between
    near = max((tau for tau in delays if tau <= _ROW_BLOCK), default=0)
    for start in range(0, n_times - delays.min_delay, _ROW_BLOCK):
        onehot = _onehot(pi.symbols[start : start + _ROW_BLOCK + near], f)
        for j, tau in enumerate(delays):
            k = min(_ROW_BLOCK, n_times - tau - start)
            if k > 0:
                if tau <= near:
                    target = onehot[tau : tau + k]
                else:
                    target = _onehot(pi.symbols[start + tau : start + tau + k], f)
                counts[j] += (onehot[:k].T @ target).astype(np.int64)
    return counts


def _onehot(rows: np.ndarray, f: int) -> np.ndarray:
    """float32 one-hot rows x N*f matrix of a block of symbol rows."""
    # C order, whatever the rows' layout, so the reshape needs no copy
    onehot = np.equal(rows[:, :, None], np.arange(f), order="C")
    return onehot.reshape(len(rows), -1).astype(np.float32)


def threshold(tensor: CETensor, lam: float) -> CETensor:
    """Snap every entry >= lam * h_max to exactly h_max.

    Idempotent; entries below the cut are untouched.
    """
    check("lambda", lam)
    v, h_max = tensor.values, tensor.h_max
    return replace(tensor, values=np.where(v >= lam * h_max, h_max, v), thresholded=True)


def _joint_codes(pi: PatternMatrix, members, t_start: int, target: int) -> np.ndarray:
    """Base-m! code of the conditioning symbols at each t, the target's last."""
    digits = [pi.symbols[t_start - tau : pi.n_times - tau, c] for c, tau in members]
    codes = digits[0].astype(np.int64)
    for digit in (*digits[1:], pi.symbols[t_start:, target]):
        codes *= pi.n_patterns
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
    for channel, tau in cond.members:
        if not (0 <= channel < pi.n_channels):
            raise ValueError(f"conditioning channel {channel} out of range")
        if tau < 0 or tau >= pi.n_times:
            raise LagTooLarge(f"conditioning delay {tau} out of range")
    f = pi.n_patterns
    # the joint code of the set and the target symbol is an int64 below
    # f ** (len(cond) + 1)
    if f ** (len(cond) + 1) > 2**63:
        raise ConditioningTooLarge(
            f"{len(cond)} conditioning members over {f} patterns overflow int64 joint codes"
        )
    min_start = cond.max_delay
    if t_start is None:
        t_start = min_start
    elif t_start < min_start:
        raise ValueError(f"t_start {t_start} smaller than the largest delay {min_start}")
    n_valid = pi.n_times - t_start
    if n_valid < 1:
        raise DegenerateSample("no valid time indices for this conditioning set")

    if n_valid / f ** len(cond) < MIN_SAMPLES_PER_STATE:
        warnings.warn(
            f"only {n_valid} samples for {f ** len(cond)} joint conditioning states; "
            "entropy estimate may be unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    return _entropy_of_codes(_joint_codes(pi, cond.members, t_start, target), f ** len(cond), f)


# Largest dense joint alphabet: counts and estimator arrays take 24 B a bin, 240 MB here.
_DENSE_MAX_BINS = 10_000_000


def _entropy_of_codes(codes: np.ndarray, n_states: int, f: int) -> float:
    """H(last digit | the other digits), in bits, of base-f codes in [0, n_states * f)."""
    if n_states * f <= _DENSE_MAX_BINS:
        counts = np.bincount(codes, minlength=n_states * f).reshape(n_states, f)
        return _conditional_entropy_from_counts(counts)
    return _conditional_entropy_sparse(codes, f)


def _conditional_entropy_sparse(codes: np.ndarray, f: int) -> float:
    """Same estimator by unique counts of the joint codes, for huge alphabets."""
    total = codes.size
    _, joint_counts = np.unique(codes, return_counts=True)
    _, state_counts = np.unique(codes // f, return_counts=True)
    h_joint = -np.sum(joint_counts / total * np.log2(joint_counts / total))
    h_state = -np.sum(state_counts / total * np.log2(state_counts / total))
    return float(h_joint - h_state)
