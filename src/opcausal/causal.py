"""Causal network extraction from the thresholded entropy tensor.

A sub-threshold entry is only a candidate link; each candidate is tested by
conditioning the target on a small set of shared neighbors and measuring how
much additional entropy reduction the candidate source provides. The test
gives one `Evidence` row per candidate; candidates whose contribution falls
below delta are pruned as indirect. The rows do not depend on delta, so an
`EvidenceTable` holds them once and gives the network at any delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2
from typing import Any

import numpy as np

from .entropy import (
    DEFAULT_DELTA,
    DEFAULT_LAMBDA,
    MIN_SAMPLES_PER_STATE,
    CETensor,
    ConditioningSet,
    DelayGrid,
    ce_tensor,
    conditional_entropy_given_set,
    threshold,
)
from .errors import CandidateNotALink, DegenerateSample, check
from .ordinal import EmbeddingParams, MultivariateSeries, PatternMatrix, build_moptn

# Largest conditioning set the epsilon test uses. At m = 3 the sample rule
# alone would allow four members from T' >= 77,760, which would change the
# edges of long recordings.
_MAX_CONDITIONING = 3


@dataclass(frozen=True)
class Evidence:
    """One candidate link and its epsilon test; any delta <= epsilon keeps it.

    epsilon is the drop in the target's entropy when the source joins
    `conditioning`; ce is the candidate's pairwise conditional entropy.
    """

    source: int
    target: int
    delay: int
    ce: float
    conditioning: ConditioningSet
    epsilon: float


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    delay: int
    ce: float
    strength: float


@dataclass
class CausalNetwork:
    """Final edge list plus the configuration that produced it."""

    edges: list[Edge]
    h_max: float
    params: dict[str, Any] = field(default_factory=dict)

    def edge_triples(self) -> set[tuple[int, int, int]]:
        return {(e.source, e.target, e.delay) for e in self.edges}

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(e.source, e.target) for e in self.edges}


def minimal_conditioning_set(
    tensor: CETensor, m: int, n: int, size: int = _MAX_CONDITIONING
) -> ConditioningSet:
    """Conditioning set for testing the candidate link n -> m.

    Primary choice: parents of m whose channel is also a child of n (other
    than m itself). Falls back to the common parents of m and n, and finally
    to the target's own past at the grid's smallest positive delay (1 on a
    grid of lag 0 alone). Sets are node-based: a channel linked at several
    delays contributes only its lowest-(CE, delay) lag. Members are ordered
    by (CE, channel, delay), and the first `size` of them are kept.
    """
    linked = tensor.candidates().any(axis=2)
    if not linked[m, n]:
        raise CandidateNotALink(f"{n} -> {m} is not a candidate link")
    for members in (linked[m] & linked[:, n], linked[m] & linked[n]):
        members[m] = False
        if members.any():
            break
    else:
        return ConditioningSet([(m, next((t for t in tensor.delays if t > 0), 1))])

    channels = np.flatnonzero(members)
    lags = tensor.values[m, channels].argmin(axis=1)
    # lag index order is delay order: the grid is strictly increasing
    best = sorted(zip(tensor.values[m, channels, lags].tolist(), channels.tolist(), lags.tolist()))
    return ConditioningSet([(c, tensor.delays.delays[j]) for _, c, j in best[:size]])


def epsilon_test(
    pi: PatternMatrix,
    m: int,
    n: int,
    tau: int,
    p_min: ConditioningSet,
    delta: float,
) -> tuple[bool, float]:
    """Entropy drop from adding the candidate source to the conditioning set.

    Both entropies are evaluated on the same time window (fixed by the
    largest lag involved, including the candidate's), so the drop is
    non-negative up to float error. Returns (keep, epsilon); keep is False
    when epsilon < delta.
    """
    check("delta", delta)
    augmented = ConditioningSet(list(p_min.members) + [(n, tau)])
    t_start = max(p_min.max_delay, tau)
    h_base = conditional_entropy_given_set(pi, m, p_min, t_start=t_start)
    h_full = conditional_entropy_given_set(pi, m, augmented, t_start=t_start)
    eps = h_base - h_full
    return eps >= delta, eps


def lowest_ce_per_pair(links):
    """{(source, target): its lowest-(ce, delay) link} of Evidence rows or edges."""
    best = {}
    for link in sorted(links, key=lambda link: (link.ce, link.delay)):
        best.setdefault((link.source, link.target), link)
    return best


def candidate_tensor(
    series: MultivariateSeries,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = DEFAULT_LAMBDA,
) -> tuple[PatternMatrix, CETensor]:
    """Encoding, pairwise entropies, and thresholding (no pruning).

    A channel whose symbols are all one pattern has zero entropy, so every
    source would look like a link into it; such channels raise
    DegenerateSample. A lambda outside (0, 1] raises InvalidLambda before
    any symbol is encoded.
    """
    check("lambda", lam)
    pi = build_moptn(series, params)
    constant = np.flatnonzero(pi.symbols.min(axis=0) == pi.symbols.max(axis=0))
    if constant.size:
        names = ", ".join(f"{n} ({series.channel_names[n]})" for n in constant)
        raise DegenerateSample(f"channel(s) {names} hold a single ordinal pattern")
    return pi, threshold(ce_tensor(pi, delays), lam)


def reliable_conditioning_size(pi: PatternMatrix) -> int:
    """Conditioning-set size the sample length supports, at most _MAX_CONDITIONING.

    The epsilon test conditions on r + 1 variables; we require at least
    MIN_SAMPLES_PER_STATE samples per augmented joint state, since below that
    the plug-in entropy difference is dominated by estimator bias rather
    than actual dependence.
    """
    r = 1
    while (
        r < _MAX_CONDITIONING
        and pi.n_times / pi.n_patterns ** (r + 2) >= MIN_SAMPLES_PER_STATE
    ):
        r += 1
    return r


def prune_tensor(
    pi: PatternMatrix,
    tensor: CETensor,
    delta: float,
) -> list[Evidence]:
    """Run the epsilon test on every candidate: one Evidence row each.

    Every conditioning set, one per (target, source) pair, comes from the
    thresholded input tensor alone, so the rows never depend on evaluation
    order, and not on delta either: delta only sets each epsilon_test's keep
    flag, `epsilon >= delta`. Rows are ordered by target, source and delay.
    """
    r_eff = reliable_conditioning_size(pi)
    p_mins: dict[tuple[int, int], ConditioningSet] = {}
    rows = []
    for m, n, j in zip(*np.nonzero(tensor.candidates())):
        m, n, tau = int(m), int(n), tensor.delays.delays[j]
        if (m, n) not in p_mins:
            p_mins[m, n] = minimal_conditioning_set(tensor, m, n, r_eff)
        _, eps = epsilon_test(pi, m, n, tau, p_mins[m, n], delta)
        rows.append(Evidence(n, m, tau, float(tensor.values[m, n, j]), p_mins[m, n], eps))
    return rows


@dataclass(frozen=True)
class EvidenceTable:
    """One input's Evidence rows and the embedding, grid and lambda behind them."""

    rows: tuple[Evidence, ...]
    params: EmbeddingParams
    delays: DelayGrid
    lam: float

    @property
    def h_max(self) -> float:
        return log2(self.params.n_patterns)

    def network(self, delta=None, one_delay_per_pair=False) -> CausalNetwork:
        """Edges (by source, target, delay) of the rows with epsilon >= delta, all rows for None.

        With one_delay_per_pair each directed pair keeps only its lowest-CE delay, which
        suits couplings through a smooth response, where neighboring lags pass as well.
        """
        if delta is not None:
            check("delta", delta)
        edges = [Edge(r.source, r.target, r.delay, r.ce, self.h_max - r.ce)
                 for r in self.rows if delta is None or r.epsilon >= delta]
        if one_delay_per_pair:
            edges = list(lowest_ce_per_pair(edges).values())
        edges.sort(key=lambda e: (e.source, e.target, e.delay))
        snapshot = {"m": self.params.m, "d": self.params.d, "delays": list(self.delays.delays),
                    "lambda": self.lam, "delta": delta}
        return CausalNetwork(edges=edges, h_max=self.h_max, params=snapshot)


def evidence_table(
    series: MultivariateSeries,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = DEFAULT_LAMBDA,
    delta: float = DEFAULT_DELTA,
) -> EvidenceTable:
    """Encode, count, threshold and prune once: every network of `series` is a view of it.

    No row depends on delta; it sets only epsilon_test's keep flag, read by perfbench's tracer.
    """
    check("delta", delta)
    pi, tensor = candidate_tensor(series, params, delays, lam)
    return EvidenceTable(tuple(prune_tensor(pi, tensor, delta)), params, delays, lam)


def infer_network(
    series: MultivariateSeries,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = DEFAULT_LAMBDA,
    delta: float = DEFAULT_DELTA,
    one_delay_per_pair: bool = False,
) -> CausalNetwork:
    """Full pipeline: the input's EvidenceTable viewed at delta."""
    return evidence_table(series, params, delays, lam, delta).network(delta, one_delay_per_pair)
