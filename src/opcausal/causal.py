"""Causal network extraction from the thresholded entropy tensor.

A sub-threshold entry is only a candidate link; each candidate is tested by
conditioning the target on a small set of shared neighbors and measuring how
much additional entropy reduction the candidate source provides. The test
gives one `Evidence` row per candidate; candidates whose contribution falls
below delta are pruned as indirect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .entropy import (
    DEFAULT_DELTA,
    DEFAULT_LAMBDA,
    DEFAULT_R_MAX,
    MIN_SAMPLES_PER_STATE,
    CETensor,
    ConditioningSet,
    DelayGrid,
    ce_tensor,
    conditional_entropy_given_set,
    threshold,
)
from .errors import CandidateNotALink, DegenerateSample
from .ordinal import EmbeddingParams, MultivariateSeries, PatternMatrix, build_moptn


@dataclass(frozen=True)
class Neighbor:
    """One directed candidate link endpoint: channel, lag, and its CE."""

    channel: int
    delay: int
    ce: float


@dataclass
class NeighborSets:
    """Per-node parents and children extracted from a thresholded tensor.

    parents[m] lists (source, delay, ce) with source -> m; children[n] is the
    transposed view.
    """

    parents: dict[int, list[Neighbor]]
    children: dict[int, list[Neighbor]]
    n_channels: int


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


def neighbor_sets(tensor: CETensor) -> NeighborSets:
    """Collect every sub-threshold (source, target, delay) candidate."""
    if not tensor.thresholded:
        raise ValueError("neighbor_sets requires a thresholded tensor")
    n = tensor.n_channels
    parents: dict[int, list[Neighbor]] = {m: [] for m in range(n)}
    children: dict[int, list[Neighbor]] = {m: [] for m in range(n)}
    targets, sources, lags = np.nonzero(tensor.values < tensor.h_max)
    for tgt, src, j in zip(targets, sources, lags):
        tau = tensor.delays.delays[j]
        ce = float(tensor.values[tgt, src, j])
        parents[int(tgt)].append(Neighbor(int(src), tau, ce))
        children[int(src)].append(Neighbor(int(tgt), tau, ce))
    return NeighborSets(parents=parents, children=children, n_channels=n)


def minimal_conditioning_set(
    sets: NeighborSets,
    m: int,
    n: int,
    r_max: int = DEFAULT_R_MAX,
    fallback_delay: int = 1,
) -> ConditioningSet:
    """Conditioning set for testing the candidate link n -> m.

    Primary choice: parents of m whose channel is also a child of n (other
    than m itself). Falls back to the common parents of m and n, and finally
    to the target's own past at `fallback_delay`. Sets are node-based: a
    channel linked at several delays contributes only its most dominant
    (lowest-CE) delay. Capped at the r_max members with the lowest CE, equal
    CEs broken by (channel, delay) order.
    """
    if not any(p.channel == n for p in sets.parents[m]):
        raise CandidateNotALink(f"{n} -> {m} is not a candidate link")

    children_of_n = {c.channel for c in sets.children[n]} - {m}
    members = [p for p in sets.parents[m] if p.channel in children_of_n]
    if not members:
        parents_of_n = {p.channel for p in sets.parents[n]} - {m}
        members = [p for p in sets.parents[m] if p.channel in parents_of_n]
    if not members:
        return ConditioningSet([(m, fallback_delay)])

    best_per_channel: dict[int, Neighbor] = {}
    for p in sorted(members, key=lambda p: (p.ce, p.delay)):
        best_per_channel.setdefault(p.channel, p)
    members = list(best_per_channel.values())
    if len(members) > r_max:
        members = sorted(members, key=lambda p: (p.ce, p.channel, p.delay))[:r_max]
    return ConditioningSet([(p.channel, p.delay) for p in members])


def epsilon_test(
    pi: PatternMatrix,
    m: int,
    n: int,
    tau: int,
    p_min: ConditioningSet,
    delta: float,
    r_max: int = DEFAULT_R_MAX,
) -> tuple[bool, float]:
    """Entropy drop from adding the candidate source to the conditioning set.

    Both entropies are evaluated on the same time window (fixed by the
    largest lag involved, including the candidate's), so the drop is
    non-negative up to float error. Returns (keep, epsilon); keep is False
    when epsilon < delta.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    augmented = ConditioningSet(list(p_min.members) + [(n, tau)])
    t_start = max(p_min.max_delay, tau)
    h_base = conditional_entropy_given_set(pi, m, p_min, r_max=r_max, t_start=t_start)
    h_full = conditional_entropy_given_set(
        pi, m, augmented, r_max=r_max + 1, t_start=t_start
    )
    eps = h_base - h_full
    return eps >= delta, eps


def lowest_ce_per_pair(links):
    """{(source, target): its lowest-(ce, delay) link} of Evidence rows or edges."""
    best = {}
    for link in sorted(links, key=lambda link: (link.ce, link.delay)):
        best.setdefault((link.source, link.target), link)
    return best


def _edges(links, h_max: float, one_per_pair: bool = False) -> list[Edge]:
    """Edges of (source, target, delay, ce) links, by source, target, delay."""
    edges = [Edge(src, tgt, tau, ce, h_max - ce) for src, tgt, tau, ce in links]
    if one_per_pair:
        edges = list(lowest_ce_per_pair(edges).values())
    edges.sort(key=lambda e: (e.source, e.target, e.delay))
    return edges


def candidate_tensor(
    series: MultivariateSeries,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = DEFAULT_LAMBDA,
) -> tuple[PatternMatrix, CETensor]:
    """Encoding, pairwise entropies, and thresholding (no pruning).

    A channel whose symbols are all one pattern has zero entropy, so every
    source would look like a link into it; such channels raise
    DegenerateSample.
    """
    pi = build_moptn(series, params)
    constant = np.flatnonzero((pi.symbols == pi.symbols[0]).all(axis=0))
    if constant.size:
        names = ", ".join(f"{n} ({series.channel_names[n]})" for n in constant)
        raise DegenerateSample(f"channel(s) {names} hold a single ordinal pattern")
    return pi, threshold(ce_tensor(pi, delays), lam)


def bivariate_network(
    series: MultivariateSeries,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = DEFAULT_LAMBDA,
) -> CausalNetwork:
    """Network from thresholding alone; indirect links are not removed."""
    _, tensor = candidate_tensor(series, params, delays, lam)
    parents = neighbor_sets(tensor).parents
    links = [(p.channel, m, p.delay, p.ce) for m in parents for p in parents[m]]
    return CausalNetwork(
        edges=_edges(links, tensor.h_max),
        h_max=tensor.h_max,
        params=_param_snapshot(params, delays, lam, delta=None, r_max=None),
    )


def reliable_conditioning_size(pi: PatternMatrix, r_max: int = DEFAULT_R_MAX) -> int:
    """Largest conditioning-set size the sample length supports, capped at r_max.

    The epsilon test conditions on r + 1 variables; we require at least
    MIN_SAMPLES_PER_STATE samples per augmented joint state, since below that
    the plug-in entropy difference is dominated by estimator bias rather
    than actual dependence.
    """
    r = 1
    while (
        r < r_max
        and pi.n_times / pi.n_patterns ** (r + 2) >= MIN_SAMPLES_PER_STATE
    ):
        r += 1
    return r


def prune_tensor(
    pi: PatternMatrix,
    tensor: CETensor,
    delta: float,
    r_max: int = DEFAULT_R_MAX,
) -> list[Evidence]:
    """Run the epsilon test on every candidate: one Evidence row each.

    Every conditioning set, one per (target, source) pair, comes from the
    thresholded input tensor alone, so the rows never depend on evaluation
    order, and not on delta either: delta only sets each epsilon_test's keep
    flag, `epsilon >= delta`. Rows are ordered by target, source and delay.
    """
    sets = neighbor_sets(tensor)
    r_eff = reliable_conditioning_size(pi, r_max)
    rows = []
    for m in range(sets.n_channels):
        p_mins = {
            n: minimal_conditioning_set(sets, m, n, r_eff, tensor.delays.min_delay)
            for n in dict.fromkeys(cand.channel for cand in sets.parents[m])
        }
        for cand in sets.parents[m]:
            p_min = p_mins[cand.channel]
            _, eps = epsilon_test(pi, m, cand.channel, cand.delay, p_min, delta, r_max)
            rows.append(Evidence(cand.channel, m, cand.delay, cand.ce, p_min, eps))
    return rows


def _param_snapshot(params, delays, lam, delta, r_max) -> dict[str, Any]:
    return {
        "m": params.m,
        "d": params.d,
        "delays": list(delays.delays),
        "lambda": lam,
        "delta": delta,
        "r_max": r_max,
    }


def infer_network(
    series: MultivariateSeries,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = DEFAULT_LAMBDA,
    delta: float = DEFAULT_DELTA,
    r_max: int = DEFAULT_R_MAX,
    one_delay_per_pair: bool = False,
) -> CausalNetwork:
    """Full pipeline: encode, pairwise entropies, threshold, prune, edge list.

    With one_delay_per_pair the edge list keeps only the lowest-CE surviving
    delay for each directed pair, which suits systems whose coupling acts
    through a smooth response so several neighboring lags pass the tests.
    """
    pi, tensor = candidate_tensor(series, params, delays, lam)
    rows = prune_tensor(pi, tensor, delta, r_max)
    kept = [(r.source, r.target, r.delay, r.ce) for r in rows if r.epsilon >= delta]
    return CausalNetwork(
        edges=_edges(kept, tensor.h_max, one_per_pair=one_delay_per_pair),
        h_max=tensor.h_max,
        params=_param_snapshot(params, delays, lam, delta, r_max),
    )
