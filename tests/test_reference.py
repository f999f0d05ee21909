"""Plain-Python references for the prune's choices, written from the docstrings.

`reference_conditioning_set` follows `minimal_conditioning_set`'s docstring
with sets and sorted tuples only; Hypothesis compares the two on small
thresholded tensors whose CEs come from a few values, so that exact ties occur.
`reference_ces`, `reference_candidates` and `reference_rows` build a whole
Evidence table from the symbols with dict counts and `math.log2`, and
Hypothesis compares it with `evidence_table` on short series with planted
couplings.
"""

from collections import Counter
from math import factorial, log2

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opcausal import (
    DelayGrid,
    EmbeddingParams,
    MultivariateSeries,
    build_moptn,
    ce_tensor,
    evidence_table,
    minimal_conditioning_set,
)
from opcausal.entropy import CETensor

H_MAX = log2(6)  # m = 3
CES = (0.5, 1.0, 1.5)
GRIDS = ((1, 2, 3), (2, 5), (1, 4, 6, 9), (0,), (0, 1, 2), (0, 3, 4))
# at m=2 its CE of channel 0 given channel 1 at lag 2 is 1 bit, the cut at
# lambda 1: the table's sum gives 1.0 and the reference's 1 - 2^-53
ON_THE_CUT = MultivariateSeries(data=np.random.default_rng(121).standard_normal((51, 2)))


def reference_conditioning_set(values, delays, m, n, size, h_max=H_MAX):
    """The conditioning set of n -> m in values[target][source][j], as (channel, delay) pairs.

    The set is the parents of m that are children of n; failing that, the
    common parents of m and n. Each member channel is taken at its
    lowest-(CE, delay) lag, and the `size` lowest by (CE, channel, delay) are
    kept. With no such members, the set is the target's own past at the
    grid's smallest positive delay (1 on a grid of lag 0 alone).
    """
    channels = range(len(values))

    def linked(target, source):
        return any(ce < h_max for ce in values[target][source])

    parents_m = {c for c in channels if linked(m, c)}
    members = {c for c in parents_m if linked(c, n)} - {m}
    members = members or {c for c in parents_m if linked(n, c)} - {m}
    if not members:
        return ((m, min((t for t in delays if t > 0), default=1)),)
    lag = {c: min(zip(values[m][c], delays)) for c in members}
    ranked = sorted((ce, c, tau) for c, (ce, tau) in lag.items())
    return tuple((c, tau) for _, c, tau in ranked[:size])


def thresholded_tensor(values, delays):
    return CETensor(np.array(values, dtype=float), DelayGrid(delays), 6, thresholded=True)


@st.composite
def tensors(draw):
    """(values, delays): N in 2-6, each off-diagonal entry a candidate CE or h_max."""
    n = draw(st.integers(2, 6))
    delays = draw(st.sampled_from(GRIDS))
    # from dense to sparse, so that each fallback is reached
    entries = st.sampled_from(CES + (H_MAX,) * draw(st.integers(1, 12)))
    values = [
        [[H_MAX if s == t else draw(entries) for _ in delays] for s in range(n)]
        for t in range(n)
    ]
    return values, delays


@settings(max_examples=200, deadline=None)
@given(tensors(), st.integers(1, 3))
def test_conditioning_set_matches_the_reference(drawn, size):
    values, delays = drawn
    tensor = thresholded_tensor(values, delays)
    for m, n in zip(*np.nonzero(tensor.candidates().any(axis=2))):
        m, n = int(m), int(n)
        got = minimal_conditioning_set(tensor, m, n, size).members
        assert got == reference_conditioning_set(values, delays, m, n, size), (m, n)


def test_tied_members_keep_one_order_at_every_size():
    # 4 -> 0, where 4 -> 1, 2, 3 and members 1, 2 and 3 tie at CE 0.5, at
    # delays 3, 1 and 2; a capped set once came out in (CE, channel, delay)
    # order and an uncapped one in (CE, delay, channel) order
    delays = (1, 2, 3)
    values = [[[H_MAX] * 3 for _ in range(5)] for _ in range(5)]
    values[0][4] = [H_MAX, 1.0, H_MAX]
    for member, delay in ((1, 3), (2, 1), (3, 2)):
        values[0][member][delays.index(delay)] = 0.5
        values[member][4][0] = 1.0
    tensor = thresholded_tensor(values, delays)
    sets = [minimal_conditioning_set(tensor, 0, 4, size).members for size in (1, 2, 3)]
    assert sets == [((1, 3),), ((1, 3), (2, 1)), ((1, 3), (2, 1), (3, 2))]
    assert sets == [reference_conditioning_set(values, delays, 0, 4, size) for size in (1, 2, 3)]


def reference_entropy(columns, target, members, t_start):
    """H(target's symbol at t | each member (channel, tau)'s symbol at t - tau), in bits.

    Counted over t in [t_start, T') with dicts keyed by symbol tuples.
    """
    n_times = len(columns[target])
    past = list(zip(*(columns[c][t_start - tau : n_times - tau] for c, tau in members)))
    joint = Counter(zip(past, columns[target][t_start:]))
    state = Counter(past)
    total = n_times - t_start
    return -sum(c / total * log2(c / state[p]) for (p, _), c in joint.items())


def reference_ces(columns, delays):
    """{(target, source, delay): CE} of every pairwise lagged CE."""
    n = len(columns)
    return {
        (t, s, tau): reference_entropy(columns, t, [(s, tau)], tau)
        for t in range(n)
        for s in range(n)
        for tau in delays
        if s != t
    }


def reference_candidates(ces, f, lam):
    """The entries of ces below lam * log2(f)."""
    return {key: ce for key, ce in ces.items() if ce < lam * log2(f)}


def reference_rows(columns, f, delays, candidates):
    """(source, target, delay, members, epsilon) of every candidate, by target, source, delay.

    Each conditioning set holds up to r members: the largest r <= 3 whose set
    with the source, r + 1 channels, has 10 samples per joint state,
    T' / f^(r + 1) >= 10, and 1 if no r does. Epsilon is the drop in the
    target's entropy when the source joins the set, both over
    t >= max(set delay, tau).
    """
    n, n_times, h_max = len(columns), len(columns[0]), log2(f)
    values = [
        [[candidates.get((t, s, tau), h_max) for tau in delays] for s in range(n)] for t in range(n)
    ]
    size = 1
    while size < 3 and n_times / f ** (size + 2) >= 10:
        size += 1
    rows = []
    for m, s, tau in sorted(candidates):
        members = reference_conditioning_set(values, delays, m, s, size, h_max)
        t_start = max(max(t for _, t in members), tau)
        h_base = reference_entropy(columns, m, members, t_start)
        h_full = reference_entropy(columns, m, members + ((s, tau),), t_start)
        rows.append((s, m, tau, members, h_base - h_full))
    return rows


@st.composite
def coupled_series(draw):
    """(series, m, delays, lam): N in 2-5, T' in 50-400, with 0-4 planted lagged couplings."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(2, 4))
    n_times = draw(st.integers(50, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((n_times + m - 1, n))
    # in draw order, so a coupling can carry an earlier one on: chains and common drivers
    for _ in range(draw(st.integers(0, 4))):
        source, target = draw(st.permutations(range(n)))[:2]
        lag = draw(st.integers(1, 4))
        data[lag:, target] += draw(st.sampled_from((0.5, 1.0, 3.0))) * data[:-lag, source]
    delays = draw(st.sampled_from(GRIDS))
    lam = draw(st.sampled_from((0.9, 0.98, 0.995, 1.0)))
    return MultivariateSeries(data=data), m, delays, lam


@pytest.mark.filterwarnings("ignore:only .* samples for .* joint conditioning states")
@settings(max_examples=150, deadline=None)
@given(coupled_series())
@example((ON_THE_CUT, 2, (1, 2, 3), 1.0))
def test_evidence_table_matches_the_reference(drawn):
    series, m, delays, lam = drawn
    params = EmbeddingParams(m=m, d=1)
    table = evidence_table(series, params, DelayGrid(delays), lam)
    pi = build_moptn(series, params)
    columns = [col.tolist() for col in pi.symbols.T]
    want = reference_ces(columns, delays)
    values = ce_tensor(pi, DelayGrid(delays)).values
    own = {(t, s, tau): values[t, s, delays.index(tau)] for t, s, tau in want}
    for key, ce in want.items():
        assert own[key] == pytest.approx(ce, abs=1e-12), key
    # a CE on the cut can round to either side of it in either sum, so the
    # cut, like the set rule below, reads the table's own CEs
    got = {(r.target, r.source, r.delay): r.ce for r in table.rows}
    assert got == reference_candidates(own, factorial(m), lam)
    # the set rule ranks members by exact CE, and two CEs that agree to
    # 1e-12, say on count tables that are permutations of each other, can
    # round apart in either sum; so the sets rank the table's own CEs
    want_rows = reference_rows(columns, factorial(m), delays, got)
    assert [(r.source, r.target, r.delay, r.conditioning.members) for r in table.rows] == [
        (s, t, tau, members) for s, t, tau, members, _ in want_rows
    ]
    for row, (*_, epsilon) in zip(table.rows, want_rows):
        assert row.epsilon == pytest.approx(epsilon, abs=1e-12)
