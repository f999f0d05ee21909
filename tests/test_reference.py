"""Plain-Python references for the prune's choices, written from the docstrings.

`reference_conditioning_set` follows `minimal_conditioning_set`'s docstring
with sets and sorted tuples only; Hypothesis compares the two on small
thresholded tensors whose CEs come from a few values, so that exact ties occur.
"""

from math import log2

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opcausal import DelayGrid, minimal_conditioning_set
from opcausal.entropy import CETensor

H_MAX = log2(6)  # m = 3
CES = (0.5, 1.0, 1.5)
GRIDS = ((1, 2, 3), (2, 5), (1, 4, 6, 9), (0,), (0, 1, 2), (0, 3, 4))


def reference_conditioning_set(values, delays, m, n, size):
    """The conditioning set of n -> m in values[target][source][j], as (channel, delay) pairs.

    The set is the parents of m that are children of n; failing that, the
    common parents of m and n. Each member channel is taken at its
    lowest-(CE, delay) lag, and the `size` lowest by (CE, channel, delay) are
    kept. With no such members, the set is the target's own past at the
    grid's smallest positive delay (1 on a grid of lag 0 alone).
    """
    channels = range(len(values))

    def linked(target, source):
        return any(ce < H_MAX for ce in values[target][source])

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
