"""What ordinal patterns promise, checked bit for bit on the Evidence rows.

Patterns depend only on the ranks within each channel, so relabelling the
channels, or applying a strictly increasing map to each one, must leave
every Evidence row unchanged once the channels are mapped back.

Both hold exactly only on continuous data without ties: a tie changes the
ranks under a map that merges two values, and `minimal_conditioning_set`
breaks equal CEs by channel index, which a relabelling reorders. The inputs
below are simulated floats, which hold no such ties.
"""

from dataclasses import replace

import numpy as np
import pytest

from opcausal import DelayGrid, EmbeddingParams, MultivariateSeries, decimate
from opcausal.causal import (
    candidate_tensor,
    minimal_conditioning_set,
    prune_tensor,
    reliable_conditioning_size,
)
from opcausal.entropy import ConditioningSet
from opcausal.simulate import (
    reproduction_nmm_config,
    simulate_ar,
    simulate_lorenz_chain,
    simulate_nmm,
)


def evidence(data, params, delays):
    pi, tensor = candidate_tensor(MultivariateSeries(data=data), params, delays, lam=0.995)
    return pi, tensor, prune_tensor(pi, tensor, 0.0)


@pytest.fixture(scope="module")
def segments():
    """name -> (data, embedding, delays), at each system's pipeline settings but
    AR's: d=1 there fills the conditioning sets past their cap."""
    nmm, _ = simulate_nmm(reproduction_nmm_config(), 5.0, 6000, seed=3)
    return {
        "ar": (simulate_ar(4000, seed=1)[0].data, EmbeddingParams(3, 1), DelayGrid(range(1, 11))),
        "nmm": (decimate(nmm, 5).data, EmbeddingParams(3, 1), DelayGrid(range(2, 21))),
        "lorenz": (
            simulate_lorenz_chain(3000, c=0.6, seed=2)[0].data,
            EmbeddingParams(3, 100),
            DelayGrid(range(1, 11)),
        ),
    }


@pytest.mark.parametrize("system", ["ar", "nmm", "lorenz"])
def test_relabelled_channels_give_the_mapped_rows(segments, system):
    data, params, delays = segments[system]
    _, _, rows = evidence(data, params, delays)
    perm = np.random.default_rng(0).permutation(data.shape[1])
    _, _, relabelled = evidence(data[:, perm], params, delays)

    def original(r):
        members = [(int(perm[c]), tau) for c, tau in r.conditioning.members]
        return replace(
            r,
            source=int(perm[r.source]),
            target=int(perm[r.target]),
            conditioning=ConditioningSet(members),
        )

    mapped = sorted(map(original, relabelled), key=lambda r: (r.target, r.source, r.delay))
    assert len(rows) > 0
    assert mapped == rows


@pytest.mark.parametrize("system", ["ar", "nmm", "lorenz"])
def test_increasing_map_gives_the_same_rows(segments, system):
    data, params, delays = segments[system]
    mapped = np.sinh(3 * data) + 5
    # the map creates no ties
    for before, after in zip(data.T, mapped.T):
        assert len(np.unique(after)) == len(np.unique(before))
    assert evidence(mapped, params, delays)[2] == evidence(data, params, delays)[2]


def test_ar_sets_reach_the_cap(segments):
    # otherwise an order-dependent cap would go unseen
    pi, tensor, rows = evidence(*segments["ar"])
    cap = reliable_conditioning_size(pi)
    uncapped = [minimal_conditioning_set(tensor, r.target, r.source, size=99) for r in rows]
    assert sum(len(p) > cap for p in uncapped) > 0
