"""sha256 pins of the epsilon evidence and of the pairwise CE tensor.

Each Evidence row is hashed with its floats in hex, so any change in the bits
of a conditioned entropy, of epsilon or of a conditioning set shows here.
The AR realizations are criterion 1's (T=1e4) and the same system at T=2e4,
whose T'=19,800 allows conditioning sets of three members (four with the
candidate, over 6^5 joint bins); the NMM one is the benchmark's fixed
nmm_delta graph at T=2e4, decimated by 5.
"""

import hashlib
import json

import numpy as np
import pytest

from opcausal import DelayGrid, EmbeddingParams, build_moptn, ce_tensor, decimate
from opcausal.causal import candidate_tensor, prune_tensor
from opcausal.simulate import reproduction_nmm_config, simulate_ar, simulate_nmm

# regions 5 -> 0, 3 -> 1 and 2 -> 6, as (target, source)
NMM_GRAPH = ((0, 5), (1, 3), (6, 2))


def ar_series(n_samples=10_000):
    series, _ = simulate_ar(n_samples, seed=1)
    return series, EmbeddingParams(m=3, d=100), DelayGrid(range(1, 11))


def long_ar_series():
    return ar_series(20_000)


def nmm_series():
    adjacency = np.zeros((8, 8))
    for target, source in NMM_GRAPH:
        adjacency[target, source] = 1.0
    series, _ = simulate_nmm(
        reproduction_nmm_config(), 5.0, 20_000, seed=3, adjacency=adjacency
    )
    return decimate(series, 5), EmbeddingParams(m=3, d=1), DelayGrid(range(2, 21))


def evidence_digest(series, params, delays) -> tuple[int, int, str]:
    """Row count, largest conditioning set and sha256 of the Evidence rows."""
    pi, tensor = candidate_tensor(series, params, delays)
    rows = [
        (
            r.source,
            r.target,
            r.delay,
            r.ce.hex(),
            [list(member) for member in r.conditioning.members],
            r.epsilon.hex(),
        )
        for r in prune_tensor(pi, tensor, delta=0.1)
    ]
    largest = max(len(members) for *_, members, _ in rows)
    return len(rows), largest, hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def ce_tensor_digest(series, m: int) -> str:
    pi = build_moptn(series, EmbeddingParams(m=m, d=100))
    values = ce_tensor(pi, DelayGrid(range(1, 11))).values
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "make, n_rows, largest, digest",
    [
        (ar_series, 48, 2, "7db8e13df5d2304a6d65a4fb535269e8e4cb441a40aa7074409a7068e5cf3005"),
        (nmm_series, 1064, 2, "bd21e9f213e3b2c69d6f8d2fc497b97e93e30830a9ea3c260c374c21a4d3f747"),
        (
            long_ar_series,
            49,
            3,
            "2c4d80994eca158f78aa561125c6b6aaa1811cacd308f04dbd3c3291cc3d28d0",
        ),
    ],
    ids=["ar", "nmm", "ar-r3"],
)
def test_evidence_rows_pinned(make, n_rows, largest, digest, exp_probe):
    assert evidence_digest(*make()) == (n_rows, largest, digest), exp_probe


@pytest.mark.parametrize(
    "m, digest",
    [
        (3, "4de079d00f3945136db15e447b5ba488f7105cee8f707d4567083c2260327319"),
        (4, "e1daa113211e3443893cc223c5c4359d026292c21eb3a308087c32216c37b4d2"),
    ],
)
def test_ce_tensor_values_pinned(m, digest, exp_probe):
    series, _, _ = ar_series()
    assert ce_tensor_digest(series, m) == digest, exp_probe
