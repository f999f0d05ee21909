import hashlib

import numpy as np
import pytest

from opcausal import MultivariateSeries

# numpy picks its exp kernel at run time, and the AR and NMM simulators call
# np.exp at every step of a chaotic map, so an exp that differs in the last
# bit changes every simulated byte. This is the sha256 of np.exp over the AR
# map's argument range on the host where the byte pins and pinned metrics
# were recorded (numpy 2.4.6 with AVX-512).
EXP_PROBE_DIGEST = "c4ab2d7a7f77eff6288c4cab289854728408723473333da3d7d009c41043ced4"


@pytest.fixture(scope="session")
def exp_probe() -> str:
    """The note a byte pin or pinned metric appends: does this host's np.exp match?"""
    digest = hashlib.sha256(np.exp(-np.linspace(0, 4, 10_001) ** 2).tobytes()).hexdigest()
    if digest == EXP_PROBE_DIGEST:
        return "np.exp probe matches the host the pins were recorded on"
    return (
        f"np.exp probe differs (sha256 {digest}, recorded {EXP_PROBE_DIGEST}): this host's "
        "exp is not the one the pins were recorded with, so the pin cannot tell a code "
        "change from a different exp"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_series(rng):
    return MultivariateSeries(data=rng.standard_normal((2000, 3)))
