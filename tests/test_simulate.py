"""Benchmark generators: determinism, bounds, and injected structure."""

import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from opcausal import (
    NmmConfig,
    add_observation_noise,
    reproduction_nmm_config,
    simulate_ar,
    simulate_lorenz_chain,
    simulate_nmm,
)
from opcausal.errors import NonFiniteState, ParameterUnset
from opcausal.evaluate import derive_seed
from opcausal.ordinal import MultivariateSeries
from opcausal.simulate import AR_COUPLINGS, GroundTruth, _lorenz_chain_deriv, draw_nmm_graph


class TestGroundTruth:
    def test_rejects_self_edges(self):
        with pytest.raises(ValueError):
            GroundTruth(edges=[(1, 1, 3)])

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError):
            GroundTruth(edges=[(0, 1, 0)])

    def test_pairs_and_triples(self):
        gt = GroundTruth(edges=[(0, 1, 2), (1, 2, 3)])
        assert gt.pairs() == {(0, 1), (1, 2)}
        assert gt.triples() == {(0, 1, 2), (1, 2, 3)}


# four disjoint copies of the nine-channel structure, as the benchmark's
# 36-channel set-up builds them
WIDE_COUPLINGS = {
    (s + 9 * k, t + 9 * k, d): c for k in range(4) for (s, t, d), c in AR_COUPLINGS.items()
}


# a fractional T once reached the simulators as a bare TypeError, or was cut
# to an integer on its way through evaluate.SYSTEMS
@pytest.mark.parametrize(
    "simulate",
    [
        lambda T: simulate_ar(T, 0),
        lambda T: simulate_lorenz_chain(T),
        lambda T: simulate_nmm(reproduction_nmm_config(), 5.0, T, 0),
    ],
    ids=["ar", "lorenz", "nmm"],
)
@pytest.mark.parametrize("n_samples", [150.5, 2000.0, True])
def test_sample_count_that_is_not_an_integer_is_named(simulate, n_samples, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
    with pytest.raises(ValueError, match=re.escape(f"T must be an integer, got {n_samples!r}")):
        simulate(n_samples)


class TestSimulateAr:
    def test_shape_and_truth(self):
        series, truth = simulate_ar(5000, seed=1)
        assert series.data.shape == (5000, 9)
        assert truth.triples() == set(AR_COUPLINGS)

    def test_deterministic_under_seed(self):
        a, _ = simulate_ar(2000, seed=7)
        b, _ = simulate_ar(2000, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seeds_differ(self):
        a, _ = simulate_ar(2000, seed=7)
        b, _ = simulate_ar(2000, seed=8)
        assert not np.array_equal(a.data, b.data)

    def test_bounded(self):
        # the hub channel sums three strong inputs, so its range is wider
        # than a single map's; the regime bound is what the simulator asserts
        series, _ = simulate_ar(20_000, seed=3)
        assert np.all(np.abs(series.data) < 100)

    def test_peak_memory_is_one_output(self):
        # the noise array becomes the output in place, and the range check
        # reduces it without a copy; beside it only the series' finite-value
        # mask (a byte a sample) and the row lists of one 64-row block
        # remain, 1,668,314 traced bytes here against 3,106,128 when the
        # check built abs(data) and its mask
        simulate_ar(200, seed=0)  # compiles the step function outside the trace
        tracemalloc.start()
        try:
            series, _ = simulate_ar(20_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the series is a view of the simulator's one array, burn-in rows too
        output = series.data.base
        assert peak <= output.nbytes + series.data.size + 64_000

    def test_custom_motif(self):
        couplings = {(0, 1, 2): 1.5}
        series, truth = simulate_ar(1000, seed=0, couplings=couplings, n_channels=2)
        assert series.data.shape == (1000, 2)
        assert truth.triples() == {(0, 1, 2)}

    def test_coupling_endpoints_validated(self):
        with pytest.raises(ValueError):
            simulate_ar(1000, seed=0, couplings={(0, 5, 1): 1.0}, n_channels=3)

    # each bad coupling is named before the generator draws any noise; a
    # source of -1 once aliased channel n - 1 and was reported in the truth
    @pytest.mark.parametrize(
        "couplings, match",
        [
            ({(-1, 0, 1): 0.5}, r"coupling \(-1, 0, 1\): endpoints must be in \[0, 3\)"),
            ({(0, -3, 1): 0.5}, r"coupling \(0, -3, 1\): endpoints must be in"),
            ({(0, 3, 1): 0.5}, r"coupling \(0, 3, 1\): endpoints must be in"),
            ({(0.0, 1, 1): 0.5}, r"coupling \(0.0, 1, 1\): endpoints and delay must be integers"),
            ({(0, 1, 0): 0.5}, r"coupling \(0, 1, 0\): delay must be >= 1"),
            ({(0, 1, -2): 0.5}, r"coupling \(0, 1, -2\): delay must be >= 1"),
            ({(0, 1, 1.5): 0.5}, r"coupling \(0, 1, 1.5\): endpoints and delay must be integers"),
            ({(0, 1, 2.0): 0.5}, r"coupling \(0, 1, 2.0\): endpoints and delay must be integers"),
            ({(0, 1, True): 0.5}, r"coupling \(0, 1, True\): endpoints and delay must be integers"),
            ({(1, 1, 2): 0.5}, r"coupling \(1, 1, 2\): self-coupling must be zero, got 0.5"),
        ],
    )
    def test_rejects_bad_coupling_before_drawing_noise(self, couplings, match, monkeypatch):
        def no_draw(seed):
            raise AssertionError("noise drawn before the couplings were checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=match):
            simulate_ar(1000, seed=0, couplings=couplings, n_channels=3)

    @pytest.mark.parametrize("n_channels", [0, -2, 2.0, True])
    def test_rejects_bad_channel_count(self, n_channels, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
        with pytest.raises(ValueError, match="n_channels must be an integer >= 1"):
            simulate_ar(1000, seed=0, couplings={}, n_channels=n_channels)

    # a negative burn_in used to cut the output short: -600 gave 404 rows of 1000
    @pytest.mark.parametrize("burn_in", [-600, -1, 2.0, True])
    def test_rejects_bad_burn_in_before_drawing_noise(self, burn_in, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
        with pytest.raises(ValueError, match=r"lead-in \(burn_in, transient_samples\)"):
            simulate_ar(1000, seed=0, burn_in=burn_in)

    def test_accepts_numpy_integers_and_zero_self_coupling(self):
        couplings = {(np.int64(0), np.int64(1), np.int64(2)): 1.5, (1, 1, 3): 0.0}
        series, truth = simulate_ar(1000, seed=0, couplings=couplings, n_channels=2)
        want, _ = simulate_ar(1000, seed=0, couplings={(0, 1, 2): 1.5, (1, 1, 3): 0.0}, n_channels=2)
        assert series.data.tobytes() == want.data.tobytes()
        assert truth.triples() == {(0, 1, 2)}

    def test_zero_coupling_dropped_from_truth(self):
        _, truth = simulate_ar(
            1000, seed=0, couplings={(0, 1, 2): 0.0, (1, 2, 1): 1.0}, n_channels=3
        )
        assert truth.triples() == {(1, 2, 1)}

    # sha256 of the output bytes: criterion 1's system at two seeds, a
    # two-channel motif, uncoupled maps and the 36-channel structure, so a
    # faster step loop must reproduce them bit for bit
    @pytest.mark.parametrize(
        "n_samples, seed, couplings, n_channels, digest",
        [
            (10_000, 0, None, None,
             "cb0ef7bfe57c1ce87d986d07a7a02a475bf4fab84570f8f0da0a08b311a8191c"),
            (10_000, 1, None, None,
             "f9b40fcd8851b93585d089f03432e56d751a8f54eab9c36c0ce712e9c04b16bd"),
            (1000, 0, {(0, 1, 2): 1.5}, 2,
             "15d799d0ee1011dfe27d727138ffb4d8f03c14bfaca7d803a721bb7fb41042cf"),
            (300, 0, {}, 3,
             "6814447d92ff1009db1370fc40462d4c0bf9d96499af3f5bff073b554bdc1071"),
            (2000, 0, WIDE_COUPLINGS, 36,
             "4370223d63f4464199da6cc15f4a9691edb20b4286b43d9c19890038e74f654f"),
        ],
    )
    def test_output_bytes_pinned(
        self, n_samples, seed, couplings, n_channels, digest, exp_probe
    ):
        series, _ = simulate_ar(n_samples, seed, couplings=couplings, n_channels=n_channels)
        assert hashlib.sha256(series.data.tobytes()).hexdigest() == digest, exp_probe

    @pytest.mark.parametrize(
        "n_samples, seed, couplings, n_channels, burn_in",
        [
            (500, 2, {(0, 1, 300): 0.5}, 2, 100),  # delay beyond the burn-in
            (400, 3, AR_COUPLINGS, 9, 0),
            (400, 4, {(0, 1, 1): 2, (1, 2, 3): -1}, 3, 50),  # integer coefficients
            (300, 5, {}, 1, 500),
            (101, 6, AR_COUPLINGS, 9, 500),
            # the simulator steps 64 rows per block: n_samples + burn_in steps
            # of 127, 128, 129 and 193 end one row short of, on and one row past
            # a block edge
            (100, 7, AR_COUPLINGS, 9, 27),
            (100, 8, AR_COUPLINGS, 9, 28),
            (129, 9, AR_COUPLINGS, 9, 0),
            (150, 10, {(0, 1, 1): 0.7}, 2, 43),
            # delays of one block, one row longer, and more than two blocks
            (200, 11, {(0, 1, 64): 0.5, (1, 2, 65): -0.6, (2, 0, 130): 0.4}, 3, 0),
            (300, 12, WIDE_COUPLINGS, 36, 0),
        ],
    )
    def test_equals_per_step_numpy_loop(
        self, n_samples, seed, couplings, n_channels, burn_in, exp_probe
    ):
        series, _ = simulate_ar(n_samples, seed, couplings, burn_in, n_channels)
        want = reference_ar(n_samples, seed, couplings, burn_in, n_channels)
        assert series.data.tobytes() == want.tobytes(), exp_probe

    # at 50 the target crosses |x| = 100 a few times in 5000 samples; at
    # 1e200 the floats overflow to inf, which Python does without a warning
    @pytest.mark.parametrize("c", [50.0, 1e200])
    def test_divergence_raises(self, c):
        with pytest.raises(NonFiniteState):
            simulate_ar(5000, seed=0, couplings={(0, 1, 1): c}, n_channels=2)


def reference_ar(n_samples, seed, couplings, burn_in, n_channels):
    """The autoregressive map stepped with numpy ufuncs on whole rows."""
    max_lag = max(max((d for _, _, d in couplings), default=1), 1)
    rng = np.random.default_rng(seed)
    total = n_samples + burn_in + max_lag
    noise = 0.4 * rng.standard_normal((total, n_channels))
    x = np.zeros((total, n_channels))
    x[:max_lag] = noise[:max_lag]
    for t in range(max_lag, total):
        prev = x[t - 1]
        row = 3.4 * prev * (1.0 - prev * prev) * np.exp(-prev * prev) + noise[t]
        for (src, tgt, delay), c in couplings.items():
            row[tgt] += c * x[t - delay, src]
        x[t] = row
    return x[burn_in + max_lag :]


class TestSimulateLorenzChain:
    def test_shape_and_truth(self):
        series, truth = simulate_lorenz_chain(3000, c=0.6, seed=0)
        assert series.data.shape == (3000, 3)
        assert truth.pairs() == {(0, 1), (1, 2)}

    def test_deterministic_under_seed(self):
        a, _ = simulate_lorenz_chain(1000, seed=4)
        b, _ = simulate_lorenz_chain(1000, seed=4)
        np.testing.assert_array_equal(a.data, b.data)

    def test_bounded_after_transient(self):
        series, _ = simulate_lorenz_chain(20_000, c=0.6, seed=2)
        assert np.all(np.abs(series.data) < 100)

    def test_equal_replicas_have_equal_derivatives(self):
        # the coupling only sees the replicas' difference, so it vanishes and
        # replicas in one state move alike: the chain stays synchronized
        deriv = _lorenz_chain_deriv([1.5, -2.0, 24.0] * 3, 0.6)
        assert deriv[0:3] == deriv[3:6] == deriv[6:9]

    def test_rejects_negative_coupling(self):
        # NaN too, before the integration would turn it into NonFiniteState
        for c in (-1.0, np.nan):
            with pytest.raises(ValueError, match="coupling strength must be non-negative"):
                simulate_lorenz_chain(1000, c=c)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        message = f"need at least 1 sample, and T must be an integer, got {n_samples}"
        with pytest.raises(ValueError, match=message):
            simulate_lorenz_chain(n_samples)

    # sha256 of the output bytes at criterion 3's first two seeds (T=1e4,
    # c=0.6), so a faster integrator must reproduce them bit for bit
    @pytest.mark.parametrize(
        "realization, digest",
        [
            (0, "67ded354c12687d10045138fae4b14d7ab5c40961fd722ed4de7cf5168e8771f"),
            (1, "9a91fe1bf0e31669a67d8a08daf79b2658f603c7cb1dab28a60b5a7c04afb316"),
        ],
    )
    def test_output_bytes_pinned(self, realization, digest):
        cell = {"T": 10_000, "delta": 0.10, "c": 0.6, "d": 100}
        seed = derive_seed(42, cell, realization)
        series, _ = simulate_lorenz_chain(10_000, c=0.6, seed=seed)
        assert series.sample_rate == 1000.0
        assert hashlib.sha256(series.data.tobytes()).hexdigest() == digest


class TestNmmConfig:
    def test_reproduction_config_loads(self):
        cfg = reproduction_nmm_config()
        assert cfg.n_regions == 8
        assert cfg.delay_ms == 40.0
        assert cfg.delay_samples == 40

    def test_missing_parameter_raises(self):
        cfg = dataclasses.asdict(reproduction_nmm_config())
        cfg.pop("h_e")
        with pytest.raises(ParameterUnset):
            NmmConfig.from_dict(cfg)

    def test_unknown_parameter_raises(self):
        cfg = dataclasses.asdict(reproduction_nmm_config())
        cfg["n_region"] = 3
        cfg["_comment"] = "keys starting with _ are comments"
        with pytest.raises(ParameterUnset, match="unknown neural-mass parameters: n_region$"):
            NmmConfig.from_dict(cfg)

    def test_fractional_delay_rejected(self):
        cfg = dataclasses.asdict(reproduction_nmm_config())
        cfg["delay_ms"] = 40.5
        with pytest.raises(ValueError):
            NmmConfig.from_dict(cfg)

    # a NaN passes a `<= 0` check, so each rule must be a comparison that holds
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("noise_var", -1.0, "noise_var must be non-negative, got -1.0"),
            ("noise_var", float("nan"), "noise_var must be non-negative, got nan"),
            ("n_regions", 2.5, "n_regions must be an integer >= 1, got 2.5"),
            ("n_regions", 0, "n_regions must be an integer >= 1, got 0"),
            ("h_e", float("nan"), "h_e must be strictly positive, got nan"),
            ("delay_ms", 0.0, "delay_ms must be strictly positive, got 0.0"),
            ("r", "0.56", "r must be a number, got '0.56'"),
            ("coupling_weight", True, "coupling_weight must be a number, got True"),
        ],
    )
    def test_bad_value_rejected_on_load(self, key, value, message):
        cfg = dataclasses.asdict(reproduction_nmm_config())
        cfg[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NmmConfig.from_dict(cfg)

    def test_numpy_numbers_obey_the_rules_of_python_numbers(self):
        cfg = dataclasses.replace(
            reproduction_nmm_config(), n_regions=np.int64(3), coupling_weight=np.float32(0.5)
        )
        assert cfg.n_regions == 3 and type(cfg.n_regions) is int
        assert cfg.coupling_weight == 0.5
        message = "n_regions must be an integer >= 1, got np.int64(0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(reproduction_nmm_config(), n_regions=np.int64(0))


class TestDrawNmmGraph:
    def test_edge_count(self):
        rng = np.random.default_rng(0)
        adj = draw_nmm_graph(8, 5.0, rng)
        assert adj.sum() == 3  # floor(0.05 * 64)

    def test_density_25_percent(self):
        rng = np.random.default_rng(0)
        adj = draw_nmm_graph(8, 25.0, rng)
        assert adj.sum() == 16

    def test_self_connections_possible_but_excluded_from_truth(self):
        # scan seeds until a draw includes a diagonal entry, then check the
        # simulator's reported truth drops it
        cfg = reproduction_nmm_config()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            adj = draw_nmm_graph(8, 5.0, rng)
            if np.trace(adj) > 0:
                _, truth = simulate_nmm(cfg, 5.0, 300, seed=seed)
                assert all(s != t for s, t, _ in truth.edges)
                return
        pytest.fail("no draw with a self-connection in 50 seeds")


class TestSimulateNmm:
    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        message = f"need at least 1 sample, and T must be an integer, got {n_samples}"
        with pytest.raises(ValueError, match=message):
            simulate_nmm(reproduction_nmm_config(), 5.0, n_samples, seed=0)

    # a negative transient used to cut the output short: -500 gave 499 rows of 1000
    @pytest.mark.parametrize("transient", [-500, -1, 1.5])
    def test_rejects_bad_transient_before_drawing_noise(self, transient, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
        cfg = reproduction_nmm_config()
        with pytest.raises(ValueError, match=r"lead-in \(burn_in, transient_samples\)"):
            simulate_nmm(cfg, 5.0, 1000, 0, transient_samples=transient)

    def test_shape_and_truth_delay(self):
        cfg = reproduction_nmm_config()
        series, truth = simulate_nmm(cfg, 5.0, 2000, seed=3)
        assert series.data.shape == (2000, 8)
        assert series.sample_rate == 1000.0
        assert all(d == 40 for _, _, d in truth.edges)

    def test_deterministic_under_seed(self):
        cfg = reproduction_nmm_config()
        a, ta = simulate_nmm(cfg, 5.0, 500, seed=9)
        b, tb = simulate_nmm(cfg, 5.0, 500, seed=9)
        np.testing.assert_array_equal(a.data, b.data)
        assert ta.edges == tb.edges

    def test_zero_coupling_gives_independent_regions(self):
        # narrowband oscillators show some sample correlation even when
        # independent; coupled pairs at the default weight sit near 0.3
        cfg = dataclasses.replace(reproduction_nmm_config(), coupling_weight=0.0)
        series, _ = simulate_nmm(cfg, 5.0, 30_000, seed=3)
        x = series.data - series.data.mean(axis=0)
        corr = np.corrcoef(x.T)
        off_diag = corr[~np.eye(8, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.15

    def test_zero_coupling_infers_empty_network(self):
        from opcausal import DelayGrid, EmbeddingParams, infer_network
        from opcausal.ordinal import decimate

        cfg = dataclasses.replace(reproduction_nmm_config(), coupling_weight=0.0)
        series, _ = simulate_nmm(cfg, 5.0, 50_000, seed=3)
        net = infer_network(
            decimate(series, 5),
            EmbeddingParams(m=3, d=1),
            DelayGrid(range(2, 21)),
            delta=0.10,
            one_delay_per_pair=True,
        )
        assert net.edges == []

    def test_explicit_adjacency_respected(self):
        cfg = reproduction_nmm_config()
        adj = np.zeros((8, 8))
        adj[4, 1] = 1.0  # region 1 drives region 4
        _, truth = simulate_nmm(cfg, 5.0, 300, seed=0, adjacency=adj)
        assert truth.pairs() == {(1, 4)}

    @pytest.mark.parametrize("shape", [(3, 3), (8, 9), (64,)])
    def test_adjacency_of_wrong_shape_rejected(self, shape):
        message = f"adjacency must have shape (n_regions, n_regions) = (8, 8), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_nmm(reproduction_nmm_config(), 5.0, 300, seed=0, adjacency=np.zeros(shape))

    # sha256 of the output bytes at T=3000 for criterion 7's seeds and for
    # the benchmark's fixed graph (5 -> 0, 3 -> 1, 2 -> 6). The criterion-7
    # seeds and the benchmark's reference hashes were chosen against these
    # exact series, so a faster integrator must reproduce them bit for bit.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (3, "0b4f59cd51e62104f4839027e492cf35fda3dd30d80db1aab620b481fbe90cdb"),
            (29, "05b56d1f8498cb1e2cf6a868268c765c63c9dda08d4df524c78c88153d98da03"),
            (38, "cea278d0f744b280f32ea8f9f0e080a5ffdf36a506e99e3b6d13dc813e732c24"),
        ],
    )
    def test_output_bytes_pinned(self, seed, digest, exp_probe):
        series, _ = simulate_nmm(reproduction_nmm_config(), 5.0, 3000, seed)
        assert hashlib.sha256(series.data.tobytes()).hexdigest() == digest, exp_probe

    def test_output_bytes_pinned_fixed_graph(self, exp_probe):
        adj = np.zeros((8, 8))
        for target, source in ((0, 5), (1, 3), (6, 2)):
            adj[target, source] = 1.0
        series, _ = simulate_nmm(reproduction_nmm_config(), 5.0, 3000, 0, adjacency=adj)
        assert (
            hashlib.sha256(series.data.tobytes()).hexdigest()
            == "6ca77e854a55d0488b1bafdbb4b964c4b49982f8cbff300e9557b48c9ba80f25"
        ), exp_probe

    def test_divergence_raises(self):
        cfg = dataclasses.replace(reproduction_nmm_config(), noise_mean=float("nan"))
        with pytest.raises(NonFiniteState):
            simulate_nmm(cfg, 5.0, 300, seed=0)

    @pytest.mark.parametrize(
        "changes, k_percent, seed, transient",
        [
            ({}, 25.0, 5, 0),
            ({"n_regions": 3}, 30.0, 1, 100),
            ({"delay_ms": 5.0}, 10.0, 2, 100),  # shorter than the rise: one slot
            ({"noise_var": 0.0, "noise_mean": 0.2, "g_s": 30.0, "h_f": 300.0}, 5.0, 4, 1),
            ({"n_regions": 12}, 20.0, 6, 100),  # the full-shape operands follow n
            ({}, 100.0, 7, 100),  # every pair coupled: 8 nonzeros in each row of w
            ({"delay_ms": 300.0}, 25.0, 8, 100),  # 290 slots: longer than a noise block
            # n_f is a signed zero at every step, so the l row's sign of zero shows
            ({"noise_var": 0.0, "noise_mean": -0.0}, 25.0, 9, 0),
        ],
    )
    def test_equals_per_population_loop(self, changes, k_percent, seed, transient):
        # 1500 steps span several noise blocks and end inside one
        cfg = dataclasses.replace(reproduction_nmm_config(), **changes)
        series, _ = simulate_nmm(cfg, k_percent, 1500 - transient, seed, transient)
        want = reference_nmm(cfg, k_percent, 1500, seed)[transient:]
        assert series.data.tobytes() == want.tobytes()


def reference_nmm(cfg, k_percent, total, seed):
    """The neural-mass Euler loop written per population, one draw per step."""
    rng = np.random.default_rng(seed)
    n = cfg.n_regions
    w = cfg.coupling_weight * draw_nmm_graph(n, k_percent, rng)
    buffer_len = max(cfg.delay_samples - int(round(cfg.sample_rate / cfg.h_e)), 1)
    dt = 1.0 / cfg.sample_rate
    noise_std = np.sqrt(cfg.noise_var)

    def sigmoid(v):
        return 2.0 * cfg.e0 / (1.0 + np.exp(-cfg.r * v)) - cfg.e0

    def accel(g, h, drive, x, y):
        return g * h * drive - 2.0 * h * x - h**2 * y

    y_p, x_p, y_e, x_e, y_s, x_s, y_f, x_f, y_l, x_l = np.zeros((10, n))
    z_p_buffer = np.zeros((buffer_len, n))
    out = np.empty((total, n))
    for t in range(total):
        z_p = sigmoid(cfg.c_pe * y_e - cfg.c_ps * y_s - cfg.c_pf * y_f)
        z_e = sigmoid(cfg.c_ep * y_p)
        z_s = sigmoid(cfg.c_sp * y_p)
        z_f = sigmoid(cfg.c_fp * y_p - cfg.c_fs * y_s - cfg.c_ff * y_l)
        z_p_delayed = z_p_buffer[t % buffer_len].copy()
        z_p_buffer[t % buffer_len] = z_p
        n_p = cfg.noise_mean + noise_std * rng.standard_normal(n)
        n_f = cfg.noise_mean + noise_std * rng.standard_normal(n)
        u_p = n_p + w @ z_p_delayed
        d_x_p = accel(cfg.g_e, cfg.h_e, z_p, x_p, y_p)
        d_x_e = accel(cfg.g_e, cfg.h_e, z_e + u_p / cfg.c_pe, x_e, y_e)
        d_x_s = accel(cfg.g_s, cfg.h_s, z_s, x_s, y_s)
        d_x_f = accel(cfg.g_f, cfg.h_f, z_f, x_f, y_f)
        d_x_l = accel(cfg.g_e, cfg.h_e, n_f, x_l, y_l)
        y_p, x_p = y_p + dt * x_p, x_p + dt * d_x_p
        y_e, x_e = y_e + dt * x_e, x_e + dt * d_x_e
        y_s, x_s = y_s + dt * x_s, x_s + dt * d_x_s
        y_f, x_f = y_f + dt * x_f, x_f + dt * d_x_f
        y_l, x_l = y_l + dt * x_l, x_l + dt * d_x_l
        out[t] = cfg.c_pe * y_e - cfg.c_ps * y_s - cfg.c_pf * y_f
    return out


class TestObservationNoise:
    def test_zero_level_is_identity(self, random_series):
        out = add_observation_noise(random_series, 0.0, seed=1)
        np.testing.assert_array_equal(out.data, random_series.data)

    def test_constant_channel_gets_no_noise(self):
        series = MultivariateSeries(data=np.zeros((1000, 2)))
        out = add_observation_noise(series, 0.4, seed=1)
        assert out.data.std() == 0.0

    def test_variance_additivity(self, rng):
        series = MultivariateSeries(data=rng.standard_normal((200_000, 1)))
        out = add_observation_noise(series, 0.1, seed=2)
        assert out.data.var() == pytest.approx(series.data.var() * 1.01, rel=0.005)

    def test_rejects_negative_level(self, random_series):
        with pytest.raises(ValueError):
            add_observation_noise(random_series, -0.5, seed=0)

    def test_equals_scaled_noise_added_to_data(self, random_series):
        before = random_series.data.copy()
        out = add_observation_noise(random_series, 0.3, seed=4)
        noise = np.random.default_rng(4).standard_normal(before.shape)
        want = before + noise * (0.3 * before.std(axis=0))
        assert out.data.tobytes() == want.tobytes()
        assert random_series.data.tobytes() == before.tobytes()
