"""Scoring, seed derivation, the systems table, sweeps, and windowed coupling."""

import re
from dataclasses import replace

import numpy as np
import pytest

from opcausal import (
    DelayGrid,
    EmbeddingParams,
    MultivariateSeries,
    infer_network,
    metrics,
    score,
    sweep,
    windowed_analysis,
)
from opcausal import evaluate
from opcausal.causal import CausalNetwork, Edge
from opcausal.errors import ChannelMismatch, DegenerateSample, TruthOffGrid, WindowTooShort
from opcausal.evaluate import SYSTEMS, ConfusionCounts, derive_seed, run_realization
from opcausal.simulate import (
    GroundTruth,
    reproduction_nmm_config,
    simulate_ar,
    simulate_lorenz_chain,
    simulate_nmm,
)


def network_of(triples):
    return CausalNetwork(
        edges=[Edge(s, t, d, ce=1.0, strength=1.0) for s, t, d in triples],
        h_max=2.585,
    )


class TestScore:
    def test_delay_sensitive_exact_match(self):
        net = network_of([(0, 1, 3), (1, 2, 5)])
        truth = GroundTruth(edges=[(0, 1, 3), (1, 2, 5)])
        counts = score(net, truth, 3, DelayGrid(range(1, 11)), delay_sensitive=True)
        assert (counts.tp, counts.fp, counts.fn) == (2, 0, 0)
        assert counts.tn == 3 * 2 * 10 - 2

    def test_delay_sensitive_wrong_delay_is_fp_and_fn(self):
        net = network_of([(0, 1, 4)])
        truth = GroundTruth(edges=[(0, 1, 3)])
        counts = score(net, truth, 2, DelayGrid(range(1, 11)), delay_sensitive=True)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_delay_insensitive_any_delay_matches(self):
        net = network_of([(0, 1, 9)])
        truth = GroundTruth(edges=[(0, 1, 3)])
        counts = score(net, truth, 2, DelayGrid(range(1, 11)), delay_sensitive=False)
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)
        assert counts.tn == 1

    def test_off_grid_truth_is_fn_but_not_subtracted_from_tn(self):
        net = network_of([])
        truth = GroundTruth(edges=[(0, 1, 5)])
        counts = score(net, truth, 2, DelayGrid([1]), delay_sensitive=True)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 0, 1, 2)

    def test_channel_out_of_range(self):
        net = network_of([(0, 5, 1)])
        truth = GroundTruth(edges=[(0, 1, 1)])
        with pytest.raises(ChannelMismatch):
            score(net, truth, 3, DelayGrid([1]))


class TestMetrics:
    def test_perfect(self):
        m = metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=95))
        assert (m.tpr, m.fpr, m.f1) == (1.0, 0.0, 1.0)

    def test_known_values(self):
        m = metrics(ConfusionCounts(tp=3, fp=1, fn=1, tn=95))
        assert m.tpr == pytest.approx(0.75)
        assert m.fpr == pytest.approx(1 / 96)
        assert m.f1 == pytest.approx(0.75)

    def test_undefined_ratios_are_none(self):
        m = metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=10))
        assert m.tpr is None
        assert m.f1 is None

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


class TestDeriveSeed:
    def test_deterministic(self):
        a = derive_seed(42, {"delta": 0.1}, 3)
        b = derive_seed(42, {"delta": 0.1}, 3)
        assert a == b

    def test_varies_with_every_input(self):
        base = derive_seed(42, {"delta": 0.1}, 3)
        assert derive_seed(43, {"delta": 0.1}, 3) != base
        assert derive_seed(42, {"delta": 0.2}, 3) != base
        assert derive_seed(42, {"delta": 0.1}, 4) != base

    def test_insensitive_to_key_order(self):
        a = derive_seed(1, {"delta": 0.1, "T": 100}, 0)
        b = derive_seed(1, {"T": 100, "delta": 0.1}, 0)
        assert a == b

    def test_nonnegative(self):
        for i in range(20):
            assert derive_seed(0, {"x": i}, i) >= 0

    def test_numpy_scalars_seed_as_the_python_values(self):
        # a cell of Python scalars keeps the seed it had
        plain = derive_seed(42, {"T": 300, "delta": 0.1}, 0)
        assert plain == 2344426763173780324
        assert derive_seed(42, {"T": np.int64(300), "delta": 0.1}, 0) == plain
        assert derive_seed(42, {"T": 300, "delta": np.float64(0.1)}, 0) == plain
        grid = [derive_seed(42, {"delta": d}, 0) for d in np.linspace(0.0, 0.2, 3)]
        assert grid == [derive_seed(42, {"delta": d}, 0) for d in [0.0, 0.1, 0.2]]

    def test_numpy_base_seed_and_realization_seed_as_the_python_values(self):
        # 7445210204526906713 is the seed of the plain realization 0
        assert derive_seed(np.int64(42), {"T": 300}, 0) == derive_seed(42, {"T": 300}, 0)
        assert derive_seed(42, {"T": 300}, np.int64(0)) == 7445210204526906713
        (numpy_cell,) = sweep("ar", {"T": [3000]}, 1, np.int64(42))
        (plain_cell,) = sweep("ar", {"T": [3000]}, 1, 42)
        assert numpy_cell.seeds == plain_cell.seeds
        assert numpy_cell.stats == plain_cell.stats


# (system, cell, seed) -> (TPR, FPR, F1), recorded before the per-system
# dispatch became the SYSTEMS table; each system's settings must still apply.
PINNED_REALIZATIONS = [
    ("ar", {"T": 4000, "NL": 0.2}, 5, (1.0, 0.04781997187060478, 0.34615384615384615)),
    ("lorenz", {"T": 3000, "c": 0.4}, 5, (1.0, 1.0, 0.5)),
    ("nmm", {"T": 20_000}, 3, (1.0, 0.000942507068803016, 0.8571428571428571)),
]


class TestRunRealization:
    @pytest.mark.parametrize("system,cell,seed,expected", PINNED_REALIZATIONS)
    def test_pinned_metrics(self, system, cell, seed, expected, exp_probe):
        nmm_config = reproduction_nmm_config() if system == "nmm" else None
        m = run_realization(system, cell, seed, nmm_config)
        assert (m.tpr, m.fpr, m.f1) == expected, exp_probe

    def test_ar_realization_recovers_structure(self):
        m = run_realization("ar", {"T": 10_000, "delta": 0.15}, seed=11)
        assert m.tpr == 1.0
        assert m.fpr <= 0.02

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            run_realization("weather", {}, seed=0)

    @pytest.mark.parametrize(
        "system,key",
        [("ar", "K"), ("lorenz", "K"), ("nmm", "c"), ("ar", "d"), ("nmm", "decimate")],
    )
    def test_cell_key_the_system_ignores(self, system, key):
        with pytest.raises(ValueError, match=f"reads no cell key {key}"):
            run_realization(system, {"T": 300, key: 1.0}, seed=0)

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_fractional_sample_count_fails_before_simulating(self, system, monkeypatch):
        # the simulators check T before they draw: no integer is cut from 150.5
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match=re.escape("T must be an integer, got 150.5")):
            run_realization(system, {"T": 150.5}, seed=0)

    def test_negative_noise_level_fails_before_simulating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulated before checking the noise level")

        monkeypatch.setitem(SYSTEMS, "ar", replace(SYSTEMS["ar"], simulate=refuse))
        with pytest.raises(ValueError, match=r"^noise level must be non-negative, got -1$"):
            run_realization("ar", {"T": 300, "NL": -1}, seed=0)

    @pytest.mark.parametrize(
        "cell,message",
        [
            ({"delta": "0.1"}, "delta must be a number, got '0.1'"),
            ({"lambda": True}, "lambda must be a number, got True"),
            ({"NL": None}, "NL must be a number, got None"),
        ],
        ids=["delta", "lambda", "NL"],
    )
    def test_setting_that_is_no_number_fails_before_simulating(self, monkeypatch, cell, message):
        def refuse(*args):
            raise AssertionError("simulated before checking the settings")

        monkeypatch.setitem(SYSTEMS, "ar", replace(SYSTEMS["ar"], simulate=refuse))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_realization("ar", {"T": 300, **cell}, seed=0)

    def test_truth_off_the_grid_fails_before_inference(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("inferred before checking the truth's delays")

        monkeypatch.setattr(evaluate, "infer_network", refuse)
        # 300 ms is 60 samples after decimation by 5, against the grid 2-20
        cfg = replace(reproduction_nmm_config(), delay_ms=300.0)
        message = (
            "system 'nmm': ground-truth delay(s) 60 lie off the delay grid 2-20, "
            "in samples after decimation by 5"
        )
        with pytest.raises(TruthOffGrid, match=f"^{re.escape(message)}$"):
            run_realization("nmm", {"T": 3000}, 1, cfg)

    def test_sweep_records_the_off_grid_truth_per_seed(self):
        cfg = replace(reproduction_nmm_config(), delay_ms=300.0)
        (cell,) = sweep("nmm", {"T": [3000]}, 2, base_seed=0, nmm_config=cfg)
        assert cell.n_realizations == 0
        assert [e.partition(": ")[0] for e in cell.errors] == [f"seed {s}" for s in cell.seeds]
        assert all("lie off the delay grid 2-20" in e for e in cell.errors)

    @pytest.mark.parametrize("system", ["ar", "lorenz"])
    def test_config_the_system_ignores(self, system):
        with pytest.raises(ValueError, match=f"system '{system}' reads no neural-mass config"):
            run_realization(system, {"T": 300}, seed=0, nmm_config=reproduction_nmm_config())


class TestSystems:
    CELL = {"T": 300, "c": 0.4, "K": 5.0}

    @pytest.mark.parametrize(
        "name,direct",
        [
            ("ar", lambda: simulate_ar(300, 7)),
            ("lorenz", lambda: simulate_lorenz_chain(300, c=0.4, seed=7)),
            ("nmm", lambda: simulate_nmm(reproduction_nmm_config(), 5.0, 300, 7)),
        ],
    )
    def test_simulate_equals_direct_call(self, name, direct):
        got, got_truth = SYSTEMS[name].simulate(self.CELL, 7, None)
        want, want_truth = direct()
        assert got.data.tobytes() == want.data.tobytes()
        assert got.sample_rate == want.sample_rate
        assert got_truth.edges == want_truth.edges

    def test_nmm_takes_a_given_config(self):
        cfg = replace(reproduction_nmm_config(), n_regions=3)
        got, _ = SYSTEMS["nmm"].simulate(self.CELL, 7, cfg)
        want, _ = simulate_nmm(cfg, 5.0, 300, 7)
        assert got.data.shape == (300, 3)
        assert got.data.tobytes() == want.data.tobytes()


class TestSweep:
    def test_grid_cells_and_aggregation(self):
        cells = sweep(
            "ar",
            {"delta": [0.1, 0.15], "T": [4000]},
            n_realizations=2,
            base_seed=0,
        )
        assert [c.params for c in cells] == [
            {"T": 4000, "delta": 0.1}, {"T": 4000, "delta": 0.15}
        ]
        for cell in cells:
            assert cell.n_realizations == 2
            assert list(cell.stats) == [
                "tpr_mean", "tpr_std", "fpr_mean", "fpr_std", "f1_mean", "f1_std"
            ]
            assert cell.stats["tpr_mean"] is not None
            assert not cell.errors

    def test_process_pool_gives_the_serial_cells(self):
        grid = {"delta": [0.1, 0.15], "T": [1000]}
        pooled = sweep("ar", grid, 2, 7, max_workers=2)
        serial = sweep("ar", grid, 2, 7)
        assert pooled == serial
        assert all(cell.n_realizations == 2 for cell in pooled)

    def test_axis_the_system_ignores_fails_before_any_realization(self, monkeypatch):
        def run_cell(args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(evaluate, "_run_cell", run_cell)
        with pytest.raises(ValueError, match="reads no cell key K"):
            sweep("ar", {"K": [1.0, 5.0], "delta": [0.15]}, 1, base_seed=0)

    @pytest.mark.parametrize(
        "grid,kwargs,message",
        [
            ({"T": [300, 0]}, {}, "need at least 1 sample, and T must be an integer, got 0"),
            ({"T": [-5]}, {}, "need at least 1 sample, and T must be an integer, got -5"),
            ({"T": [300]}, {"max_workers": 0}, "max_workers (--threads) must be an integer >= 1, got 0"),
            ({"T": [300]}, {"nmm_config": reproduction_nmm_config()}, "reads no neural-mass"),
            ({"K": [5.0, -5.0]}, {}, "connection density K must be in [0, 100] percent, got -5.0"),
            ({"K": [np.nan]}, {}, "connection density K must be in [0, 100] percent, got nan"),
            ({"c": [0.6, np.nan]}, {}, "coupling strength must be non-negative"),
            # T 2000.7 once ran a 2000-sample realization and recorded T 2000.7
            ({"T": [300, 2000.7]}, {}, "T must be an integer, got 2000.7"),
            ({"T": [300]}, {"n_realizations": 1.5}, "n_realizations must be an integer >= 1, got 1.5"),
            ({"T": [300]}, {"max_workers": 1.5}, "(--threads) must be an integer >= 1, got 1.5"),
        ],
    )
    def test_bad_setting_fails_before_any_realization(self, monkeypatch, grid, kwargs, message):
        def run_cell(args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(evaluate, "_run_cell", run_cell)
        system = "nmm" if "K" in grid else "lorenz"  # lorenz reads c, only nmm reads K
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(system, grid, **{"n_realizations": 1, "base_seed": 0, **kwargs})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep("ar", {}, n_realizations=1, base_seed=0)

    @pytest.mark.parametrize("key", ["T", "K"])
    def test_axis_with_no_values_rejected(self, key):
        # with no cell, a per-cell check would let an axis the system ignores pass
        with pytest.raises(ValueError, match="sweep grid must be non-empty"):
            sweep("ar", {key: []}, n_realizations=1, base_seed=0)

    @pytest.mark.parametrize("key", ["delta", "lambda"])
    def test_setting_that_is_no_number_fails_before_any_realization(self, monkeypatch, key):
        def run_cell(args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(evaluate, "_run_cell", run_cell)
        with pytest.raises(ValueError, match=f"^{key} must be a number, got True$"):
            sweep("ar", {key: [True]}, 1, 0)

    def test_cell_seeds_stable_under_grid_growth(self):
        small = sweep("ar", {"delta": [0.15], "T": [4000]}, 1, base_seed=3)
        large = sweep("ar", {"delta": [0.1, 0.15], "T": [4000]}, 1, base_seed=3)
        matching = [c for c in large if c.params == {"delta": 0.15, "T": 4000}]
        assert matching[0].seeds == small[0].seeds


class TestWindowedAnalysis:
    def test_window_count_and_midpoints(self, rng):
        data = rng.standard_normal((4000, 2))
        data[3:, 1] += 1.5 * data[:-3, 0]
        series = MultivariateSeries(data=data, sample_rate=100.0)
        params, grid = EmbeddingParams(m=3, d=1), DelayGrid(range(1, 6))
        windows = windowed_analysis(
            series, window_s=10.0, overlap=0.5, params=params, delays=grid, delta=0.1
        )
        # 1000-sample windows every 500 samples: starts 0, 500, ..., 3000
        assert [mid_s for mid_s, _ in windows] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0]
        last = MultivariateSeries(data=data[3000:], sample_rate=100.0)
        assert windows[-1][1] == infer_network(last, params, grid, delta=0.1)

    def test_coupling_found_only_in_the_coupled_half(self):
        # 200 s uncoupled, then 200 s with 0 -> 1 at lag 2, at 100 Hz; 50 s
        # windows every 25 s: 7 uncoupled, 1 across the boundary, 7 coupled
        quiet, _ = simulate_ar(20_000, 0, couplings={}, n_channels=3)
        coupled, _ = simulate_ar(20_000, 1000, couplings={(0, 1, 2): 1.5}, n_channels=3)
        series = MultivariateSeries(
            data=np.vstack([quiet.data, coupled.data]), sample_rate=100.0
        )
        windows = windowed_analysis(
            series,
            window_s=50.0,
            overlap=0.5,
            params=EmbeddingParams(m=3, d=100),
            delays=DelayGrid(range(1, 11)),
            delta=0.15,
        )
        found = {mid_s: (0, 1, 2) in network.edge_triples() for mid_s, network in windows}
        assert len(found) == 15
        assert [found[mid] for mid in found if mid + 25.0 <= 200.0] == [False] * 7
        assert [found[mid] for mid in found if mid - 25.0 >= 200.0] == [True] * 7

    def test_flat_window_is_named(self, rng):
        # channel 2 is flat over samples 1000-2000, exactly the third window
        data = rng.standard_normal((4000, 3))
        data[1000:2000, 2] = 0.0
        series = MultivariateSeries(data=data, sample_rate=100.0)
        message = "window 10.000-20.000 s: channel(s) 2 (x3) hold a single ordinal pattern"
        with pytest.raises(DegenerateSample, match=f"^{re.escape(message)}$"):
            windowed_analysis(
                series,
                window_s=10.0,
                overlap=0.5,
                params=EmbeddingParams(m=3, d=1),
                delays=DelayGrid(range(1, 6)),
            )

    def test_requires_sample_rate(self, random_series):
        with pytest.raises(ValueError):
            windowed_analysis(
                random_series,
                window_s=1.0,
                overlap=0.0,
                params=EmbeddingParams(m=3, d=1),
                delays=DelayGrid([1]),
            )

    def test_window_too_short(self, rng):
        # a window shorter than one pattern and the largest lag, a recording
        # shorter than one window, then lengths that are not a positive
        # finite number of seconds
        not_positive_finite = "window_s must be a positive finite number of seconds"
        for n_samples, window_s, error, message in [
            (1000, 0.05, WindowTooShort, "window of 5 samples is too short; minimum is 7 samples"),
            (500, 10.0, WindowTooShort, "recording of 500 samples is shorter than one window of 1000"),
            (1000, np.inf, ValueError, f"{not_positive_finite}, got inf"),
            (1000, np.nan, ValueError, f"{not_positive_finite}, got nan"),
            (1000, 0.0, ValueError, f"{not_positive_finite}, got 0.0"),
        ]:
            series = MultivariateSeries(
                data=rng.standard_normal((n_samples, 2)), sample_rate=100.0
            )
            with pytest.raises(error, match=message):
                windowed_analysis(
                    series,
                    window_s=window_s,
                    overlap=0.0,
                    params=EmbeddingParams(m=3, d=1),
                    delays=DelayGrid([1, 2, 3]),
                )
