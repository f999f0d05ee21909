"""Conditioning-set construction, the epsilon test, and the full pipeline."""

import numpy as np
import pytest

from opcausal import causal
from opcausal import (
    ConditioningSet,
    DelayGrid,
    EmbeddingParams,
    MultivariateSeries,
    epsilon_test,
    evidence_table,
    infer_network,
    minimal_conditioning_set,
)
from opcausal.causal import (
    Evidence,
    candidate_tensor,
    lowest_ce_per_pair,
    prune_tensor,
    reliable_conditioning_size,
)
from opcausal.entropy import CETensor
from opcausal.errors import CandidateNotALink, DegenerateSample, InvalidLambda
from opcausal.ordinal import PatternMatrix
from opcausal.simulate import simulate_ar


def make_tensor(parents, n_channels, delays=range(1, 11)):
    """Thresholded m=3 tensor from {target: [(source, delay, ce), ...]}."""
    grid = DelayGrid(delays)
    tensor = CETensor(np.zeros((n_channels, n_channels, len(grid))), grid, 6, True)
    tensor.values[:] = tensor.h_max
    for tgt, entries in parents.items():
        for src, delay, ce in entries:
            tensor.values[tgt, src, grid.delays.index(delay)] = ce
    return tensor


class TestMinimalConditioningSet:
    def test_chain_conditions_on_mediator(self):
        # 0 -> 1 -> 2 with a spurious candidate 0 -> 2
        tensor = make_tensor(
            {1: [(0, 2, 1.0)], 2: [(1, 3, 1.0), (0, 5, 1.5)]}, n_channels=3
        )
        p_min = minimal_conditioning_set(tensor, 2, 0)
        assert p_min.members == ((1, 3),)

    def test_fork_conditions_on_common_parent(self):
        # 0 -> 1 and 0 -> 2 with a spurious candidate 1 -> 2; node 1 has no
        # children besides 2, so the common parent 0 must be used.
        tensor = make_tensor(
            {1: [(0, 2, 1.0)], 2: [(0, 5, 1.0), (1, 3, 1.2)]}, n_channels=3
        )
        p_min = minimal_conditioning_set(tensor, 2, 1)
        assert p_min.members == ((0, 5),)

    def test_isolated_pair_falls_back_to_own_past(self):
        tensor = make_tensor({1: [(0, 4, 1.0)]}, n_channels=2, delays=range(2, 11))
        p_min = minimal_conditioning_set(tensor, 1, 0)
        assert p_min.members == ((1, 2),)

    @pytest.mark.parametrize("delays, past", [([0, 2, 4], 2), ([0], 1)])
    def test_fallback_skips_lag_zero(self, delays, past):
        # the target's present symbol would explain itself away
        tensor = make_tensor({1: [(0, delays[-1], 1.0)]}, n_channels=2, delays=delays)
        assert minimal_conditioning_set(tensor, 1, 0).members == ((1, past),)

    def test_non_candidate_raises(self):
        tensor = make_tensor({1: [(0, 4, 1.0)]}, n_channels=3)
        with pytest.raises(CandidateNotALink):
            minimal_conditioning_set(tensor, 1, 2)

    def test_channel_collapsed_to_lowest_ce_delay(self):
        tensor = make_tensor(
            {
                2: [(1, 3, 1.4), (1, 6, 0.9), (0, 5, 1.5)],
                1: [(0, 2, 1.0)],
            },
            n_channels=3,
        )
        p_min = minimal_conditioning_set(tensor, 2, 0)
        assert p_min.members == ((1, 6),)

    def test_capped_at_r_max_lowest_ce(self):
        tensor = make_tensor(
            {
                4: [(1, 1, 0.5), (2, 1, 0.7), (3, 1, 0.9), (0, 1, 1.0)],
                1: [(0, 9, 1.0)],
                2: [(0, 9, 1.0)],
                3: [(0, 9, 1.0)],
            },
            n_channels=5,
        )
        p_min = minimal_conditioning_set(tensor, 4, 0, size=2)
        assert p_min.members == ((1, 1), (2, 1))


class TestEpsilonTest:
    def test_nonnegative_and_keep_consistent(self, rng):
        symbols = rng.integers(0, 6, size=(4000, 3))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        p_min = ConditioningSet([(1, 2)])
        keep, eps = epsilon_test(pi, 0, 2, 3, p_min, delta=0.05)
        assert eps >= -1e-12
        assert keep == (eps >= 0.05)

    def test_detects_a_real_direct_dependence(self, rng):
        # channel 2 copies channel 0 three steps later; conditioning on the
        # unrelated channel 1 cannot explain that away
        symbols = rng.integers(0, 6, size=(4000, 3))
        symbols[3:, 2] = symbols[:-3, 0]
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        keep, eps = epsilon_test(pi, 2, 0, 3, ConditioningSet([(1, 1)]), delta=0.1)
        assert keep
        assert eps > 1.0

    def test_rejects_negative_delta(self, rng):
        symbols = rng.integers(0, 6, size=(100, 2))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        with pytest.raises(ValueError):
            epsilon_test(pi, 0, 1, 1, ConditioningSet([(0, 1)]), delta=-0.1)


class TestReliableConditioningSize:
    def test_short_series_capped_at_one(self, rng):
        symbols = rng.integers(0, 6, size=(500, 2))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        assert reliable_conditioning_size(pi) == 1

    def test_long_series_reaches_r_max(self, rng):
        symbols = rng.integers(0, 6, size=(80_000, 2))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(m=3, d=1))
        assert reliable_conditioning_size(pi) == 3


class TestPipeline:
    def test_candidates_require_threshold(self, random_series):
        from opcausal import build_moptn, ce_tensor

        pi = build_moptn(random_series, EmbeddingParams(m=3, d=2))
        raw = ce_tensor(pi, DelayGrid([1, 2]))
        with pytest.raises(ValueError, match="thresholded"):
            raw.candidates()
        with pytest.raises(ValueError, match="thresholded"):
            minimal_conditioning_set(raw, 0, 1)
        with pytest.raises(ValueError, match="thresholded"):
            prune_tensor(pi, raw, delta=0.15)

    @pytest.mark.parametrize("delta", [-1.0, float("nan")])
    def test_bad_delta_is_rejected_before_any_entropy(self, monkeypatch, delta):
        # white noise has no candidate, so no epsilon test would see delta
        series = MultivariateSeries(data=np.random.default_rng(0).standard_normal((3000, 3)))
        params, grid = EmbeddingParams(m=3, d=1), DelayGrid([1, 2, 3])
        assert not candidate_tensor(series, params, grid, lam=0.5)[1].candidates().any()
        monkeypatch.setattr(causal, "ce_tensor", None)  # computing entropies fails
        with pytest.raises(ValueError, match="delta must be non-negative"):
            infer_network(series, params, grid, lam=0.5, delta=delta)

    def test_bad_lambda_is_rejected_before_any_symbol_is_encoded(self, monkeypatch):
        series = MultivariateSeries(data=np.random.default_rng(0).standard_normal((3000, 3)))
        monkeypatch.setattr(causal, "build_moptn", None)  # encoding fails
        with pytest.raises(InvalidLambda):
            infer_network(series, EmbeddingParams(m=3, d=1), DelayGrid([1, 2]), lam=1.5)

    def test_chain_recovered_and_indirect_pruned(self):
        couplings = {(0, 1, 2): 1.5, (1, 2, 3): 1.5}
        series, truth = simulate_ar(10_000, seed=5, couplings=couplings, n_channels=3)
        params = EmbeddingParams(m=3, d=100)
        grid = DelayGrid(range(1, 11))
        table = evidence_table(series, params, grid)
        bi, full = table.network(), table.network(0.15)
        assert (0, 2) in bi.edge_pairs()
        assert (0, 2) not in full.edge_pairs()
        assert truth.pairs() <= full.edge_pairs()

    def test_lag_zero_on_the_grid_keeps_the_link(self):
        # no mediator and no common parent: the fallback conditions on the
        # target's past, never its present, so epsilon is not forced to 0
        series, _ = simulate_ar(10_000, seed=5, couplings={(0, 1, 2): 1.5}, n_channels=2)
        params = EmbeddingParams(m=3, d=100)
        pi, tensor = candidate_tensor(series, params, DelayGrid(range(0, 11)))
        rows = prune_tensor(pi, tensor, delta=0.15)
        assert rows and all(r.conditioning.members == ((1, 1),) for r in rows)
        for grid in (DelayGrid(range(1, 11)), DelayGrid(range(0, 11))):
            net = infer_network(series, params, grid, delta=0.15)
            assert sorted(net.edge_triples()) == [(0, 1, 2)]

    def test_prune_decisions_are_batch_applied(self):
        couplings = {(0, 1, 2): 1.5, (1, 2, 3): 1.5}
        series, _ = simulate_ar(10_000, seed=5, couplings=couplings, n_channels=3)
        pi, tensor = candidate_tensor(
            series, EmbeddingParams(m=3, d=100), DelayGrid(range(1, 11))
        )
        once = prune_tensor(pi, tensor, delta=0.15)
        again = prune_tensor(pi, tensor, delta=0.15)
        assert once and once == again
        # the rows do not depend on delta either
        assert prune_tensor(pi, tensor, delta=0.5) == once

    def test_one_delay_per_pair_keeps_lowest_ce(self):
        series, _ = simulate_ar(10_000, seed=3)
        params = EmbeddingParams(m=3, d=100)
        grid = DelayGrid(range(1, 11))
        full = infer_network(series, params, grid, delta=0.15)
        collapsed = infer_network(
            series, params, grid, delta=0.15, one_delay_per_pair=True
        )
        pairs = [(e.source, e.target) for e in collapsed.edges]
        assert len(pairs) == len(set(pairs))
        assert collapsed.edge_triples() <= full.edge_triples()
        best = {}
        for e in full.edges:
            key = (e.source, e.target)
            if key not in best or e.ce < best[key].ce:
                best[key] = e
        assert {(e.source, e.target, e.delay) for e in best.values()} == (
            collapsed.edge_triples()
        )

    def test_delta_monotonicity_on_fixed_data(self, rng):
        series = MultivariateSeries(data=rng.standard_normal((3000, 4)))
        params = EmbeddingParams(m=3, d=2)
        grid = DelayGrid(range(1, 6))
        table = evidence_table(series, params, grid)
        previous = None
        for delta in (0.0, 0.05, 0.1, 0.2, 0.4):
            edges = table.network(delta).edge_triples()
            if previous is not None:
                assert edges <= previous
            previous = edges

    def test_constant_channel_is_named(self, rng):
        data = rng.standard_normal((3000, 3))
        data[:, 2] = 1.0
        series = MultivariateSeries(data=data)
        with pytest.raises(DegenerateSample, match=r"2 \(x3\)"):
            infer_network(
                series, EmbeddingParams(m=3, d=1), DelayGrid(range(1, 4)), delta=0.0
            )

    def test_network_params_recorded(self, random_series):
        net = infer_network(
            random_series, EmbeddingParams(m=3, d=2), DelayGrid([1, 2]), delta=0.2
        )
        assert net.params["m"] == 3
        assert net.params["delta"] == 0.2
        assert net.params["delays"] == [1, 2]


class TestEvidence:
    GRID = DelayGrid(range(1, 11))
    PARAMS = EmbeddingParams(m=3, d=100)

    @pytest.fixture(scope="class")
    def chain(self):
        couplings = {(0, 1, 2): 1.5, (1, 2, 3): 1.5}
        series, _ = simulate_ar(6000, seed=5, couplings=couplings, n_channels=3)
        pi, tensor = candidate_tensor(series, self.PARAMS, self.GRID)
        table = evidence_table(series, self.PARAMS, self.GRID)
        assert table.rows == tuple(prune_tensor(pi, tensor, delta=0.15))
        return series, pi, tensor, table

    def test_one_row_per_candidate(self, chain):
        _, _, tensor, table = chain
        rows = table.rows
        targets, sources, lags = np.nonzero(tensor.values < tensor.h_max)
        assert [(r.target, r.source, r.delay) for r in rows] == [
            (t, s, self.GRID.delays[j]) for t, s, j in zip(targets, sources, lags)
        ]
        for r in rows:
            j = self.GRID.delays.index(r.delay)
            assert r.ce == tensor.values[r.target, r.source, j]

    def test_epsilon_is_the_test_on_its_own_conditioning(self, chain):
        _, pi, _, table = chain
        for r in table.rows:
            keep, eps = epsilon_test(
                pi, r.target, r.source, r.delay, r.conditioning, delta=0.15
            )
            assert eps == r.epsilon
            assert keep == (r.epsilon >= 0.15)

    VIEWS = [(delta, one) for one in (False, True) for delta in (0.0, 0.05, 0.15, 0.4)]

    @pytest.mark.parametrize(
        "delta, one_delay_per_pair",
        VIEWS,
        ids=[f"{delta}-one_delay_per_pair" if one else str(delta) for delta, one in VIEWS],
    )
    def test_infer_network_keeps_rows_at_delta(self, chain, delta, one_delay_per_pair):
        series, _, _, table = chain
        net = infer_network(
            series, self.PARAMS, self.GRID, delta=delta, one_delay_per_pair=one_delay_per_pair
        )
        view = table.network(delta, one_delay_per_pair)
        assert (net.edges, net.params, net.h_max) == (view.edges, view.params, view.h_max)
        kept = [r for r in table.rows if r.epsilon >= delta]
        if one_delay_per_pair:
            kept = lowest_ce_per_pair(kept).values()
        assert net.edge_triples() == {(r.source, r.target, r.delay) for r in kept}

    def test_bivariate_network_is_every_candidate(self, chain):
        _, _, tensor, table = chain
        bi = table.network()
        assert [(e.source, e.target, e.delay, e.ce) for e in bi.edges] == sorted(
            (r.source, r.target, r.delay, r.ce) for r in table.rows
        )
        assert all(e.strength == tensor.h_max - e.ce for e in bi.edges)
        assert bi.params["delta"] is None

    @pytest.mark.parametrize("delta", [-0.1, float("nan")])
    def test_network_rejects_a_bad_delta(self, chain, delta):
        with pytest.raises(ValueError, match="delta must be non-negative"):
            chain[3].network(delta)

    def test_lowest_ce_per_pair(self):
        cond = ConditioningSet([(2, 1)])
        rows = [
            Evidence(0, 1, 3, 2.0, cond, 0.1),
            Evidence(0, 1, 5, 1.5, cond, 0.2),
            Evidence(0, 1, 2, 1.5, cond, 0.3),
            Evidence(1, 0, 4, 2.2, cond, 0.4),
        ]
        best = lowest_ce_per_pair(rows)
        assert best == {(0, 1): rows[2], (1, 0): rows[3]}


class TestPruneWorkCounts:
    """prune_tensor's calls, as the benchmark's tracer counts them."""

    def test_calls_per_candidate_and_per_pair(self, monkeypatch):
        series, _ = simulate_ar(10_000, seed=1)
        grid = DelayGrid(range(1, 11))
        pi, tensor = candidate_tensor(series, EmbeddingParams(m=3, d=100), grid)
        r_eff = reliable_conditioning_size(pi)
        # the rows as built with one conditioning set per candidate
        want = []
        for m, n, j in zip(*np.nonzero(tensor.candidates())):
            m, n, tau = int(m), int(n), grid.delays[j]
            p_min = minimal_conditioning_set(tensor, m, n, size=r_eff)
            _, eps = epsilon_test(pi, m, n, tau, p_min, delta=0.15)
            want.append(Evidence(n, m, tau, float(tensor.values[m, n, j]), p_min, eps))

        names = ("epsilon_test", "conditional_entropy_given_set", "minimal_conditioning_set")
        calls = {name: [] for name in names}
        for name, log in calls.items():
            def spy(*args, _fn=getattr(causal, name), _log=log, **kwargs):
                _log.append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(causal, name, spy)
        rows = prune_tensor(pi, tensor, delta=0.15)

        pairs = {(r.target, r.source) for r in rows}
        assert len(pairs) < len(rows)
        assert rows == want
        assert len(calls["epsilon_test"]) == len(rows)
        assert len(calls["conditional_entropy_given_set"]) == 2 * len(rows)
        set_calls = [(args[1], args[2]) for args in calls["minimal_conditioning_set"]]
        assert sorted(set_calls) == sorted(pairs)
