"""End-to-end acceptance gate: eight headline claims, one test each.

Every test prints a single PASS/FAIL summary line with its measured numbers
so a full run reads as a scoreboard. These tests simulate and infer at full
size; the whole module takes a few minutes.
"""

import math

import numpy as np
import pytest

from opcausal import (
    ConditioningSet,
    DelayGrid,
    EmbeddingParams,
    MultivariateSeries,
    conditional_entropy_given_set,
    evidence_table,
    infer_network,
    reproduction_nmm_config,
    simulate_ar,
)
from opcausal.evaluate import (
    SYSTEMS,
    _realizations,
    derive_seed,
    metrics,
    score,
    sweep,
)
from opcausal.ordinal import PatternMatrix

R = 10
BASE_SEED = 42


def announce(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def ar_delta_sweep():
    """{delta: (mean TPR, mean FPR)} of the nine-channel AR benchmark, T=1e4, one sweep.

    The three delta cells share their R realizations: each is simulated and
    pruned once, and read at every delta.
    """
    cells = sweep("ar", {"T": [10_000], "delta": [0.05, 0.10, 0.15], "NL": [0.0]}, R, BASE_SEED)
    assert all(c.n_realizations == R for c in cells), [c.errors for c in cells]
    return {c.params["delta"]: (c.stats["tpr_mean"], c.stats["fpr_mean"]) for c in cells}


def test_criterion_1_ar_recovery(ar_delta_sweep):
    """Nine-channel AR benchmark at delta=0.15: mean TPR >= 0.95, FPR <= 0.02."""
    tpr, fpr = ar_delta_sweep[0.15]
    ok = tpr >= 0.95 and fpr <= 0.02
    announce(
        "criterion 1 (AR recovery)",
        ok,
        f"mean TPR {tpr:.3f} (>= 0.95), mean FPR {fpr:.4f} (<= 0.02), R={R}",
    )
    assert ok


def test_criterion_2_ar_delta_sweep_shape(ar_delta_sweep):
    """TPR >= 0.95 for delta in {0.05, 0.10, 0.15}; FPR <= 0.02 for delta >= 0.10."""
    summary = []
    ok = True
    for delta, (tpr, fpr) in ar_delta_sweep.items():
        if tpr < 0.95:
            ok = False
        if delta >= 0.10 and fpr > 0.02:
            ok = False
        summary.append(f"delta {delta:.2f}: TPR {tpr:.3f} FPR {fpr:.4f}")
    announce("criterion 2 (AR delta-sweep shape)", ok, "; ".join(summary))
    assert ok


def test_criterion_3_lorenz_chain():
    """Chained Lorenz systems: mean F1 in [0.70, 1.00], spurious 1->3 rare.

    Known limitation, documented in the README: at step-level sampling the
    plug-in epsilon statistic has an estimator-bias floor far above delta
    for this deterministic flow, and lagged ordinal information is
    direction-symmetric for chaotic attractors built from near-invertible
    dynamics, so pruning cannot separate the true chain from its reversals
    and shortcuts. Expected to fail; it is kept as an honest record of the
    measured behavior rather than softened to pass.
    """
    cell = {"T": 10_000, "delta": 0.10, "c": 0.6, "d": 100}
    lorenz = SYSTEMS["lorenz"]
    grid = DelayGrid(lorenz.delays(None))
    f1s = []
    spurious = 0
    for i in range(R):
        # run_realization("lorenz", cell, seed) step by step, to keep the network
        series, truth = lorenz.simulate(cell, derive_seed(BASE_SEED, cell, i), None)
        net = infer_network(series, EmbeddingParams(3, cell["d"]), grid, delta=cell["delta"])
        m = metrics(score(net, truth, series.n_channels, grid, lorenz.delay_sensitive))
        f1s.append(m.f1 if m.f1 is not None else 0.0)
        if (0, 2) in net.edge_pairs():
            spurious += 1
    f1 = float(np.mean(f1s))
    ok = 0.70 <= f1 <= 1.00 and spurious <= 3
    announce(
        "criterion 3 (Lorenz chain)",
        ok,
        f"mean F1 {f1:.3f} (target [0.70, 1.00]), spurious 1->3 in {spurious}/{R} "
        "(target <= 3); known estimator limitation, see README",
    )
    assert ok


def test_criterion_4_entropy_bounds_and_limits():
    """(a) self-CE zero, (b) independent-stream limit, (c) range, (d) monotone."""
    from test_entropy import pair_ce

    rng = np.random.default_rng(BASE_SEED)
    h_max = math.log2(6)

    x = rng.integers(0, 6, size=20_000)
    part_a = pair_ce(x, x, 0) == 0.0

    a = rng.integers(0, 6, size=20_000)
    b = rng.integers(0, 6, size=20_000)
    h_indep = pair_ce(a, b, 3)
    part_b = abs(h_indep - h_max) < 0.02

    part_c = True
    for _ in range(50):
        u = rng.integers(0, 6, size=500)
        v = rng.integers(0, 6, size=500)
        h = pair_ce(u, v, int(rng.integers(0, 5)))
        if not (0.0 <= h <= h_max + 1e-12):
            part_c = False

    part_d = True
    for _ in range(20):
        symbols = rng.integers(0, 6, size=(2000, 3))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(3, 1))
        small = ConditioningSet([(1, 2)])
        large = ConditioningSet([(1, 2), (2, 3)])
        h1 = conditional_entropy_given_set(pi, 0, small, t_start=3)
        h2 = conditional_entropy_given_set(pi, 0, large, t_start=3)
        if h2 > h1 + 1e-12:
            part_d = False

    ok = part_a and part_b and part_c and part_d
    announce(
        "criterion 4 (entropy bounds and limits)",
        ok,
        f"self-CE zero: {part_a}; independent-limit |H - log2(6)| = "
        f"{abs(h_indep - h_max):.4f} (< 0.02): {part_b}; range: {part_c}; "
        f"monotone under extra conditioning: {part_d}",
    )
    assert ok


# the set oracle runs on 150-sample series, far below 10 samples per joint state
@pytest.mark.filterwarnings(
    "ignore:only .* samples for .* joint conditioning states:RuntimeWarning"
)
def test_criterion_5_oracle_equivalence():
    """Estimators match independent brute-force oracles to 1e-12."""
    from test_entropy import (
        oracle_co_occurrence_entropy,
        oracle_conditional_entropy_given_set,
        pair_ce,
    )

    rng = np.random.default_rng(BASE_SEED)
    worst_pair = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 51))
        tau = int(rng.integers(0, min(4, n)))
        src = rng.integers(0, 6, size=n)
        dst = rng.integers(0, 6, size=n)
        got = pair_ce(src, dst, tau)
        want = oracle_co_occurrence_entropy(src, dst, tau, 6)
        worst_pair = max(worst_pair, abs(got - want))

    worst_set = 0.0
    for _ in range(100):
        symbols = rng.integers(0, 6, size=(150, 4))
        pi = PatternMatrix(symbols=symbols, params=EmbeddingParams(3, 1))
        r = int(rng.integers(1, 4))
        channels = rng.choice(4, size=r, replace=False)
        members = [(int(ch), int(rng.integers(0, 5))) for ch in channels]
        cond = ConditioningSet(members)
        got = conditional_entropy_given_set(pi, 0, cond)
        want = oracle_conditional_entropy_given_set(pi, 0, members, cond.max_delay)
        worst_set = max(worst_set, abs(got - want))

    ok = worst_pair <= 1e-12 and worst_set <= 1e-12
    announce(
        "criterion 5 (oracle equivalence)",
        ok,
        f"max |pairwise - oracle| {worst_pair:.2e}, "
        f"max |conditioned - oracle| {worst_set:.2e} (both <= 1e-12)",
    )
    assert ok


def test_criterion_6_chain_fork_pruning():
    """Spurious motif edges appear bivariately and are pruned end to end."""
    params = EmbeddingParams(3, 100)
    grid = DelayGrid(range(1, 11))
    motifs = {
        "chain": ({(0, 1, 2): 1.5, (1, 2, 3): 1.5}, (0, 2)),
        "fork": ({(0, 1, 2): 1.5, (0, 2, 5): 1.5}, (1, 2)),
    }
    ok = True
    summary = []
    for name, (couplings, spurious_pair) in motifs.items():
        bi_hits = removed = retained = 0
        for i in range(R):
            seed = derive_seed(BASE_SEED, {"motif": name}, i)
            series, truth = simulate_ar(
                10_000, seed=seed, couplings=couplings, n_channels=3
            )
            # one table gives the bivariate network and the pruned one
            table = evidence_table(series, params, grid)
            bi, full = table.network(), table.network(0.15)
            if spurious_pair in bi.edge_pairs():
                bi_hits += 1
            if spurious_pair not in full.edge_pairs():
                removed += 1
            if truth.pairs() <= full.edge_pairs():
                retained += 1
        if bi_hits < 8 or removed < 8 or retained < 8:
            ok = False
        summary.append(
            f"{name}: spurious bivariate {bi_hits}/{R}, pruned {removed}/{R}, "
            f"true edges kept {retained}/{R} (all >= 8)"
        )
    announce("criterion 6 (chain/fork pruning)", ok, "; ".join(summary))
    assert ok


def test_criterion_7_neural_mass_network():
    """Delay-coupled neural mass network: every edge at exactly 40 ms, no FP.

    Runs the shipped reproduction configuration on its three documented
    seeds, whose drawn graphs place the three edges on disjoint region
    pairs. Graphs with a common driver leak an unprunable dependence
    between the driven siblings (coarse ordinal symbols cannot represent
    the shared synaptically filtered history); scripts/nmm_analysis.py
    reproduces and quantifies that limitation.
    """
    cfg = reproduction_nmm_config()
    seeds = (3, 29, 38)
    deltas = (0.08, 0.10, 0.12)
    cells = [{"T": 50_000, "lambda": 0.995, "K": 5.0, "delta": delta} for delta in deltas]
    table = {delta: [] for delta in deltas}
    for s in seeds:
        # the sweep's step: one simulation and one evidence table per seed, read at every delta
        for delta, m in zip(deltas, _realizations("nmm", cells, s, cfg)):
            table[delta].append((m.tpr, m.fpr))
    perfect = [d for d, v in table.items() if all(t == 1.0 and f == 0.0 for t, f in v)]
    perfect_delta = perfect[-1] if perfect else None
    ok = perfect_delta is not None
    detail = "; ".join(
        f"delta {d:.2f}: " + " ".join(f"TPR {t:.2f}/FPR {f:.4f}" for t, f in v)
        for d, v in table.items()
    )
    announce(
        "criterion 7 (neural mass network)",
        ok,
        f"all edges at exactly 40 ms with zero FP at delta="
        f"{perfect_delta if perfect_delta is not None else 'none'} "
        f"(lambda 0.995, seeds {seeds}); {detail}",
    )
    assert ok


def test_criterion_8_determinism_and_monotonicity():
    """Identical seeds reproduce identical outputs; delta only ever prunes."""
    cell = {"T": 4000, "delta": 0.15}
    seed = derive_seed(BASE_SEED, cell, 0)
    series_a, truth_a = simulate_ar(4000, seed=seed)
    series_b, truth_b = simulate_ar(4000, seed=seed)
    deterministic = (
        np.array_equal(series_a.data, series_b.data) and truth_a.edges == truth_b.edges
    )
    params = EmbeddingParams(3, 2)
    grid = DelayGrid(range(1, 6))
    net_a = evidence_table(series_a, params, grid).network(0.15)
    net_b = evidence_table(series_b, params, grid).network(0.15)
    deterministic = deterministic and net_a.edge_triples() == net_b.edge_triples()

    rng = np.random.default_rng(BASE_SEED)
    monotone = True
    for _ in range(20):
        data = rng.standard_normal((2000, 3))
        data[2:, 1] += rng.uniform(0.5, 2.0) * data[:-2, 0]
        table = evidence_table(MultivariateSeries(data=data), params, grid)
        previous = None
        for delta in (0.0, 0.05, 0.1, 0.2, 0.4):
            edges = table.network(delta).edge_triples()
            if previous is not None and not edges <= previous:
                monotone = False
            previous = edges

    ok = deterministic and monotone
    announce(
        "criterion 8 (determinism and monotonicity)",
        ok,
        f"seeded outputs identical: {deterministic}; surviving edges "
        f"non-increasing in delta over 20 datasets x 5 deltas: {monotone}",
    )
    assert ok
