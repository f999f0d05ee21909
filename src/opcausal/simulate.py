"""Benchmark systems with known coupling structure.

Three generators: a nine-channel nonlinear autoregressive system containing
a chain and a fork, a chain of three diffusively coupled Lorenz systems, and
a delay-coupled network of neural mass models. Each returns the series
together with the ground-truth edge list actually injected, plus a separate
observational-noise transform.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import NonFiniteState, ParameterUnset, _count, check, is_integer, number
from .ordinal import MultivariateSeries


@dataclass
class GroundTruth:
    """Known directed edges (source, target, delay in samples)."""

    edges: list[tuple[int, int, int]]
    description: str = ""

    def __post_init__(self):
        for src, tgt, delay in self.edges:
            if src == tgt:
                raise ValueError("ground truth must not contain self-edges")
            if delay < 1:
                raise ValueError("ground-truth delays must be >= 1 sample")

    def triples(self) -> set[tuple[int, int, int]]:
        return {(s, t, d) for s, t, d in self.edges}

    def pairs(self) -> set[tuple[int, int]]:
        return {(s, t) for s, t, _ in self.edges}


# (source, target, delay) -> coupling coefficient of the nine-channel
# autoregressive benchmark; channels are 0-indexed.
AR_COUPLINGS = {
    (1, 0, 4): 2.5,
    (2, 0, 2): 1.8,
    (3, 0, 2): 1.5,
    (0, 2, 1): 0.25,
    (4, 3, 3): 1.5,
    (5, 3, 1): 1.2,
    (6, 5, 3): 1.5,
    (6, 7, 1): 0.8,
    (6, 8, 1): 1.8,
}

AR_NOISE_SCALE = 0.4
AR_N_CHANNELS = 9
# Rows stepped between numpy calls: one tolist of the noise and one write of
# the output per block. Larger blocks were no faster and keep more Python
# floats alive at once.
_AR_BLOCK_ROWS = 64


def _check_ar_couplings(couplings: dict, n_channels: int) -> None:
    """Raise ValueError naming the first coupling simulate_ar cannot step."""
    for key, c in couplings.items():
        src, tgt, delay = key
        if not all(is_integer(v) for v in key):
            raise ValueError(f"coupling {key}: endpoints and delay must be integers")
        if not (0 <= src < n_channels and 0 <= tgt < n_channels):
            raise ValueError(f"coupling {key}: endpoints must be in [0, {n_channels})")
        if delay < 1:
            raise ValueError(f"coupling {key}: delay must be >= 1")
        if src == tgt and c != 0:
            raise ValueError(f"coupling {key}: self-coupling must be zero, got {c!r}")


@functools.lru_cache(maxsize=16)
def _ar_steps(n_channels: int, links: tuple[tuple[int, int, int], ...]):
    """The AR step loop written out for n_channels and the (source, target, delay) links.

    Each channel's value lives in a local of its own, which steps faster than
    a list of values does; the channel count and the links fix those locals,
    so the loop's source is written for them. For two channels and the link
    (0, 1, 2) it reads:

        def steps(rows, noise_rows, now, coefs):
            [c0, ] = coefs
            v0, v1, = rows[-1]
            for n0, n1, in noise_rows:
                e0, e1, = exp([-v0 * v0, -v1 * v1]).tolist()
                v0 = 3.4 * v0 * (1.0 - v0 * v0) * e0 + n0
                v1 = 3.4 * v1 * (1.0 - v1 * v1) * e1 + n1
                v1 += c0 * rows[now - 2][0]
                rows.append([v0, v1, ])
                now += 1

    steps appends one row to rows per noise row, rows[now] being the row it
    steps; coefs holds the coefficients in the order of links. Only integers
    from the checked links enter the source.
    """

    def names(prefix, count):
        return "".join(f"{prefix}{i}, " for i in range(count))

    channels = range(n_channels)
    values = names("v", n_channels)
    exp_args = ", ".join(f"-v{i} * v{i}" for i in channels)
    lines = [
        "def steps(rows, noise_rows, now, coefs):",
        f"    [{names('c', len(links))}] = coefs",
        f"    {values}= rows[-1]",
        f"    for {names('n', n_channels)}in noise_rows:",
        f"        {names('e', n_channels)}= exp([{exp_args}]).tolist()",
        *(f"        v{i} = 3.4 * v{i} * (1.0 - v{i} * v{i}) * e{i} + n{i}" for i in channels),
        *(f"        v{tgt} += c{k} * rows[now - {delay}][{src}]"
          for k, (src, tgt, delay) in enumerate(links)),
        f"        rows.append([{values}])",
        "        now += 1",
    ]
    namespace = {"exp": np.exp}
    exec("\n".join(lines), namespace)
    return namespace["steps"]


def simulate_ar(
    n_samples: int,
    seed: int,
    couplings: dict[tuple[int, int, int], float] | None = None,
    burn_in: int = 500,
    n_channels: int | None = None,
) -> tuple[MultivariateSeries, GroundTruth]:
    """Iterate the coupled noisy maps and return series plus truth.

    Defaults to the nine-channel benchmark structure; pass custom couplings
    (and optionally n_channels) for small motifs built from the same map.
    n_channels must be an integer >= 1 and burn_in an integer >= 0; each
    coupling needs endpoints in [0, n_channels), an integer delay >= 1 and,
    if it is a self-coupling, a coefficient of zero.
    """
    check("T", n_samples)
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    if couplings is None:
        couplings = AR_COUPLINGS
    if n_channels is None:
        n_channels = AR_N_CHANNELS
    if not _count(n_channels):
        raise ValueError(f"n_channels must be an integer >= 1, got {n_channels!r}")
    _check_ar_couplings(couplings, n_channels)
    check("lead_in", burn_in)
    max_lag = max((d for _, _, d in couplings), default=1)
    rng = np.random.default_rng(seed)
    total = n_samples + burn_in + max_lag
    # the noise is drawn into the output, and each row overwrites its own
    x = rng.standard_normal((total, n_channels))
    x *= AR_NOISE_SCALE
    steps = _ar_steps(n_channels, tuple(couplings))
    coefs = tuple(couplings.values())
    # The bounded self map 3.4 x (1 - x^2) exp(-x^2) stepped on Python floats,
    # which round as float64 ufuncs do; exp stays numpy's, as math.exp can
    # differ in the last bit and the map is chaotic. rows holds the last
    # max_lag rows before the block, then the block's rows as they are stepped.
    rows = x[:max_lag].tolist()
    for start in range(max_lag, total, _AR_BLOCK_ROWS):
        block = x[start : start + _AR_BLOCK_ROWS]
        steps(rows, block.tolist(), max_lag, coefs)
        block[:] = rows[max_lag:]
        del rows[:-max_lag]
    data = x[burn_in + max_lag :]
    # two reductions, where abs and a comparison would copy the series; a
    # NaN minimum or maximum fails the test as it should
    if not (-100 < data.min() and data.max() < 100):
        raise NonFiniteState("autoregressive map left its bounded regime")
    truth = GroundTruth(
        edges=[(s, t, d) for (s, t, d), c in couplings.items() if c != 0.0],
        description="nonlinear autoregressive map network",
    )
    return MultivariateSeries(data=data), truth


LORENZ_SIGMA = 10.0
LORENZ_RHO = 28.0
LORENZ_BETA = 8.0 / 3.0
# RK4 step, and the steps integrated and discarded before the first sample
LORENZ_DT = 0.001
LORENZ_TRANSIENT_STEPS = 100_000


def _lorenz_chain_deriv(s, c):
    x1, y1, z1, x2, y2, z2, x3, y3, z3 = s
    return (
        LORENZ_SIGMA * (y1 - x1),
        LORENZ_RHO * x1 - y1 - x1 * z1,
        x1 * y1 - LORENZ_BETA * z1,
        LORENZ_SIGMA * (y2 - x2) + c * (x1 - x2),
        LORENZ_RHO * x2 - y2 - x2 * z2,
        x2 * y2 - LORENZ_BETA * z2,
        LORENZ_SIGMA * (y3 - x3) + c * (x2 - x3),
        LORENZ_RHO * x3 - y3 - x3 * z3,
        x3 * y3 - LORENZ_BETA * z3,
    )


def simulate_lorenz_chain(
    n_samples: int,
    c: float = 0.6,
    seed: int = 0,
) -> tuple[MultivariateSeries, GroundTruth]:
    """Fixed-step RK4 integration of three chained Lorenz systems.

    The x component of each system is recorded at every integration step
    after the transient. Ground truth is 1 -> 2 -> 3; the coupling is
    continuous, so the listed delay is the nominal 1 sample.
    """
    check("T", n_samples)
    check("c", c)
    rng = np.random.default_rng(seed)
    state = []
    for _ in range(3):
        state += [rng.normal(0.0, 5.0), rng.normal(0.0, 5.0), 25.0 + rng.normal(0.0, 5.0)]

    # RK4 on nine scalar locals; each expression keeps the order of
    # s + 0.5*dt*k and s + dt/6*(k1 + 2*k2 + 2*k3 + k4), so the bytes do too
    h, dt, w = 0.5 * LORENZ_DT, LORENZ_DT, LORENZ_DT / 6.0
    x1, y1, z1, x2, y2, z2, x3, y3, z3 = state
    out = np.empty((n_samples, 3))
    for i in range(-LORENZ_TRANSIENT_STEPS, n_samples):
        a1, a2, a3, a4, a5, a6, a7, a8, a9 = _lorenz_chain_deriv(
            (x1, y1, z1, x2, y2, z2, x3, y3, z3), c)
        b1, b2, b3, b4, b5, b6, b7, b8, b9 = _lorenz_chain_deriv(
            (x1 + h * a1, y1 + h * a2, z1 + h * a3, x2 + h * a4, y2 + h * a5,
             z2 + h * a6, x3 + h * a7, y3 + h * a8, z3 + h * a9), c)
        g1, g2, g3, g4, g5, g6, g7, g8, g9 = _lorenz_chain_deriv(
            (x1 + h * b1, y1 + h * b2, z1 + h * b3, x2 + h * b4, y2 + h * b5,
             z2 + h * b6, x3 + h * b7, y3 + h * b8, z3 + h * b9), c)
        e1, e2, e3, e4, e5, e6, e7, e8, e9 = _lorenz_chain_deriv(
            (x1 + dt * g1, y1 + dt * g2, z1 + dt * g3, x2 + dt * g4, y2 + dt * g5,
             z2 + dt * g6, x3 + dt * g7, y3 + dt * g8, z3 + dt * g9), c)
        x1 += w * (a1 + 2 * b1 + 2 * g1 + e1)
        y1 += w * (a2 + 2 * b2 + 2 * g2 + e2)
        z1 += w * (a3 + 2 * b3 + 2 * g3 + e3)
        x2 += w * (a4 + 2 * b4 + 2 * g4 + e4)
        y2 += w * (a5 + 2 * b5 + 2 * g5 + e5)
        z2 += w * (a6 + 2 * b6 + 2 * g6 + e6)
        x3 += w * (a7 + 2 * b7 + 2 * g7 + e7)
        y3 += w * (a8 + 2 * b8 + 2 * g8 + e8)
        z3 += w * (a9 + 2 * b9 + 2 * g9 + e9)
        if i >= 0:  # past the transient: record
            out[i] = x1, x2, x3
    # x1 is the uncoupled driver, so only a large c diverges, in x2 and x3;
    # NaN propagates through both reductions and an infinity is one of them
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise NonFiniteState("Lorenz integration produced non-finite values")
    truth = GroundTruth(
        edges=[(0, 1, 1), (1, 2, 1)],
        description="chain of three diffusively coupled Lorenz systems",
    )
    return MultivariateSeries(data=out, sample_rate=1.0 / LORENZ_DT), truth


@dataclass
class NmmConfig:
    """Population parameters and network settings for the neural mass model.

    All values but n_regions are mandatory; `from_dict` raises ParameterUnset
    when a key is missing or unknown, so a partially specified or misspelled
    file cannot silently fall back to hard-coded numbers. Keys starting with
    "_" are comments and are ignored.
    """

    g_e: float
    g_s: float
    g_f: float
    h_e: float
    h_s: float
    h_f: float
    e0: float
    r: float
    c_pe: float
    c_ps: float
    c_pf: float
    c_ep: float
    c_sp: float
    c_fp: float
    c_fs: float
    c_ff: float
    noise_mean: float
    noise_var: float
    sample_rate: float
    delay_ms: float
    coupling_weight: float
    n_regions: int = 8

    def __post_init__(self):
        # each rule is a comparison that holds, so NaN breaks every rule
        for f in fields(self):
            number(f.name, getattr(self, f.name))
        if not _count(self.n_regions):
            raise ValueError(f"n_regions must be an integer >= 1, got {self.n_regions!r}")
        self.n_regions = int(self.n_regions)  # np.int64(3) becomes 3
        for name in ("h_e", "h_s", "h_f", "e0", "r", "sample_rate", "delay_ms"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")
        if not self.noise_var >= 0:
            raise ValueError(f"noise_var must be non-negative, got {self.noise_var}")
        if abs(self.delay_ms * self.sample_rate / 1000.0 - self.delay_samples) > 1e-9:
            raise ValueError("delay_ms must be an integer multiple of the sample period")

    @property
    def delay_samples(self) -> int:
        return int(round(self.delay_ms * self.sample_rate / 1000.0))

    @classmethod
    def from_dict(cls, d: dict) -> "NmmConfig":
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ParameterUnset(f"missing neural-mass parameters: {', '.join(missing)}")
        known = {f.name for f in fields(cls)}
        unknown = [k for k in d if k not in known and not k.startswith("_")]
        if unknown:
            raise ParameterUnset(f"unknown neural-mass parameters: {', '.join(unknown)}")
        return cls(**{k: v for k, v in d.items() if k in known})

    @classmethod
    def from_json(cls, path: str | Path) -> "NmmConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def reproduction_nmm_config() -> NmmConfig:
    """The reproduction configuration shipped with the package."""
    return NmmConfig.from_json(Path(__file__).parent / "configs" / "nmm_reproduction.json")


def draw_nmm_graph(n_regions: int, k_percent: float, rng: np.random.Generator) -> np.ndarray:
    """Random directed graph with floor(k * n^2 / 100) edges (0/1 matrix).

    Edges are drawn without replacement from all n^2 ordered pairs, so
    self-connections can be drawn; they act as self-coupling in the
    simulation but are not reported as ground-truth edges.
    """
    check("K", k_percent)
    n_edges = int(k_percent * n_regions * n_regions / 100.0)
    adj = np.zeros((n_regions, n_regions), dtype=float)
    # flat index i * n + j is the ordered pair (i, j)
    adj.flat[rng.choice(n_regions * n_regions, size=n_edges, replace=False)] = 1.0
    return adj


# Steps of noise drawn from the generator at a time. Drawing the whole run
# in one block would hold 16 bytes per step and region (6.7 MB for the
# reproduction run); a block of 256 steps holds 32 KB at 8 regions, and
# its Python overhead is one call per 256 steps.
_NOISE_CHUNK = 256


def simulate_nmm(
    cfg: NmmConfig,
    k_percent: float,
    n_samples: int,
    seed: int,
    transient_samples: int = 2000,
    adjacency: np.ndarray | None = None,
) -> tuple[MultivariateSeries, GroundTruth]:
    """Euler integration of a delay-coupled neural mass network.

    The per-region state holds the pyramidal, excitatory, slow-inhibitory and
    fast-inhibitory synaptic pairs plus the auxiliary pair driven by the
    coupling input. The delayed pyramidal pulse density of connected regions
    enters the excitatory input with weight cfg.coupling_weight. Output per
    region is the summed pyramidal membrane potential.

    cfg.delay_ms is the effective source-to-target interaction latency. The
    coupling input passes through the excitatory synaptic kernel, whose
    response peaks 1/h_e after the input arrives, so the transmission buffer
    holds delay_ms minus that rise time; the lag at which the target output
    tracks the source is then delay_ms itself.
    """
    check("T", n_samples)
    check("lead_in", transient_samples)
    rng = np.random.default_rng(seed)
    n = cfg.n_regions
    if adjacency is None:
        adjacency = draw_nmm_graph(n, k_percent, rng)
    elif np.shape(adjacency) != (n, n):
        raise ValueError(
            f"adjacency must have shape (n_regions, n_regions) = ({n}, {n}), "
            f"got {np.shape(adjacency)}"
        )
    w = cfg.coupling_weight * adjacency
    rise_samples = int(round(cfg.sample_rate / cfg.h_e))
    buffer_len = max(cfg.delay_samples - rise_samples, 1)
    dt = 1.0 / cfg.sample_rate
    total = n_samples + transient_samples

    # The state is packed into (5, n) blocks with rows p, e, s, f, l:
    # pyramidal, excitatory, slow- and fast-inhibitory, and the auxiliary
    # pair driven by n_f. Step t works in slot t % buffer_len of per-slot
    # blocks: potentials (4, n), rates (5, n) and inputs (5, n). The slot's
    # rate block still holds the z_p of step t - buffer_len when step t
    # begins, which is the delayed pulse density it couples in, so the
    # rate blocks are the delay buffer. Over a run of steps that stays in
    # one buffer period and one noise block, every coupling input is
    # therefore known before the run starts: one stacked product, one add
    # of n_p and one division by c_pe fill the inputs' e rows for the whole
    # run, and one copy fills their l rows with n_f. Each step then makes
    # 17 ufunc calls (5 potential, 5 rate, 1 drive, 6 Euler), each writing
    # into a preallocated array: drive = rates + inputs is z_e + u_p / c_pe
    # in the e row, 0.0 + n_f in the l row (which keeps 0.0 in its rates)
    # and the rate itself in the others. The product is the stacked
    # np.matmul(w, (L, n, 1)), which runs one matrix-vector product per
    # slot, as w.dot(slot) does; the 2-D forms (Z @ w.T, np.dot, einsum)
    # run as one matrix-matrix product, which sums in another order and
    # differed in the last bit on most random graphs. Every constant operand
    # of the per-step calls has the full shape of the call's output: no
    # broadcast (k, 1) columns and no Python-float operands, since on blocks
    # this small either costs more per call than the arithmetic. Every
    # element goes through the same floating-point operations in the same
    # order as the per-population form
    #     dx = g*h * input - 2*h * x - h**2 * y,  y += dt * x,  x += dt * dx,
    # so the output is bit-identical to it (tests/test_simulate.py keeps that
    # form as the reference).
    kernels = [(cfg.g_e, cfg.h_e), (cfg.g_e, cfg.h_e), (cfg.g_s, cfg.h_s),
               (cfg.g_f, cfg.h_f), (cfg.g_e, cfg.h_e)]
    gain = np.repeat([[g * h] for g, h in kernels], n, axis=-1)
    restoring = np.repeat(
        [[[h**2] for _, h in kernels], [[2.0 * h] for _, h in kernels]], n, axis=-1
    )
    # state = [y, x, dx], so that [y, x] += dt * [x, dx] is the Euler step
    state = np.zeros((3, 5, n))
    y, dx = state[0], state[2]
    y_x, x_dx = state[:2], state[1:]
    # scratch = [h**2 * y, 2*h * x] = restoring * [y, x]
    scratch = np.empty((2, 5, n))
    stiff, damped = scratch
    step = np.full((2, 5, n), dt)
    drive = np.empty((5, n))

    # membrane potentials [v_p, v_e, v_s, v_f]: v_p and v_f each subtract
    # two terms from a third, the terms being the rows (e, s, f) and
    # (p, s, l) of y times their coupling constants
    terms = np.empty((2, 3, n))
    terms_p, terms_f = terms
    first, second, third = terms[:, 0], terms[:, 1], terms[:, 2]
    k_p = np.repeat([[cfg.c_pe], [cfg.c_ps], [cfg.c_pf]], n, axis=-1)
    k_f = np.repeat([[cfg.c_fp], [cfg.c_fs], [cfg.c_ff]], n, axis=-1)
    k_es = np.repeat([[cfg.c_ep], [cfg.c_sp]], n, axis=-1)
    y_esf, y_psl, y_p = y[1:4], y[::2], y[0]

    neg_r, one, two_e0, e0 = (
        np.full((4, n), value) for value in (-cfg.r, 1.0, 2.0 * cfg.e0, cfg.e0)
    )
    noise_std = math.sqrt(cfg.noise_var)
    potentials = np.empty((buffer_len, 4, n))
    # rows z_p, z_e, z_s, z_f and an l row of 0.0; z_p starts at 0.0 too,
    # as the pulse density delivered before any was sent
    rates = np.zeros((buffer_len, 5, n))
    # rows 0.0, u_p / c_pe, 0.0, 0.0, n_f
    inputs = np.zeros((buffer_len, 5, n))
    delayed_z_p, input_e, input_l = rates[:, 0, :, None], inputs[:, 1], inputs[:, 4]
    slots = [
        (potentials[s], potentials[s, ::3], potentials[s, 1:3], rates[s, :4], rates[s], inputs[s])
        for s in range(buffer_len)
    ]
    # out[t] is v_p at the start of step t, which is the output
    # c_pe * y_e - c_ps * y_s - c_pf * y_f of step t - 1
    out = np.empty((total + 1, n))

    for start in range(0, total, _NOISE_CHUNK):
        steps = min(_NOISE_CHUNK, total - start)
        # the same stream as drawing n_p, then n_f, at every step
        noise = rng.standard_normal((steps, 2, n))
        noise *= noise_std
        noise += cfg.noise_mean
        t = start
        while t < start + steps:
            first_slot = t % buffer_len
            length = min(buffer_len - first_slot, start + steps - t)
            run = slice(first_slot, first_slot + length)
            n_p, n_f = noise[t - start : t - start + length].transpose(1, 0, 2)
            np.matmul(w, delayed_z_p[run], input_e[run, :, None])
            np.add(n_p, input_e[run], input_e[run])
            np.divide(input_e[run], cfg.c_pe, input_e[run])
            input_l[run] = n_f
            for potential, v_pf, v_es, rate, slot_rates, slot_inputs in slots[run]:
                np.multiply(k_p, y_esf, terms_p)
                np.multiply(k_f, y_psl, terms_f)
                np.subtract(first, second, v_pf)
                np.subtract(v_pf, third, v_pf)
                np.multiply(k_es, y_p, v_es)

                # rate = 2 * e0 / (1 + exp(-r * potential)) - e0
                np.multiply(neg_r, potential, rate)
                np.exp(rate, rate)
                np.add(one, rate, rate)
                np.divide(two_e0, rate, rate)
                np.subtract(rate, e0, rate)

                np.add(slot_rates, slot_inputs, drive)
                np.multiply(gain, drive, dx)
                np.multiply(restoring, y_x, scratch)
                np.subtract(dx, damped, dx)
                np.subtract(dx, stiff, dx)
                np.multiply(step, x_dx, scratch)
                np.add(y_x, scratch, y_x)
            out[t : t + length] = potentials[run, 0]
            t += length
        if not np.isfinite(out[start : start + steps]).all():
            raise NonFiniteState("neural mass integration diverged")

    out[total] = cfg.c_pe * y[1] - cfg.c_ps * y[2] - cfg.c_pf * y[3]
    if not np.isfinite(out[total]).all():
        raise NonFiniteState("neural mass integration diverged")

    data = out[transient_samples + 1 :]
    truth = GroundTruth(
        edges=[
            (j, i, cfg.delay_samples)
            for i in range(n)
            for j in range(n)
            if adjacency[i, j] > 0 and i != j
        ],
        description="delay-coupled neural mass network",
    )
    return MultivariateSeries(data=data, sample_rate=cfg.sample_rate), truth


def add_observation_noise(
    series: MultivariateSeries, beta: float, seed: int
) -> MultivariateSeries:
    """Additive Gaussian noise scaled per channel by beta times its std."""
    check("NL", beta)
    if beta == 0:
        return replace(series, data=series.data.copy())
    rng = np.random.default_rng(seed)
    stds = series.data.std(axis=0)
    noise = rng.standard_normal(series.data.shape)
    noise *= beta * stds
    noise += series.data
    return replace(series, data=noise)
