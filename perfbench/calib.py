"""Speed probe: scales wall times to a reference processor speed.

On a shared machine the same work can take 0.18 s in one minute and 0.30 s
in the next, switching within a second between a fast and a slow state,
with process CPU time moving in step. Wall times alone then drift far
beyond a regression bound, and a reading taken between two long items says
little about the speed during them.

So while a timed call runs, a SIGALRM timer interrupts it every INTERVAL_S
and runs a short kernel shaped like opcausal's hot loops (a map iterated
on small numpy arrays, a joint histogram and its entropy); of the kernels
tried it slowed down most nearly as much as the workloads do. A call's time
is its wall time minus the time spent in the kernel, scaled by
REF_S / (mean kernel time during the call): seconds on a processor on which
the kernel takes REF_S.

The kernel shares no code with opcausal, but it runs in opcausal's process,
core and cache, so the program can change its reading. calib_check.py
compares the readings during 2-thread BLAS products on a 17 MB operand with
those during single-thread numpy loops in the same period: the kernel read
7% (long calls) to 16% (short calls) slower during the BLAS products, with
1 or 2 BLAS threads alike, mostly because the products evict its arrays
from cache. A program that moves work into BLAS may thus be credited with
up to about a seventh more gain than it has, so any claimed gain must also
hold on the wall times, which the run prints next to the scaled ones.
Warming the kernel's cache before each reading removed most of that bias,
but then the kernel no longer slowed down with the memory-bound ce_tensor:
on wide_infer, per-item scaled times spread 0.11 of their median instead
of 0.06.
"""

from __future__ import annotations

import marshal
import os
import signal
import statistics
import time

import numpy as np

# Typical kernel times on the 2-core Intel Xeon this benchmark was sized on.
REF_S = 0.0011
INTERVAL_S = 0.05
IMPORT_REF_S = 0.001
IMPORT_INTERVAL_S = 0.01

_NOISE = np.random.default_rng(0).standard_normal((60, 9)) * 0.4
_CODES = np.random.default_rng(1).integers(0, 36, 20_000)


def kernel_s() -> float:
    """Run the kernel once and return its wall time."""
    start = time.perf_counter()
    # a nonlinear map iterated row by row on small arrays, as the simulators do
    x = _NOISE.copy()
    for t in range(2, len(x)):
        prev = x[t - 1]
        row = 3.4 * prev * (1.0 - prev * prev) * np.exp(-prev * prev) + _NOISE[t]
        row[0] += 0.5 * x[t - 2, 1]
        x[t] = np.clip(row, -2.0, 2.0)
    # a joint histogram and its entropy, as the estimators do
    counts = np.bincount(_CODES[:-5] * 36 + _CODES[5:], minlength=1296)
    p = counts[counts > 0] / counts.sum()
    float(-(p * np.log2(p)).sum())
    return time.perf_counter() - start


# a synthetic module: functions, classes and a constant table
_MODULE = marshal.dumps(
    compile(
        "\n".join(
            [f"def f{i}(x, y={i}):\n    return [x * y, {{'k{i}': x}}, 'v{i}']\n" for i in range(30)]
            + [f"class C{i}:\n    a = {i}\n    def m(self):\n        return self.a\n" for i in range(10)]
            + ["TABLE = {" + ", ".join(f"'n{i}': ({i}, {i}.5, 'x{i}')" for i in range(60)) + "}"]
        ),
        "<probe>",
        "exec",
    )
)


def import_kernel_s() -> float:
    """Run a kernel shaped like a module import once and return its wall time.

    An import stats and reads files, then unmarshals and runs module code,
    work that slows down unlike numpy loops on this machine: timed with
    kernel_s, medians of nine imports spread 0.10 of their median over
    three minutes; timed with this kernel every IMPORT_INTERVAL_S, 0.07.
    A first, untimed run brings the kernel back into cache, so that its
    time does not depend on what the import evicted.
    """
    exec(marshal.loads(_MODULE), {"__name__": "probe"})
    start = time.perf_counter()
    for _ in range(4):
        exec(marshal.loads(_MODULE), {"__name__": "probe"})
        os.stat(os.__file__)
    return time.perf_counter() - start


class Clock:
    """Times calls in reference seconds; see the module docstring.

    on_sample(start, end), when given, is told of every kernel run.
    """

    def __init__(self, on_sample=None, kernel=kernel_s, ref_s=REF_S, interval_s=INTERVAL_S):
        self.readings: list[float] = []
        self._in_kernel = 0.0
        self._on_sample = on_sample
        self._kernel = kernel
        self._ref_s = ref_s
        self._interval_s = interval_s

    def _sample(self, *_):
        start = time.perf_counter()
        reading = self._kernel()
        end = time.perf_counter()
        self.readings.append(reading)
        self._in_kernel += end - start
        if self._on_sample is not None:
            self._on_sample(start, end)

    def time(self, fn, *args):
        """Return (fn's result, wall seconds net of the kernel, scale).

        The scale turns those wall seconds into reference seconds. One
        reading right after the call gives short calls a scale too.
        """
        first = len(self.readings)
        in_kernel = self._in_kernel
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        wall = end - start - (self._in_kernel - in_kernel)
        self._sample()
        scale = self._ref_s / statistics.fmean(self.readings[first:])
        return result, wall, scale


def import_clock() -> Clock:
    """A Clock for timing an import, probed by import_kernel_s."""
    return Clock(kernel=import_kernel_s, ref_s=IMPORT_REF_S, interval_s=IMPORT_INTERVAL_S)
