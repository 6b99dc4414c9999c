"""Machine-speed calibration for timings on a shared, noisy host.

On the 2-vCPU machine this benchmark was built on, the same call on the same
input takes anywhere from 1x to 2x its fastest time, in phases that last
from seconds to minutes and hit every process alike.  Each timed operation
is therefore bracketed by runs of a short fixed kernel (numpy/scipy/Python
only, no pencilid code), and its time is reported scaled by
``KERNEL_REF_S / kernel time``: seconds at the reference speed.  Over 30 s
windows of one repeated input this cut the spread (IQR / median) of
per-method median latencies from 0.20-0.47 to 0.04-0.11.  Raw wall-clock
times are kept beside the calibrated ones.

The kernel's functions are bound here at import, before any tracer rebinds
the linear-algebra entry points, so it never shows up in a trace.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np
import scipy.linalg

# Kernel time on the reference machine (Intel Xeon, 2 vCPU, one BLAS thread)
# in its fast phase.  Calibrated seconds equal wall seconds at that speed.
KERNEL_REF_S = 0.030

_cho_factor = scipy.linalg.cho_factor
_svd = np.linalg.svd
_clock = time.perf_counter


@functools.lru_cache(maxsize=None)
def _inputs() -> dict:
    """Fixed kernel inputs, built once; the first kernel run pays one-time
    library set-up."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((700, 700))
    x = {"spd": a @ a.T + 700.0 * np.eye(700),
         "square": rng.standard_normal((250, 250)),
         "points": np.exp(1j * np.linspace(0.1, 3.0, 200)),
         "values": rng.standard_normal(200) + 1j * rng.standard_normal(200)}
    _body(x)
    return x


def _body(x: dict) -> None:
    _cho_factor(x["spd"])
    _svd(x["square"])
    values, points = x["values"], x["points"]
    out = np.empty((100, 100), dtype=complex)
    for i in range(100):
        for j in range(100):
            out[i:i + 1, j:j + 1] = ((values[i] - values[100 + j])
                                     / (points[i] - points[100 + j]))


def kernel() -> float:
    """Seconds for one run of the fixed kernel: a Cholesky factorization,
    an SVD and a Python double loop over small complex numpy operations,
    the three kinds of work the workloads spend their time in."""
    x = _inputs()
    t0 = _clock()
    _body(x)
    return _clock() - t0


class Timing:
    """One timed operation: wall seconds, and calibrated seconds once the
    stopwatch that took it has finished."""

    __slots__ = ("raw", "cal", "kernel_before")

    def __init__(self):
        self.raw = self.cal = self.kernel_before = 0.0


class Stopwatch:
    """Times operations; each is scaled by the mean of the kernel times just
    before and just after it (the next operation's "before")."""

    def __init__(self):
        self.timings: list[Timing] = []

    @contextlib.contextmanager
    def measure(self):
        """``with sw.measure() as t:`` records the body's time in ``t``,
        also when the body raises."""
        t = Timing()
        t.kernel_before = kernel()
        t0 = _clock()
        try:
            yield t
        finally:
            t.raw = _clock() - t0
            self.timings.append(t)

    def finish(self) -> None:
        """Run the closing kernel and fill in every ``Timing.cal``."""
        after = kernel()
        for t in reversed(self.timings):
            t.cal = t.raw * KERNEL_REF_S / (0.5 * (t.kernel_before + after))
            after = t.kernel_before

    @property
    def raw_s(self) -> float:
        return sum(t.raw for t in self.timings)

    @property
    def cal_s(self) -> float:
        return sum(t.cal for t in self.timings)
