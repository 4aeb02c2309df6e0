"""Scale timings to a fixed host speed.

The benchmark runs on a vCPU of a shared host. Each vCPU switches, on its
own and within seconds, between a fast and a slow speed as other tenants
come and go: interpreter work runs about 1.8x slower in the slow state and
numpy array work about 1.3-1.5x slower. A wall time alone then measures the
neighbours as much as the program.

:class:`Pace` runs a fixed reference kernel beside the timed work: once
before it, once after it, and, given an interval, every ``interval``
seconds during it from a ``SIGALRM`` handler in the same thread, so on the
same vCPU. The kernel is one of :data:`KERNELS`, chosen to slow down as the
timed work does: ``interpreter`` for work bound by the Python interpreter,
``numpy-calls`` for many numpy calls on small arrays, and ``numpy-arrays``
for numpy calls on arrays of a few thousand elements or more. (Each was
chosen per workload as the one whose samples, on this kind of host, best
cancelled the workload's own slowdowns.) :attr:`Pace.scaled_s` removes the
kernel's own time from the timed interval and rescales the rest to a vCPU
that runs the kernel in its :data:`REFERENCE_S`:

    scaled_s = (wall - kernel time inside wall) * REFERENCE_S * mean(1 / kernel time)

Samples are evenly spaced in wall time, so ``mean(1 / kernel time)`` is the
vCPU's average speed over the interval. The kernels share no code with
batchfrag, so a faster or slower program moves the scaled time exactly as
much as the wall time.
"""

from __future__ import annotations

import signal
from functools import partial
from time import perf_counter

import numpy as np

_LOOPS = 4000


def interpreter_kernel() -> int:
    """Fixed interpreter work: arithmetic, a dict and calls."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(_LOOPS):
        key = i & 63
        counts[key] = counts.get(key, 0) + 1
        total += abs(i * 3 - key) % 7
    return total + len(counts)


def numpy_kernel(words: np.ndarray, passes: int) -> int:
    """Fixed numpy work in the Monte Carlo kernel's mix: mix 64-bit words,
    turn them into floats, compare, take a prefix sum and gather."""
    total = 0
    for _ in range(passes):
        x = words ^ (words >> np.uint64(31))
        x *= np.uint64(0xBF58476D1CE4E5B9)
        u = (x >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        total += int(np.cumsum(u < 0.3)[::7].sum())
    return total


def _words(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


KERNELS = {
    "interpreter": interpreter_kernel,
    "numpy-calls": partial(numpy_kernel, _words(1_000), 20),
    "numpy-arrays": partial(numpy_kernel, _words(5_000), 6),
}
# Time of one kernel on a 2.1 GHz Xeon vCPU in its fast state.
REFERENCE_S = {"interpreter": 0.00058, "numpy-calls": 0.00031,
               "numpy-arrays": 0.00028}


class Pace:
    """Times the body of a ``with`` block into ``wall``, with reference-kernel
    samples taken before and after it and, given an interval, during it."""

    def __init__(self, kernel: str, interval: float | None = None):
        self._kernel = KERNELS[kernel]
        self.reference_s = REFERENCE_S[kernel]
        self.interval = interval
        self.samples: list[float] = []
        self.inside_s = 0.0   # kernel time that fell inside ``wall``
        self.wall = 0.0
        self._saved = None
        self._t0 = 0.0

    def _sample(self) -> float:
        t0 = perf_counter()
        self._kernel()
        took = perf_counter() - t0
        self.samples.append(took)
        return took

    def _tick(self, signum, frame):
        self.inside_s += self._sample()

    def __enter__(self):
        self._sample()
        if self.interval:
            self._saved = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = perf_counter()
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            # Stopped before the clock is read, so every tick is inside wall.
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = perf_counter() - self._t0
        if self.interval:
            signal.signal(signal.SIGALRM, self._saved)
        self._sample()
        return False

    @property
    def work_s(self) -> float:
        """``wall`` without the reference kernels run inside it."""
        return self.wall - self.inside_s

    @property
    def scaled_s(self) -> float:
        """``work_s`` at the reference speed."""
        speed = sum(1.0 / s for s in self.samples) / len(self.samples)
        return self.work_s * self.reference_s * speed
