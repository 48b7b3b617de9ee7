"""The machine's speed, sampled while a unit runs, so that unit times can be
given at one reference speed.

The machine this benchmark was built on changes speed by up to ±25% over
seconds to minutes (shared host), so a raw wall time of the same unit can
differ by a quarter from one run to the next.  ``Speedometer`` runs a fixed
``kernel`` from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds while the
unit runs, in the same process and on the same CPU, and records how long
each run of it took.  A unit time divided by the kernel's mean time and
multiplied by ``REFERENCE_S`` is the unit time at the speed where the kernel
takes ``REFERENCE_S``: the machine's drift cancels, the program's own cost
does not.  The kernel's own time is taken out of the unit's time.

The kernel is code of this benchmark, not of the program, so no change to
the program changes it.  It is shaped like the program's inner loops:
explicit Euler steps of the Van der Pol field, once on a 16-point numpy
batch (as ``batch_first_return`` steps the η sweep) and once on one point
in Python floats (as the scalar ``simulate`` path and ``synchronize``
step).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# kernel seconds at the reference speed: a fixed constant, a little below
# the kernel's usual mean (3.6-4.3 ms) on the machine the benchmark was
# built on, so scaled times read lower than measured ones
REFERENCE_S = 0.003
INTERVAL_S = 0.1
WARMUP = 5
MIN_SAMPLES = 20

_BATCH = np.stack(
    (np.linspace(1.7, 2.1, 16), np.linspace(-0.7, -0.4, 16))
)


def kernel():
    """Fixed work: 250 batched and 5000 scalar Euler steps."""
    y = _BATCH
    for _ in range(250):
        u, v = y
        y = y + 1e-4 * np.stack((v, 0.3 * (1.0 - u * u) * v - u))
    u, v = 1.8929, -0.5383
    for _ in range(5000):
        u, v = u + 1e-4 * v, v + 1e-4 * (0.3 * (1.0 - u * u) * v - u)
    return y, u, v


def kernel_mean(count):
    """Mean wall seconds of ``count`` kernels, after a warm-up."""
    for _ in range(WARMUP):
        kernel()
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


class Speedometer:
    """Samples the kernel's time while the ``with`` block runs."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self._old = None

    def _sample(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    def __enter__(self):
        for _ in range(WARMUP):
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, wall, cpu):
        """``wall`` and ``cpu`` seconds of the block, without the kernel's
        own time in it, at the reference speed.  Call once, after the
        block; a block too short for ``MIN_SAMPLES`` samples is topped up
        with samples taken after it."""
        inside_wall, inside_cpu = sum(self.wall), sum(self.cpu)
        while len(self.wall) < MIN_SAMPLES:
            self._sample()
        kw, kc = statistics.fmean(self.wall), statistics.fmean(self.cpu)
        return (
            (wall - inside_wall) * REFERENCE_S / kw,
            (cpu - inside_cpu) * REFERENCE_S / kc,
        )
