"""Machine-speed calibration for the benchmark's time metrics.

On a shared virtual machine the same code can run at half or full speed
minutes apart (measured: one n = 3000 generation took 0.29 to 0.63 s over
four minutes of back-to-back runs), far more than the differences the
benchmark has to resolve. A fixed kernel timed in small slices alongside
the measured code tracks that speed: over the same four minutes, the ratio
of generation time to adjacent kernel time had a quartile spread of 5%
across 20-sample windows, where generation time alone had 38%.

The kernel mixes what spagraph's hot loops do: dict stores, keyed BLAKE2b
digests and tiny numpy operations. It is part of the benchmark, not of the
program, so a change to spagraph cannot move it. Every reported time is
multiplied by REFERENCE_SLICE_S / (mean slice time measured with it), i.e.
expressed in seconds at the reference speed.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time

import numpy as np

# One slice of the kernel at the reference speed: its median on a 2-vCPU
# Intel Xeon (2.1 GHz) virtual machine, Python 3.11, numpy 2.4.
REFERENCE_SLICE_S = 0.0035
_SLICE_ITERATIONS = 1000
INTERVAL_S = 0.1


def _slice() -> float:
    """Run one kernel slice; return its wall time in seconds."""
    start = time.perf_counter()
    table = {}
    x = np.zeros(3)
    for i in range(_SLICE_ITERATIONS):
        table[i * 7919 % 10007] = hashlib.blake2b(i.to_bytes(8, "little"), digest_size=8).digest()
        x = np.minimum(x + 1.0, 5.0)
    return time.perf_counter() - start


def sample(slices: int = 8) -> list[float]:
    """Times of a few back-to-back slices."""
    return [_slice() for _ in range(slices)]


def speed_factor(slice_times: list[float]) -> float:
    """Multiplier that rescales a time measured alongside these slices."""
    return REFERENCE_SLICE_S / statistics.fmean(slice_times)


class SpeedSampler:
    """Times one kernel slice every INTERVAL_S of wall time while active.

    Slices run from a SIGALRM handler in the measured process itself, so
    they sample the speed the measured code sees, spread evenly over the
    measured phase. `paused_s` is the time they took, which the caller
    subtracts from its measurement. One slice also runs on entry and one on
    exit, so even a short phase has samples.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.paused_s = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.slices.append(_slice())
        self.paused_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @property
    def factor(self) -> float:
        return speed_factor(self.slices)
