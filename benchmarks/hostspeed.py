"""Host speed, sampled while the untraced units run.

The benchmark's host is a virtual machine whose CPU it shares: the same
work takes up to twice as long from one tenth of a second to the next, and
the mix of fast and slow spells drifts over minutes. `HostSpeed` measures
that drift so the benchmark can take it out. While active, an interval
timer interrupts the process every INTERVAL_S of wall time and times a
fixed reference kernel (small NumPy operations driven from Python, the same
kind of work the motion prior does). `factors(starts, ends)` then gives,
for each stretch of time, REFERENCE_MS over the mean kernel time sampled in
it: multiplying a timing taken in that stretch by it gives the timing on a
host where the kernel takes REFERENCE_MS.

The kernel is part of the benchmark, not of motionprior, so a change to the
program does not change it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
# A stretch is widened by this much on each side, so that it holds a few
# samples even when it is shorter than INTERVAL_S; the host's spells of one
# speed last 0.1 s or more.
PAD_S = 0.04
# The kernel's typical time on the 2-vCPU machine the benchmark was tuned
# on (Python 3.11.7, NumPy 2.4.6); only the scale of corrected timings
# depends on it.
REFERENCE_MS = 0.4
_KERNEL_STEPS = 3


def _kernel_inputs():
    rng = np.random.Generator(np.random.PCG64(7))
    a = rng.normal(size=(273, 3))
    b = rng.normal(size=(273, 3))
    return (a / np.linalg.norm(a, axis=1, keepdims=True),
            b / np.linalg.norm(b, axis=1, keepdims=True))


def kernel(bearings, others):
    """Rotate bearings, form epipolar-plane normals and sum a robust loss
    of the angles; a few dozen small NumPy calls."""
    total = 0.0
    for i in range(_KERNEL_STEPS):
        c, s = np.cos(0.01 * i), np.sin(0.01 * i)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        normals = np.cross(bearings @ rotation.T, np.array([1.0, 0.01, 0.0]))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        angles = np.arcsin(np.clip(np.sum(normals * others, axis=1), -1, 1))
        total += float(np.sum(np.log1p((angles / 0.0065) ** 2)))
    return total


class HostSpeed:
    """Samples the kernel's time every INTERVAL_S while inside `with`,
    keeping every sample's start and duration (perf_counter seconds)."""

    def __init__(self):
        self._inputs = _kernel_inputs()
        kernel(*self._inputs)           # NumPy's first calls load code
        self._starts = []
        self._durations = []
        self._previous = None

    def _sample(self, signum, frame):
        began = time.perf_counter()
        kernel(*self._inputs)
        self._starts.append(began)
        self._durations.append(time.perf_counter() - began)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def samples(self):
        return len(self._starts)

    def factors(self, starts, ends):
        """REFERENCE_MS over the mean kernel time of the samples taken
        from `starts - PAD_S` to `ends + PAD_S`, one per stretch; over all
        samples for a stretch without one."""
        if not self._starts:
            raise ValueError("no host speed sample taken yet")
        times = np.asarray(self._starts)
        cumulative = np.concatenate([[0.0], np.cumsum(self._durations)])
        lo = np.searchsorted(times, np.asarray(starts) - PAD_S)
        hi = np.searchsorted(times, np.asarray(ends) + PAD_S)
        counts = hi - lo
        mean_s = np.where(counts > 0,
                          (cumulative[hi] - cumulative[lo])
                          / np.maximum(counts, 1),
                          cumulative[-1] / len(times))
        return REFERENCE_MS / (mean_s * 1e3)
