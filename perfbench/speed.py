"""The machine's speed, sampled while the benchmark measures.

The benchmark runs on a shared machine whose speed drifts by +-25% over
seconds to minutes. A fixed reference kernel, timed beside an operation,
slows down with it: on a 2-vCPU cloud VM the ratio of the two stayed
within about 5%. So the harness reports times scaled to reference speed,
the speed of a machine on which the kernel takes REFERENCE_S. The kernel
does not call optiqft, so a change to the library moves a scaled time as
it moves wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: Reported times are scaled to a machine on which the reference kernel
#: takes this long; it is about the kernel's median on a shared 2-vCPU
#: cloud VM with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.010
#: Wall time between two samples of the kernel during a run.
INTERVAL_S = 0.25
#: A stretch of operation time is scaled by the median of this many
#: samples nearest to it.
NEAREST = 3

_U = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 1j * np.eye(3))[0]
_GRID = np.linspace(0.0, 2.0 * np.pi, 2048)


def reference_time() -> float:
    """Wall time of a fixed kernel of the same kind of work as the
    workloads: an interpreted loop of 3x3 complex matrix products, then
    vectorised cosines on a 2048-point grid."""
    start = time.perf_counter()
    m = np.eye(3, dtype=complex)
    for _ in range(2000):
        m = _U @ m
    acc = float(np.abs(m).sum())
    for k in range(60):
        acc += float(np.cos(_GRID * k + acc).sum())
    return time.perf_counter() - start


def reference_median(repeats: int) -> float:
    return statistics.median(reference_time() for _ in range(repeats))


class Sampler:
    """Times the reference kernel every INTERVAL_S of wall time, from a
    SIGALRM handler, so that samples fall inside the operations they scale,
    even those that take seconds. Use as a context manager; it also
    samples once on entry and once on exit."""

    def __init__(self):
        #: (start, end) of each run of the kernel, in perf_counter time
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_time()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def reference_times(self) -> list[float]:
        return [end - start for start, end in self.samples]

    def scaled(self, start: float, end: float) -> float:
        """Time spent in [start, end] outside the sampler's own runs, at
        reference speed: each stretch between two samples is scaled by
        REFERENCE_S over the median kernel time of the NEAREST samples."""
        mids = [0.5 * (a + b) for a, b in self.samples]
        refs = self.reference_times()
        cuts = [start]
        for a, b in self.samples:
            if start <= a and b <= end:
                cuts += [a, b]
        cuts.append(end)
        total = 0.0
        for p, q in zip(cuts[::2], cuts[1::2]):
            i = bisect.bisect(mids, 0.5 * (p + q))
            lo = max(0, min(i - NEAREST // 2, len(refs) - NEAREST))
            total += (q - p) * REFERENCE_S / statistics.median(
                refs[lo:lo + NEAREST])
        return total
