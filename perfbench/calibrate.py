"""Reference clock: timed intervals converted to a fixed machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over seconds to minutes, and whole runs differ by that much, so raw
times of the same code spread past any useful regression bound.  While an
untraced phase runs, SIGALRM interrupts it every PERIOD_S seconds and the
handler times a fixed calibration kernel: small objects, tuples and dicts
in the interpreter, and numpy on tiny arrays, the mix the workloads spend
their time on, without thetanulls.  A kernel time d, taken as the median
with its two neighbours so that one interrupted sample does not count,
says the machine ran at REFERENCE_S / d of reference speed at that moment.

`Sampler.reference(t)` maps a `time.perf_counter()` stamp to reference
seconds: between two samples the reference clock advances at the mean of
their two speeds, before the first and after the last sample at that
sample's speed, and it stands still while the kernel runs.  The reference
length of an interval [s, e] is reference(e) - reference(s): its raw length
without the kernel time inside it, scaled to a machine on which the kernel
takes REFERENCE_S.  The handler adds about 2-3% to raw times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# the kernel's time at reference speed: its typical time when it interrupts
# a workload on a 2-vCPU shared cloud sandbox (Python 3.11, numpy 2), so
# reference and raw times of a run on such a machine are close
REFERENCE_S = 1.0e-3

_AXIS = np.arange(-6.0, 7.0)
_clock = time.perf_counter


class _Cell:
    __slots__ = ("g", "bits")

    def __init__(self, g: int, bits: int) -> None:
        self.g = g
        self.bits = bits


def kernel() -> int:
    total = 0
    seen: dict = {}
    for i in range(500):
        cell = _Cell(3, (i * 2654435761) & 63)
        key = (cell.g, cell.bits)
        seen[key] = (seen.get(key, 0)
                     + (cell.bits & (cell.bits >> 3)).bit_count())
    total += sum(sorted(seen.values()))
    for _ in range(8):
        x = np.stack(np.meshgrid(_AXIS, _AXIS, indexing="ij"), -1)
        x = x.reshape(-1, 2)
        total += int(np.exp(1j * np.einsum("ij,ij->i", x, x)).real.sum())
    return total


class Sampler:
    """Context manager that samples machine speed while it is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # kernel start stamps
        self.ends: list[float] = []  # kernel end stamps
        self._busy = False
        self._previous = None
        self._took: list[float] = []  # smoothed kernel times
        self._marks: list[float] = []  # reference time at each start

    def _sample(self, *_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = _clock()
        kernel()
        self.ends.append(_clock())
        self.starts.append(start)
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        took = [e - s for s, e in zip(self.starts, self.ends)]
        self._took = [statistics.median(took[max(0, i - 1):i + 2])
                      for i in range(len(took))]
        marks = [0.0]
        for i in range(1, len(self.starts)):
            marks.append(marks[-1] + (self.starts[i] - self.ends[i - 1])
                         * (self._speed(i - 1) + self._speed(i)) / 2)
        self._marks = marks

    def _speed(self, i: int) -> float:
        return REFERENCE_S / self._took[i]

    def reference(self, t: float) -> float:
        """Reference seconds at raw stamp t (outside any kernel run)."""
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self._speed(0)
        if i == len(self.starts) - 1:
            return self._marks[i] + (t - self.ends[i]) * self._speed(i)
        gap = self.starts[i + 1] - self.ends[i]
        if gap <= 0:
            return self._marks[i]
        share = min(1.0, max(0.0, (t - self.ends[i]) / gap))
        return self._marks[i] + share * (self._marks[i + 1] - self._marks[i])

    def length(self, start: float, end: float) -> float:
        return self.reference(end) - self.reference(start)
