"""Host-speed calibration, interleaved with the measured sweeps.

The benchmark runs on shared hosts whose speed drifts by tens of percent
for seconds to minutes at a time.  CPU time tracks wall time, so the drift is
the hardware running slower, not the process waiting.  To measure the program
rather than the host, a run interleaves calibration slices with its sweeps:
a fixed piece of work that uses the same kinds of resources as a rissim
trial (interpreter, numpy dispatch, small LAPACK calls, an L2-sized matrix
product) and never touches rissim.  A slice runs before and after every
sweep.  After any trial that ends at least ``EVERY_S`` after the previous
slice comes a burst of slices lasting about ``SHARE`` of the time since, so
a long trial is followed by a long burst.  Each burst first runs the work
once untimed: right after the program, the work is slower by a cold-cache
margin that depends on what the program did, and that margin is not the
host's speed.

The host's speed switches between a few levels about once a second.  Its
slowness over a stretch of program time is the mean duration of the slices
within ``WINDOW_S`` of the stretch's ends (or within the stretch's own
length, if that is longer) over ``REF_SLICE_S``.  Dividing the stretch's
duration by it gives the duration at the reference speed.  The calibration
work never changes, so a change to rissim moves the speed-adjusted figures
by the same ratio as the figures as measured.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Typical duration in seconds of one warm slice on the host the benchmark
# was built on (2 vCPUs of a shared Intel Xeon, one BLAS thread): the
# reference speed.
REF_SLICE_S = 0.0035
# Slices run after a trial once this many seconds passed since the last one,
EVERY_S = 0.1
# for about this share of the time since, in at most MAX_BURST slices.
SHARE = 0.08
MAX_BURST = 200
# A stretch of program time is timed against the slices this close to its
# ends (or as close as it is long), and at least the one slice on each side.
WINDOW_S = 1.0
# Slices run before the first timed one, to warm the caches and the allocator.
WARMUP_SLICES = 5

_rng = np.random.default_rng(20221123)
_SMALL = _rng.standard_normal((64, 64))
_HERM = _SMALL @ _SMALL.T
_TALL = _rng.standard_normal((64, 8)) + 1j * _rng.standard_normal((64, 8))
_TILE = _SMALL[:8, :8]
_MID = _rng.standard_normal((192, 192))


def _work() -> float:
    """The fixed calibration work; returns a value so nothing is skipped."""
    acc = 0
    for i in range(5000):
        acc += i * i
    total = float(acc & 0xFF)
    for _ in range(4):
        total += float(np.linalg.eigh(_HERM)[0][0])
        total += float(np.linalg.svd(_TALL, compute_uv=False)[0])
    for _ in range(100):
        total += float(np.exp(1j * _TILE).sum().real) + float(np.abs(_TALL).max())
    for _ in range(2):
        total += float((_MID @ _MID)[0, 0])
    return total


class Calibrator:
    """Calibration slices of one run and the speed adjustment they give."""

    def __init__(self, ref_s: float = REF_SLICE_S, every_s: float = EVERY_S):
        self.ref_s = ref_s
        self.every_s = every_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []

    def warm_up(self) -> None:
        for _ in range(WARMUP_SLICES):
            _work()

    def slice(self, n: int = 1) -> float:
        """Warm up, then run ``n`` timed slices; returns the time the last ended."""
        start = time.perf_counter()
        _work()
        for _ in range(n):
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
            self.record(start, t1, t1 - t0)
            start = t1
        return t1

    def record(self, start: float, end: float, duration: float | None = None) -> None:
        """A slice that kept the program off the CPU over ``[start, end]``.

        ``duration`` is its timed part, ``end - start`` by default.
        """
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start if duration is None else duration)

    def catch_up(self) -> None:
        """After a trial: a burst of slices if ``every_s`` passed since the last one."""
        gap = time.perf_counter() - self.ends[-1]
        if gap < self.every_s:
            return
        self.slice(min(MAX_BURST, max(1, round(SHARE * gap / self.ref_s))))

    def gap_factor(self, i: int) -> float:
        """Host slowness over the gap after slice ``i``, 1.0 at the reference speed."""
        gap_end = self.starts[i + 1] if i + 1 < len(self.starts) else self.ends[i]
        window = max(WINDOW_S, gap_end - self.ends[i])
        lo = min(i, bisect_left(self.ends, self.ends[i] - window))
        hi = max(i + 2, bisect_right(self.starts, gap_end + window))
        return statistics.fmean(self.durations[lo:hi]) / self.ref_s

    def factor_at(self, t: float) -> float:
        """Host slowness at time ``t``, which lies after the first slice."""
        return self.gap_factor(max(0, bisect_right(self.ends, t) - 1))

    def adjusted(self, t0: float, t1: float) -> float:
        """Program seconds in ``[t0, t1]``, slices excluded, at reference speed."""
        total = 0.0
        for i in range(max(0, bisect_right(self.ends, t0) - 1), len(self.ends)):
            gap_end = self.starts[i + 1] if i + 1 < len(self.starts) else t1
            lo, hi = max(self.ends[i], t0), min(gap_end, t1)
            if hi > lo:
                total += (hi - lo) / self.gap_factor(i)
            if gap_end >= t1:
                break
        return total

    def raw(self, t0: float, t1: float) -> float:
        """Program seconds in ``[t0, t1]``, slices excluded, as measured."""
        inside = sum(max(0.0, min(e, t1) - max(s, t0))
                     for s, e in zip(self.starts, self.ends))
        return (t1 - t0) - inside
