"""Machine-speed calibration: report host time at a reference speed.

The dev box is a 2-vCPU microVM on a shared host.  With nothing else
running inside it, the same pass takes 0.9x to 1.5x its usual time
depending on what the neighbours are doing, in phases that last tens of
seconds: ten 10-second runs of one workload had an inter-quartile
spread of 20-28 % of their median, which no regression bound survives.
Medians, minima and longer passes do not help, because a whole run fits
inside one slow phase.

So while anything is timed, a fixed pure-Python kernel that shares
nothing with the program under test is run every 100 ms (:class:`Meter`).
How much slower than :data:`REFERENCE` the kernel ran during an operation
is the machine's slowdown there, and the operation's host time is
divided by it.  All host times the benchmark reports are therefore "seconds on
the undisturbed dev box"; the raw seconds and the slowdown are reported
beside them (``bench.raw_wall_s``, ``bench.machine_slowdown``).  On
recorded noise traces this cut the run-to-run spread from 22 % to 3-5 %.

The kernel has two halves because interference does not slow all code
alike: a tight arithmetic loop under-reacts and an allocation-heavy loop
over-reacts compared with the simulator, while their average tracks it.
Simulated cycles are never scaled — they do not depend on the host.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time
from typing import List, Tuple

#: seconds each kernel half takes on the undisturbed dev box
#: (Xeon 2.1 GHz microVM, CPython 3.11): the speed all times are
#: reported at
REFERENCE = (0.0043, 0.00185)


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self):
        self.value = 0.0
        self.count = 0


def _lookup(cell: _Cell, table: dict, key: int) -> float:
    cell.count += 1
    got = table.get(key)
    if got is None:
        table[key] = got = (key, cell.count)
    return got[0] * 0.5


def kernel() -> float:
    """One calibration sample: the current slowdown (1.0 = reference)."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    middle = time.perf_counter()
    cell, table, kept = _Cell(), {}, []
    for i in range(12_000):
        cell.value += _lookup(cell, table, i & 255)
        if i & 7 == 0:
            kept.append((i, cell.value))
            if len(kept) > 64:
                kept.clear()
    ended = time.perf_counter()
    return 0.5 * ((middle - started) / REFERENCE[0]
                  + (ended - middle) / REFERENCE[1])


class Meter:
    """Kernel samples on the time line, and the slowdown between them.

    ``start`` samples on a 100 ms interval timer whose signal handler
    runs in the main thread *between bytecodes of whatever is running*,
    so even one monolithic two-second call into the program is sampled
    twenty times, evenly — the machine's speed changes with a
    correlation time of about half a second, and samples taken only
    before and after such a call say little about its average.  The
    time the handler takes is known and is taken off every interval
    that contains it.
    """

    INTERVAL_S = 0.1
    #: samples this close to an interval still describe it
    PAD_S = 0.15

    def __init__(self):
        self._begins: List[float] = []
        self._ends: List[float] = []
        self._values: List[float] = []
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:      # a late timer tick during a sample
            return
        self._sampling = True
        try:
            begin = time.perf_counter()
            value = kernel()
            self._begins.append(begin)
            self._ends.append(time.perf_counter())
            self._values.append(value)
        finally:
            self._sampling = False

    def mark(self, samples: int) -> None:
        """``samples`` back-to-back samples, now."""
        for _ in range(samples):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No timer samples inside (the caller marks by hand)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                             self.INTERVAL_S)

    def slowdown(self, started: float, ended: float) -> float:
        """Mean of the samples in or within ``PAD_S`` of the interval;
        failing that, of the nearest one on each side (1.0 with no
        samples at all)."""
        lo = bisect.bisect_left(self._begins, started - self.PAD_S)
        hi = bisect.bisect_right(self._begins, ended + self.PAD_S)
        around = self._values[lo:hi]
        if not around:
            around = self._values[max(lo - 1, 0):hi + 1]
        return sum(around) / len(around) if around else 1.0

    def sampling_s(self, started: float, ended: float) -> float:
        """Seconds of the interval spent inside the sampler."""
        lo = bisect.bisect_left(self._begins, started)
        hi = bisect.bisect_right(self._ends, ended)
        return sum(self._ends[k] - self._begins[k] for k in range(lo, hi))

    def at_reference(self, spans: List[Tuple[float, float]]) -> float:
        """Total duration of ``spans`` (start, end) net of sampling,
        each divided by the slowdown around it."""
        return sum((ended - started - self.sampling_s(started, ended))
                   / self.slowdown(started, ended)
                   for started, ended in spans)
