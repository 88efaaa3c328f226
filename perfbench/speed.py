"""The host's speed, read from a fixed reference loop, to scale wall times by.

On the 2-vCPU guest this benchmark was tuned on, the interpreter's speed
swings by up to 1.8x in phases that last from seconds to minutes, with no
steal time: the host's other tenants share its cores and caches.  A run
timed in a slow phase reads as a regression of the program, and no
statistic over one run removes a phase that outlasts it.  So a timer
signal runs a short reference loop every ``PERIOD_S``, during units and
between them, and each wall time is scaled by the loop's median time
around it, after the readings' own time is taken out.  A scaled time is
what the wall time would have been on a host where the loop takes
``REFERENCE_MS``.  The loop is pure Python and calls nothing in relaxobj,
so a change to the program moves scaled times as much as wall times.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

#: the loop time scaled times assume: about its median inside runs of
#: this benchmark on the guest it was tuned on, so scaled times read close
#: to wall times there
REFERENCE_MS = 10.0
#: a timer signal runs the loop once every this many seconds
PERIOD_S = 0.2
#: readings this close to an interval also count for its speed
MARGIN_S = 0.5
#: iterations of one reading's loop: about 7-10 ms on the guest tuned on
LOOP_ITERATIONS = 10000

_clock = time.perf_counter


class _Cell:
    def __init__(self, value: int) -> None:
        self.value = value


#: a few MiB, so the loop misses the core's own caches as the workloads do;
#: a dict of ints only is not tracked by the garbage collector
_TABLE = {i: i * i for i in range(1 << 16)}
_CELL = _Cell(0)


def _numbers(n: int):
    yield from range(n)


def reference_loop() -> int:
    """Read attributes, index a dict, build short-lived tuples and lists and
    resume a generator, as the workloads do most.  Nothing it allocates
    outlives its iteration, so the garbage collector's full collections,
    whose time grows with what the process holds, do not run for it."""
    table, cell, total = _TABLE, _CELL, 0
    for i in _numbers(LOOP_ITERATIONS):
        pair = (table[(i * 40503) & 0xFFFF], cell.value)
        total += sum([pair[0], pair[1], i])
        cell.value = i & 255
    return total


class Speedometer:
    """Readings of the reference loop, taken every ``PERIOD_S`` by a timer
    signal whatever the process is doing, and the time they took from it.

    Use it as a context manager: the timer runs only inside the ``with``.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []  # when each reading finished
        self.loops: list[float] = []  # its loop time, seconds
        self.stolen = 0.0  # seconds spent on readings so far
        self._previous = None

    def _read(self, signum=None, frame=None) -> None:
        began = _clock()
        reference_loop()
        ended = _clock()
        self.ends.append(ended)
        self.loops.append(ended - began)
        self.stolen += ended - began

    def __enter__(self) -> "Speedometer":
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read()

    def mark(self) -> tuple[float, float]:
        """A point in time, with the reading time spent up to it."""
        return _clock(), self.stolen

    def loop_s(self, began: float, ended: float) -> float:
        """Median loop time of the readings during the interval and up to
        ``MARGIN_S`` either side of it."""
        low = bisect_left(self.ends, began - MARGIN_S)
        high = bisect_right(self.ends, ended + MARGIN_S)
        if low == high:  # no reading that close: take the nearest one
            low = min(low, len(self.ends) - 1)
            high = low + 1
        return statistics.median(self.loops[low:high])

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds from one mark to another, less the readings taken in
        between, at the reference speed."""
        own = (end[0] - start[0]) - (end[1] - start[1])
        return own * REFERENCE_MS / 1e3 / self.loop_s(start[0], end[0])
