"""A speed gauge: reports timings at a fixed reference speed.

The shared machine this benchmark runs on changes speed under it.  On
the 2-vCPU container it was built on (Xeon, CPU model 207), a fixed
interpreter loop read anywhere from 1x to 2.2x its idle time, the
slow share moved from run to run, and process CPU time tracked wall
time exactly, so neither clock separates the program from its
neighbours.  The mean time of one learning repetition moved by 70%
across six 15-second runs of identical work.

A gauge is a fixed loop of the interpreter's commonest work
(iteration, subscripts, integer adds) that never touches the program.
Run in short chunks between the program's steps, it samples the
machine's speed over the same stretch of time, and a timing divided by
the run's mean :attr:`Gauge.slowdown` reads what it would have taken
with the gauge at its nominal speed.  Over the same six runs the
normalized repetition time stayed within 5.4% (quartile spread 3.6%).
A loop of random reads from large tables tracked the program far worse
(spread 17%): the machine's slow phases hit memory harder than the
interpreter work this program does.

A change to the program moves its timings and not the gauge, so
normalized timings keep every gain and every loss.
"""

from __future__ import annotations

import time
from typing import Callable

#: the share of the measured time the gauge adds, spread over the run
SHARE = 0.05
#: one chunk's duration at the reference speed: about its fastest
#: reading on the machine named above
NOMINAL_S = 150e-6

_CELLS = list(range(1000))
_TABLE = {"k5": 5}


def chunk() -> int:
    total = 0
    for _ in range(3000):
        total += _CELLS[7]
    for _ in range(1000):
        total += _TABLE["k5"]
    return total


def _timed_chunk() -> float:
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def timed(action: Callable[[], object]) -> float:
    """The time ``action`` takes, at the reference speed read by one
    chunk just before it and one just after.

    For a step of a millisecond or so the machine rarely changes speed
    within it, so the chunks around it read the speed it ran at, where
    a run's mean :attr:`Gauge.slowdown` would mix in the other speed.
    """
    before = _timed_chunk()
    start = time.perf_counter()
    action()
    took = time.perf_counter() - start
    after = _timed_chunk()
    return took * 2 * NOMINAL_S / (before + after)


class Gauge:
    """Samples the machine's speed in proportion to the time measured.

    Call :meth:`sample` after each timed step with the seconds it took,
    outside the step's timing; the gauge owes :data:`SHARE` of them and
    runs a chunk whenever it owes one, so its readings are spread over
    the run like the time it normalizes.
    """

    def __init__(self, share: float = SHARE) -> None:
        self.share = share
        self.seconds = 0.0
        self.chunks = 0
        self._owed = 0.0

    def sample(self, elapsed: float) -> None:
        self._owed += elapsed * self.share
        # A run always reads the gauge at least once.
        if self.chunks and self._owed < NOMINAL_S:
            return
        start = time.perf_counter()
        ran = 0
        while ran == 0 or self._owed >= NOMINAL_S:
            chunk()
            ran += 1
            self._owed -= NOMINAL_S
        self.seconds += time.perf_counter() - start
        self.chunks += ran
        self._owed = max(self._owed, 0.0)

    @property
    def slowdown(self) -> float:
        """The run's mean chunk time over :data:`NOMINAL_S`."""
        if not self.chunks:
            raise ValueError("the gauge was never sampled")
        return self.seconds / self.chunks / NOMINAL_S

    def scale(self, seconds: float) -> float:
        """``seconds`` measured in this run, at the reference speed."""
        return seconds / self.slowdown
