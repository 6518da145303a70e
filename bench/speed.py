"""Host speed probe: op times normalised to a reference interpreter speed.

On a shared host the same code runs up to about 1.7 times slower in
spells that last from a fraction of a second to minutes, whatever the
process does; the benchmark's own CPU time slows down with it, so the
loss is not time spent off the CPU.  A spell that covers a whole run
moves every raw time of that run, and no statistic over the run's passes
can take it out.

``SpeedProbe`` measures the host's speed while the program runs: every
``INTERVAL_S`` a SIGALRM handler times a fixed pure-Python loop.  An op's
normalised time is its elapsed time minus the probe's own time, scaled
by ``REFERENCE_S`` over the probe's mean time during the op: the seconds
the op would take on a host where the probe loop takes ``REFERENCE_S``.
An op that no probe interrupts (it is shorter than the interval, or one
long call into C) is scaled by the probe's recent samples.  The probe
does not touch the program's state, so results stay bit-identical.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from collections import deque

#: Seconds between probes.
INTERVAL_S = 0.005
#: Iterations of the probe loop.
LOOP = 3000
#: Probe time that defines the reference speed, about its time on an
#: uncontended 2.1 GHz Xeon core with CPython 3.11.
REFERENCE_S = 2.0e-4
#: Probe samples that give the speed for an op no probe interrupted.
RECENT = 20


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self.recent = deque(maxlen=RECENT)
        self.samples = []

    def _fire(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _loop()
        seconds = time.perf_counter() - start
        self.total += seconds
        self.count += 1
        self.recent.append(seconds)
        self.samples.append(seconds)

    @contextlib.contextmanager
    def running(self):
        """Probe the host every INTERVAL_S until the block ends."""
        for _ in range(RECENT):
            self._fire()
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self):
        """A mark to pass to ``stop`` at the end of the timed section."""
        return self.total, self.count, statistics.fmean(self.recent), time.perf_counter()

    def stop(self, mark) -> tuple[float, float]:
        """Raw and normalised seconds since ``mark``."""
        end = time.perf_counter()
        total, count, recent, start = mark
        probed, samples = self.total - total, self.count - count
        per_sample = probed / samples if samples else recent
        return end - start, (end - start - probed) * REFERENCE_S / per_sample
