"""The yardstick: a fixed numpy computation timed next to every op.

The host's speed changes by up to 70% within a fraction of a second: on the
2-vCPU VM the benchmark was written on, this computation alternates between
about 0.71 and 1.11 ms in stretches of 50 ms to a few seconds, and one felab
call takes 1.7 s in one run and 2.7 s in the next.  An op's latency
divided by the yardstick's time measured around and during it is steady
across those changes; the end-to-end timing metrics are reported in these
units ("ref"), and set-ups are timed the same way.

Readings are taken before and after each op, and every ``INTERVAL`` seconds
while it runs, from a SIGALRM handler: a long op often spans a change of
speed, which readings at its ends alone would miss.  The time the handler
spends is subtracted from the op's latency.  Handlers run between Python
bytecodes, so a reading falls due during a long numpy call waits for its end.

The computation does what felab's transforms do: complex exponentials of a
node array, raised to a power and summed.  Of the variants tried (this on
200000 nodes, complex outer products, a Python loop of small array calls),
it followed felab's ops best across speed changes; 20000 nodes keep its
working set near 300 KB, so readings taken inside an op leave most of the
op's cache alone.  It uses numpy only, so no felab change can move it.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter


class Yardstick:
    REPEATS = 3      # a reading between ops is the fastest of this many calls
    INTERVAL = 0.03  # seconds between readings while an op runs

    def __init__(self):
        import numpy as np  # after the BLAS pin
        self._np = np
        self._x = np.linspace(0.0, 50.0, 20000)
        self._inside = None  # readings of the op being timed, while armed

    def _once(self) -> float:
        """Seconds one computation takes (about 1 ms)."""
        np = self._np
        t0 = perf_counter()
        float(np.sum(np.abs(np.exp(1j * self._x) - 1.0) ** 1.5))
        return perf_counter() - t0

    def read(self) -> float:
        """A reading between ops, in seconds."""
        return min(self._once() for _ in range(self.REPEATS))

    def _on_alarm(self, signum, frame) -> None:
        if self._inside is not None:
            self._inside.append(self._once())

    @contextmanager
    def installed(self):
        """The SIGALRM handler, in place for the block; ``arm`` needs it."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._inside = None
            signal.signal(signal.SIGALRM, previous)

    def arm(self) -> None:
        """Start readings every INTERVAL seconds, until ``disarm``."""
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def disarm(self) -> list:
        """Stop the readings; returns them, in seconds each."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        inside, self._inside = self._inside, None
        return inside
