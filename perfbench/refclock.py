"""Wall time rescaled by a reference kernel that runs during the timed work.

On a shared host the speed of the CPU this process gets changes by up to
half within seconds and between phases that last minutes, with CPU time equal
to wall time, so raw wall times of identical work spread by 15-30% between
runs.  While a `RefClock` runs, a timer signal interrupts the work every
PERIOD_S seconds to run a short fixed reference burst of interpreter work: a
counting loop and a walk in random order through a table of ints larger
than the core's L2 cache.  `now()` is a clock that stops during the
bursts, and the bursts' median measures the machine's speed while the work
ran.  `scale()` converts burst-free seconds into seconds on a machine on
which the burst takes BURST_S, as it did in an idle process on this
project's reference machine (see README.md).  Work that gets faster reads
faster; the same work reads about the same in a fast phase and a slow one.

The burst was chosen by running each workload in separate processes while
several candidate bursts took turns at the alarms, then comparing how much
the operation time divided by each burst's median varied between processes
(README.md, "Timing").  Bursts that stay in the core's caches (FFTs at the
workload's grid, small elementwise numpy) tracked the solver in some phases
and did worse than raw time in others; a random gather from a large numpy
array over-corrected.  No burst tracks every phase: in a calm phase the
rescaled time varies about as much as the raw one, in an unsteady phase
about half as much.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

import numpy as np

PERIOD_S = 0.1
TABLE_SLOTS = 300_000      # a tuple and its int objects, about 11 MB
WALK_STEPS = 5_000
LOOP_STEPS = 6_000

# median seconds of a burst in an otherwise idle process on the reference
# machine (400 bursts after 50 of warm-up)
BURST_S = 6.8e-4

_ALARM = {signal.SIGALRM}


class RefClock:
    """`with clock:` samples the machine's speed; inside it `clock.now()`
    reads a clock that excludes the bursts; after it `clock.scale()` is the
    factor from those seconds to reference seconds.

    A clock made with sample=False runs no bursts and its scale is 1 (the
    traced runs, whose spans the bursts would land in).  Only one sampling
    clock may run at a time, in the main thread: it owns SIGALRM and
    ITIMER_REAL while it runs."""

    def __init__(self, sample=True):
        self.sample = sample
        # successor table of one cycle through all slots in random order;
        # a tuple of ints holds no container, so the garbage collector
        # stops tracking it and the solver's collections never traverse it
        order = np.random.default_rng(0).permutation(TABLE_SLOTS).tolist()
        successor = [0] * TABLE_SLOTS
        for a, b in zip(order, order[1:] + order[:1]):
            successor[a] = b
        self._successor = tuple(successor)
        self._slot = order[0]
        del order, successor
        # bytes the clock keeps, which are not the workload's (ints up to
        # 256 are the interpreter's shared small ints)
        self.footprint = sys.getsizeof(self._successor) + sum(
            sys.getsizeof(i) for i in self._successor if i > 256)
        self.bursts = []
        self._stolen = 0.0

    def burst(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP_STEPS):
            s += i
        slot, successor = self._slot, self._successor
        for _ in range(WALK_STEPS):
            slot = successor[slot]
        self._slot = slot
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        seconds = self.burst()
        self.bursts.append(seconds)
        self._stolen += seconds

    def now(self):
        # the alarm is held off so that no burst falls between the two reads
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            return time.perf_counter() - self._stolen
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)

    def __enter__(self):
        self.bursts = []
        self._stolen = 0.0
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            if not self.bursts:  # work shorter than PERIOD_S
                self.bursts.append(self.burst())
        return False

    def scale(self):
        if not self.sample:
            return 1.0
        return BURST_S / statistics.median(self.bursts)
