"""Host-speed calibration: time CPU-bound work against a fixed reference loop.

The 2-vCPU hosts this benchmark runs on change speed under it: the same
six-listing pass, run back to back in one process, takes anywhere from 1.0 s
to 1.8 s, and a fixed pure-Python loop slows and speeds up with it.  Most of
the change moves on a scale of seconds to minutes, so a median over one run
does not average it out, and runs a minute apart disagree by 20-30 %.

:class:`Calibrator` runs the reference loop (:func:`probe`, the benchmark's
own code, which never calls the program) right before and right after each
timed operation and, while the operation runs, every :data:`INTERVAL_S`
from a ``SIGALRM`` handler.  The probes cut the operation into segments;
each segment's wall time is scaled by how much slower or faster than
:data:`REFERENCE_S` the host ran the probes on either side of it::

    calibrated = sum(segment * REFERENCE_S / mean(probe before, probe after))

A calibrated time is therefore the operation's time on a host that runs the
reference loop in exactly :data:`REFERENCE_S`.  The probes' own time is in
no timed window.  This assumes the program does nothing between the calls
it is timed in (no background threads of its own) and runs them in the main
thread, which holds for the in-process calls the benchmark calibrates.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Iterator

#: Iterations of the reference loop: ~12 ms on the host of Reading 1.
REFERENCE_ITERATIONS = 200_000
#: The reference loop's median time on that host (2 vCPU Xeon, 2.1 GHz,
#: Python 3.11.7), so calibrated times read close to its wall times.
REFERENCE_S = 0.012
#: Seconds between the probes taken inside a timed operation.
INTERVAL_S = 0.5


def probe() -> float:
    """Wall time of one run of the reference loop."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i & 7
    return time.perf_counter() - started


class Timing:
    """One timed operation: its wall time without the probes inside it, and
    that time calibrated."""

    __slots__ = ("wall", "calibrated")

    def __init__(self) -> None:
        self.wall = 0.0
        self.calibrated = 0.0

    @property
    def factor(self) -> float:
        """Calibrated over wall time: scales a time measured over the same
        window, such as a server's own start time."""
        return self.calibrated / self.wall if self.wall else 1.0


class Calibrator:
    """Times operations and calibrates them with probes around and inside.

    Consecutive operations share a probe: the one after an operation is
    the one before the next.  With ``probing=False`` (a traced run, whose
    layer times are reported as measured) nothing is probed and calibrated
    time equals wall time.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.probes: list[float] = [probe()] if probing else []

    @contextmanager
    def timed(self, probe_inside: bool = True) -> Iterator[Timing]:
        """Time the ``with`` body.  ``probe_inside=False`` probes only
        around it, for a body that waits on another process and must not
        be held up by a probe."""
        timing = Timing()
        # (start, end, duration) of each probe taken inside the body.
        inside: list[tuple[float, float, float]] = []

        def on_alarm(_signum, _frame) -> None:
            at = time.perf_counter()
            took = probe()
            inside.append((at, time.perf_counter(), took))

        timer = self.probing and probe_inside
        if timer:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            yield timing
        finally:
            ended = time.perf_counter()
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        if not self.probing:
            timing.wall = timing.calibrated = ended - started
            return
        # An alarm already due when the body ended may still have run.
        inside = [probed for probed in inside if probed[0] < ended]
        before = self.probes[-1]
        self.probes.extend(took for _, _, took in inside)
        self.probes.append(probe())
        edges = [started, *(edge for at, end, _ in inside for edge in (at, end)), ended]
        levels = [before, *(took for _, _, took in inside), self.probes[-1]]
        for i in range(len(levels) - 1):
            segment = edges[2 * i + 1] - edges[2 * i]
            timing.wall += segment
            timing.calibrated += segment * REFERENCE_S / ((levels[i] + levels[i + 1]) / 2)

    def reprobe(self) -> None:
        """Probe afresh after untimed work, so that the next operation's
        probe before it is taken right before it."""
        if self.probing:
            self.probes.append(probe())
