"""Sample how fast the host runs Python while a job runs, and rescale
the job's wall time to a fixed reference speed.

On a 2-vCPU virtual machine (Xeon, 2.1 GHz) of a shared host, a CPU
runs Python up to a third slower or faster from one second to the next,
and in phases that last tens of seconds.  The process's CPU time tracks
its wall time through those swings and the kernel reports almost no
steal, so the CPU itself runs slower -- no choice of clock removes it,
and a wall time measures the host's neighbours as much as the program.
A probe on the other CPU does not track it either: the two CPUs swing
independently.

So the probe runs on the job's own CPU, interleaved with the job: every
``PROBE_INTERVAL_S`` of the process's CPU time (``ITIMER_VIRTUAL``, so a
process blocked on a pool costs no probes) a signal handler times a
fixed pure-Python loop that uses nothing from the program under test.
:func:`at_reference_speed` scales each ``WINDOW_S`` of the job's wall
time by the median probe that ran in it, to a host whose probe takes
``REFERENCE_PROBE_S``; windows shorter than the job follow the host's
phases (one scale per job left twice the spread on a 10-s job).  A
program change moves the job's wall time and not the probe, so the
scaled time moves by the same share.  The probes cost about 2.5% of the
job's CPU time, the same share on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: One probe: when it started (``time.perf_counter``, which reads the
#: system-wide monotonic clock, so pool workers' probes line up with the
#: parent's) and how long it took.
Sample = Tuple[float, float]

#: Iterations of the probe loop (about 0.4 ms on a 2.1 GHz Xeon).
PROBE_LOOPS = 5000
#: Process CPU seconds between probes.
PROBE_INTERVAL_S = 0.02
#: The probe time that defines the reference speed.
REFERENCE_PROBE_S = 4.0e-4
#: Wall seconds of a job scaled by one median probe.
WINDOW_S = 0.5
#: Fewest probes that set a window's own scale; a window with fewer (a
#: process blocked on its pool) takes the median of the whole span.
MIN_WINDOW_PROBES = 5


def _probe_loop() -> int:
    total = 0
    for index in range(PROBE_LOOPS):
        total += index * index % 7
    return total


class Pace:
    """Context manager: probe the host's speed while the block runs.

    Python runs signal handlers in the main thread only, so enter it
    there.  Interval timers are not inherited across ``fork``: a pool
    worker enters its own."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGVTALRM, self._probe)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        signal.signal(signal.SIGVTALRM, self._previous)


def at_reference_speed(begin: float, end: float,
                       samples: Sequence[Sample]) -> float:
    """The wall span *begin* .. *end* in seconds at the reference speed
    (unscaled when no probe ran)."""
    if not samples:
        return end - begin
    overall = statistics.median(taken for _, taken in samples)
    total = 0.0
    start = begin
    while start < end:
        stop = min(start + WINDOW_S, end)
        inside = [taken for at, taken in samples if start <= at < stop]
        probe = (statistics.median(inside)
                 if len(inside) >= MIN_WINDOW_PROBES else overall)
        total += (stop - start) * REFERENCE_PROBE_S / probe
        start = stop
    return total


def host_speed(samples: Sequence[Sample]) -> float:
    """The host's speed as a multiple of the reference (0 without probes)."""
    if not samples:
        return 0.0
    return REFERENCE_PROBE_S / statistics.median(
        taken for _, taken in samples)
