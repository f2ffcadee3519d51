"""Host speed: a fixed piece of reference work timed during every op.

The benchmark's host is a 2-CPU KVM guest whose cores run at a speed
that changes from one second to the next: the same pure-Python loop
takes 5 to 11 ms, while the process's CPU time tracks its wall time (it
is not descheduled; the core itself is slower, as when another guest
shares it).  Each CPU varies on its own: the two CPUs' loop times
barely correlate (0.1-0.2).  Wall-clock latencies of one op therefore
spread by a quarter to a half between runs of the same code.

So a ``Sampler`` thread per CPU the program uses times a small fixed
piece of interpreter work every ``PERIOD_S`` by its own CPU clock
(waiting for the GIL or the CPU does not count), and an op's
*calibrated* latency is its wall time times the mean of ``NOMINAL_S /
sample`` over the samples taken while it ran: what the op would have
taken with the cores at the speed at which the work takes
``NOMINAL_S``.  Single-threaded ops run pinned to one CPU, so one
sampler follows them.  The sampled work is the benchmark's, never the
program's, so a change to the program moves calibrated latencies as
much as wall ones.  The samplers cost the program about 2 % of a CPU.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import threading
import time
from typing import Dict, List, Sequence, Tuple

#: The sampled work's CPU time on an uncontended core (the fastest
#: state seen on a 2-CPU Intel Xeon KVM guest, Python 3.11).
NOMINAL_S = 0.0003
#: Seconds between samples.
PERIOD_S = 0.02


class _Event:
    __slots__ = ("time", "kind")

    def __init__(self, time_: int, kind: int) -> None:
        self.time = time_
        self.kind = kind


_TABLE: Dict[int, float] = {i: i * 0.5 for i in range(31)}
_EVENTS = [_Event(i * 3 % 101, i & 7) for i in range(64)]


def _work() -> float:
    """The sampled work: dict lookups, attribute reads, calls and float
    arithmetic over prebuilt objects.  It allocates no container, so it
    never triggers (or pays for) a garbage collection of the program's
    objects."""
    table, events, sqrt = _TABLE, _EVENTS, math.sqrt
    total = 0.0
    for i in range(2_000):
        event = events[i & 63]
        total += table[i % 31] + sqrt(event.time) * event.kind
    return total


class Sampler:
    """Times ``_work`` every ``PERIOD_S`` on one thread per CPU given."""

    def __init__(self, cpus: Sequence[int]) -> None:
        #: per CPU: perf_counter at the end of each sample, and its CPU
        #: seconds
        self.series: Dict[int, Tuple[List[float], List[float]]] = {
            cpu: ([], []) for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(cpu,),
                                          daemon=True,
                                          name=f"hostspeed-{cpu}")
                         for cpu in self.series]

    def __enter__(self) -> "Sampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _run(self, cpu: int) -> None:
        pin(cpu)
        ends, seconds = self.series[cpu]
        clock = time.thread_time
        while not self._stop.wait(PERIOD_S):
            began = clock()
            _work()
            seconds.append(clock() - began)
            ends.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Wall seconds in [start, end] (perf_counter) to calibrated
        seconds: the mean of ``NOMINAL_S / sample`` over the samples
        that ended in the window, a time-weighted mean speed (per CPU,
        then over the CPUs).  A CPU with no sample in the window counts
        its sample nearest to ``end``."""
        speeds = []
        for ends, seconds in self.series.values():
            count = min(len(ends), len(seconds))
            ends = ends[:count]
            first = bisect.bisect_left(ends, start)
            last = bisect.bisect_right(ends, end)
            if last <= first:
                nearby = [i for i in (first - 1, first) if 0 <= i < count]
                if not nearby:
                    continue
                first = min(nearby, key=lambda i: abs(ends[i] - end))
                last = first + 1
            speeds.append(statistics.fmean(
                NOMINAL_S / sample for sample in seconds[first:last]))
        return statistics.fmean(speeds) if speeds else 1.0

    def slowdown(self) -> float:
        """The mean sample over ``NOMINAL_S``: how much slower than
        nominal the CPUs ran while sampled."""
        samples = [x for _, seconds in self.series.values() for x in seconds]
        return statistics.fmean(samples) / NOMINAL_S if samples else 1.0


#: The CPUs this process may use, as it started.
_ALLOWED = sorted(os.sched_getaffinity(0))


def all_cpus() -> List[int]:
    """Every CPU the benchmark may use."""
    return list(_ALLOWED)


def program_cpu() -> int:
    """The CPU that single-threaded ops run on."""
    return _ALLOWED[-1]


def setup_cpu(index: int) -> int:
    """The CPU of the ``index``-th of the set-ups run side by side."""
    return _ALLOWED[index % len(_ALLOWED)]


def pin(cpu: int) -> None:
    """Keep the calling thread, and the threads and processes it starts
    from now on, on one CPU."""
    os.sched_setaffinity(0, {cpu})
