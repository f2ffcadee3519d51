"""Executing an interval profile against a real uncore (whose ``access``
is the callback, as for the BADCO machine)."""

from __future__ import annotations

from typing import Callable

from repro.sim.interval.profile import IntervalProfile, TRAIN_HIT_LATENCY

#: (core_id, address, now, is_write, pc, is_prefetch) -> completion time.
UncoreAccess = Callable[[int, int, int, bool, int, bool], int]


class IntervalMachine:
    """Replays one interval profile; same stepper interface as the
    detailed core and the BADCO machine.

    Timing per interval: the intrinsic (core-limited) cycles elapse,
    all reads of the closing overlap group issue together, and the
    interval completes when the *slowest* of them returns -- i.e. the
    group's latencies overlap perfectly (the interval-model MLP
    idealisation; BADCO's per-node sensitivities are finer).
    """

    def __init__(self, core_id: int, profile: IntervalProfile,
                 uncore_access: UncoreAccess, start_time: int = 0) -> None:
        self.core_id = core_id
        self.profile = profile
        self._intervals = profile.intervals
        self._uncore_access = uncore_access
        self._time = float(start_time)
        self.position = 0
        self.executed = 0

    @property
    def local_time(self) -> float:
        return self._time

    @property
    def done(self) -> bool:
        return self.position >= len(self._intervals)

    def restart(self) -> None:
        self.position = 0

    def advance(self) -> float:
        interval = self._intervals[self.position]
        self.position += 1
        now = int(self._time)
        access = self._uncore_access
        core_id = self.core_id
        pc = interval.pc
        for address, is_write in interval.extras:
            access(core_id, address, now, is_write, pc, True)
        stall = 0.0
        for address in interval.reads:
            done = access(core_id, address, now, False, pc, False)
            extra = (done - now) - TRAIN_HIT_LATENCY
            if extra > stall:
                stall = extra               # group pays the slowest only
        self._time += interval.intrinsic + max(stall, 0.0)
        self.executed += interval.uop_count
        return self._time
