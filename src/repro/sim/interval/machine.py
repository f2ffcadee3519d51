"""Executing an interval profile against a real uncore (through the
core's :meth:`repro.mem.uncore.Uncore.port`, as for the BADCO
machine)."""

from __future__ import annotations

from repro.mem.uncore import UncorePort
from repro.sim.interval.profile import IntervalProfile, TRAIN_HIT_LATENCY


class IntervalMachine:
    """Replays one interval profile; same stepper interface as the
    detailed core and the BADCO machine.

    Timing per interval: the intrinsic (core-limited) cycles elapse,
    all reads of the closing overlap group issue together, and the
    interval completes when the *slowest* of them returns -- i.e. the
    group's latencies overlap perfectly (the interval-model MLP
    idealisation; BADCO's per-node sensitivities are finer).  An
    ``advance`` past the last interval rewinds the profile itself
    (restart semantics).
    """

    def __init__(self, profile: IntervalProfile, uncore_access: UncorePort,
                 start_time: int = 0) -> None:
        self.profile = profile
        self._intervals = profile.intervals
        self._uncore_access = uncore_access
        self._time = float(start_time)
        self.position = 0
        self.executed = 0

    @property
    def local_time(self) -> float:
        return self._time

    def advance(self) -> float:
        position = self.position
        try:
            interval = self._intervals[position]
        except IndexError:
            position = 0
            interval = self._intervals[0]
        self.position = position + 1
        now = int(self._time)
        access = self._uncore_access
        pc = interval.pc
        for address, is_write in interval.extras:
            access(address, now, is_write, pc, True)
        stall = 0.0
        for address in interval.reads:
            done = access(address, now, False, pc, False)
            extra = (done - now) - TRAIN_HIT_LATENCY
            if extra > stall:
                stall = extra               # group pays the slowest only
        self._time += interval.intrinsic + max(stall, 0.0)
        self.executed += interval.uop_count
        return self._time
