"""Executing an interval profile against a real uncore (through the
core's :meth:`repro.mem.uncore.Uncore.port`, as for the BADCO machine:
an interval's non-blocking pairs in one ``post`` call, its reads
through ``access``)."""

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
    (restart semantics), and :meth:`copy` continues the machine behind
    another uncore's port.
    """

    def __init__(self, profile: IntervalProfile, port: UncorePort,
                 start_time: float = 0) -> None:
        self.profile = profile
        self._intervals = profile.intervals
        self._access, self._post = port
        self._time = float(start_time)
        self.position = 0
        self.executed = 0

    @property
    def local_time(self) -> float:
        return self._time

    def copy(self, port: UncorePort) -> "IntervalMachine":
        """This machine where it stands, behind another uncore port."""
        twin = IntervalMachine(self.profile, port, self._time)
        twin.position = self.position
        twin.executed = self.executed
        return twin

    def advance(self) -> float:
        position = self.position
        try:
            interval = self._intervals[position]
        except IndexError:
            position = 0
            interval = self._intervals[0]
        self.position = position + 1
        now = int(self._time)
        access = self._access
        pc = interval.pc
        if interval.extras:
            self._post(interval.extras, now, pc)
        stall = 0.0
        for address in interval.reads:
            done = access(address, now, False, pc, False)
            extra = (done - now) - TRAIN_HIT_LATENCY
            if extra > stall:
                stall = extra               # group pays the slowest only
        self._time += interval.intrinsic + max(stall, 0.0)
        self.executed += interval.uop_count
        return self._time
