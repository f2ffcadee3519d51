"""Interval profiles: one-training-run behavioural models.

A profile is a sequence of *intervals*.  Each interval covers the uops
between two overlap groups of demand reads: it carries the core-limited
cycles the detailed core spent there when every request hit
(``intrinsic``, from :func:`repro.cpu.core.fixed_latency_run` against
an always-hit uncore), plus the requests of the group that ends it.
Requests whose uops fall within one ROB window form a single group --
the classic interval-simulation MLP assumption is that their memory
latencies overlap, so only the group leader's latency lands on the
critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bench.trace import Trace
from repro.sim.detailed import TrainedModelBuilder

#: Fixed training latency (always-hit uncore), as for BADCO's hit run.
TRAIN_HIT_LATENCY = 6


@dataclass(frozen=True)
class Interval:
    """One interval: intrinsic work, then a group of memory requests.

    Attributes:
        uop_count: uops covered by the interval.
        intrinsic: core-limited cycles (from the always-hit run).
        reads: demand-read addresses of the closing overlap group, with
            the leader first.
        extras: non-blocking traffic (writes, prefetches) replayed
            fire-and-forget, as (address, is_write) pairs.
        pc: representative instruction address (prefetcher context).
    """

    uop_count: int
    intrinsic: float
    reads: Tuple[int, ...]
    extras: Tuple[Tuple[int, bool], ...]
    pc: int


@dataclass
class IntervalProfile:
    """The interval model of one benchmark."""

    benchmark: str
    trace_length: int
    intervals: List[Interval]

    @property
    def total_uops(self) -> int:
        return sum(i.uop_count for i in self.intervals)


class IntervalProfileBuilder(TrainedModelBuilder):
    """Builds (and caches) interval profiles from one detailed run.

    ``build`` is :meth:`~repro.sim.detailed.TrainedModelBuilder.build`
    over one always-hit training run per benchmark: with a model store
    attached, a warm builder loads the profile from disk instead,
    bit-identically, and counts no training uops for it.  The training
    core's ROB size defines the overlap window.
    """

    def _store_signature(self) -> str:
        """Everything a profile depends on, digested for the store."""
        from repro.sim.modelstore import config_signature

        return config_signature("interval-profile", self.trace_length,
                                self.seed, self.core_config,
                                TRAIN_HIT_LATENCY)

    def _load(self, benchmark: str, signature: str
              ) -> Optional[IntervalProfile]:
        return self.store.load_interval_profile(benchmark, signature)

    def _save(self, profile: IntervalProfile, signature: str) -> None:
        self.store.save_interval_profile(profile, signature)

    def _train(self, benchmark: str, trace: Trace) -> IntervalProfile:
        commit_times, events = self._training_run(trace, TRAIN_HIT_LATENCY)
        intervals = _group_intervals(events, commit_times,
                                     self.core_config.rob_entries,
                                     self.trace_length)
        return IntervalProfile(benchmark, self.trace_length, intervals)


def _group_intervals(events, commit_times, rob_entries: int,
                     trace_length: int) -> List[Interval]:
    """Cut the event stream into ROB-window overlap groups."""
    intervals: List[Interval] = []
    previous_uop = -1
    previous_time = 0.0
    group_reads: List[int] = []
    group_extras: List[Tuple[int, bool]] = []
    group_start_uop: Optional[int] = None
    group_end_uop = -1
    group_pc = 0

    def close_group() -> None:
        nonlocal previous_uop, previous_time, group_reads, group_extras
        nonlocal group_start_uop, group_pc
        if group_start_uop is None:
            return
        end = min(group_end_uop, trace_length - 1)
        end_time = commit_times[end]
        intervals.append(Interval(
            uop_count=end - previous_uop,
            intrinsic=max(end_time - previous_time, 0.0),
            reads=tuple(group_reads),
            extras=tuple(group_extras),
            pc=group_pc))
        previous_uop = end
        previous_time = end_time
        group_reads = []
        group_extras = []
        group_start_uop = None

    for index, address, is_write, pc, blocking in events:
        if not blocking:
            group_extras.append((address, is_write))
            continue
        if group_start_uop is not None and index - group_start_uop >= rob_entries:
            close_group()
        if group_start_uop is None:
            group_start_uop = index
            group_pc = pc
        group_reads.append(address)
        group_end_uop = index
    close_group()
    tail = (trace_length - 1) - previous_uop
    if tail > 0 or group_extras:
        intervals.append(Interval(
            uop_count=max(tail, 0),
            intrinsic=max(commit_times[-1] - previous_time, 0.0),
            reads=(),
            extras=tuple(group_extras),
            pc=0))
    return intervals
