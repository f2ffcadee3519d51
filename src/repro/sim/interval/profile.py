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

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bench.generator import DEFAULT_TRACE_LENGTH, cached_trace
from repro.cpu.core import fixed_latency_run
from repro.cpu.resources import CoreConfig, default_core_config

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

    @property
    def request_count(self) -> int:
        return sum(len(i.reads) + len(i.extras) for i in self.intervals)


class IntervalProfileBuilder:
    """Builds (and caches) interval profiles from one detailed run.

    With a model *store* attached (see :mod:`repro.sim.modelstore`)
    profiles persist like BADCO node models and analytic calibration
    anchors: a warm builder loads the one-run profile from disk
    instead of re-running the detailed core, bit-identically, and
    counts no training uops for it.

    Args:
        trace_length: uops per benchmark trace.
        seed: trace seed (must match the campaign's).
        core_config: detailed-core configuration used for training; its
            ROB size defines the overlap window.
        store: optional :class:`~repro.sim.modelstore.ModelStore`.
    """

    def __init__(self, trace_length: int = DEFAULT_TRACE_LENGTH, seed: int = 0,
                 core_config: Optional[CoreConfig] = None,
                 store: Optional[object] = None) -> None:
        self.trace_length = trace_length
        self.seed = seed
        self.core_config = core_config or default_core_config()
        self.store = store
        self._cache = {}
        self.training_uops = 0
        self.training_runs = 0
        self.training_seconds = 0.0

    def use_store(self, store: Optional[object]) -> None:
        """Attach a persistent profile store (see ``attach_store``)."""
        self.store = store

    def _store_signature(self) -> str:
        """Everything a profile depends on, digested for the store."""
        from repro.sim.modelstore import config_signature

        return config_signature("interval-profile", self.trace_length,
                                self.seed, self.core_config,
                                TRAIN_HIT_LATENCY)

    def build(self, benchmark: str) -> IntervalProfile:
        profile = self._cache.get(benchmark)
        if profile is None:
            if self.store is not None:
                profile = self.store.load_interval_profile(
                    benchmark, self._store_signature())
            if profile is None:
                profile = self._build(benchmark)
                if self.store is not None:
                    self.store.save_interval_profile(
                        profile, self._store_signature())
            self._cache[benchmark] = profile
        return profile

    def _build(self, benchmark: str) -> IntervalProfile:
        started = time.perf_counter()
        trace = cached_trace(benchmark, self.trace_length, self.seed)
        commit_times, events = fixed_latency_run(trace, self.core_config,
                                                 TRAIN_HIT_LATENCY)
        self.training_uops += self.trace_length
        self.training_runs += 1
        self.training_seconds += time.perf_counter() - started
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
