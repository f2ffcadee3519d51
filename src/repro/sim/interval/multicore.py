"""Multicore interval simulation (same semantics as the other two, and
the same scheduler: :func:`repro.sim.detailed.interleave`)."""

from __future__ import annotations

import time
from typing import Optional

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.core.workload import Workload
from repro.mem.uncore import Uncore, UncoreConfig, uncore_config_for_cores
from repro.sim.detailed import (
    EventDrivenBatchMixin,
    WorkloadRun,
    _MeasuredThread,
    interleave,
)
from repro.sim.interval.machine import IntervalMachine
from repro.sim.interval.profile import IntervalProfileBuilder


class IntervalSimulator(EventDrivenBatchMixin):
    """K interval machines sharing a real uncore.

    Interface-compatible with :class:`repro.sim.detailed.
    DetailedSimulator` and :class:`repro.sim.badco.BadcoSimulator`
    (run / reference_ipc / restart semantics), so campaigns and
    experiments can swap simulator families freely.  ``run_batch``
    (via :class:`~repro.sim.detailed.EventDrivenBatchMixin`) stacks
    per-workload runs into the analytic backend's N x K panel
    contract.
    """

    name = "interval"

    def __init__(self, cores: int, policy: str = "LRU",
                 builder: Optional[IntervalProfileBuilder] = None,
                 trace_length: int = DEFAULT_TRACE_LENGTH,
                 warmup_fraction: float = 0.25, seed: int = 0,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        self.cores = cores
        self.policy = policy
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.builder = builder or IntervalProfileBuilder(trace_length, seed)
        if self.builder.trace_length != trace_length:
            raise ValueError("builder trace length does not match simulator")
        self.uncore_config = (uncore_config
                              or uncore_config_for_cores(cores, policy))
        if uncore_config is not None and uncore_config.policy != policy:
            self.uncore_config = uncore_config.with_policy(policy)

    def run(self, workload: Workload) -> WorkloadRun:
        if workload.k != self.cores:
            raise ValueError(
                f"workload has {workload.k} threads, machine has "
                f"{self.cores} cores")
        started = time.perf_counter()
        uncore = Uncore(self.uncore_config, seed=self.seed)
        warmup = int(self.trace_length * self.warmup_fraction)
        machines = [IntervalMachine(core_id, self.builder.build(benchmark),
                                    uncore.access)
                    for core_id, benchmark in enumerate(workload)]
        meters = [_MeasuredThread(warmup, self.trace_length)
                  for _ in machines]
        interleave(machines, meters)
        total = sum(machine.executed for machine in machines)
        wall = time.perf_counter() - started
        return WorkloadRun(workload, [m.ipc() for m in meters], total, wall)

    def reference_ipc(self, benchmark: str) -> float:
        single = IntervalSimulator(
            cores=1, policy=self.policy, builder=self.builder,
            trace_length=self.trace_length,
            warmup_fraction=self.warmup_fraction, seed=self.seed,
            uncore_config=self.uncore_config.with_policy(self.policy))
        return single.run(Workload([benchmark])).ipcs[0]
