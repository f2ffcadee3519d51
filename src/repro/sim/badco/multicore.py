"""The BADCO multicore simulator.

"Once BADCO core models have been built for a set of single-thread
benchmarks, the core models can be easily combined to simulate a
multicore running several independent threads simultaneously.  We
connect several BADCO machines, one per core, to a detailed uncore
simulator."  Arbitration between machines is round-robin in the paper;
here machines advance in global time order (the machine with the
smallest local clock issues next), which serialises simultaneous
requests fairly the same way.

Restart and measurement semantics are identical to the detailed
simulator's (Section IV-A) -- both run the same scheduler,
:func:`repro.sim.detailed.interleave` -- so per-workload IPCs from the
two simulators are directly comparable, which Figs. 2 and 4 rely on.
Each machine calls the shared uncore's ``access`` directly with its
core id.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.core.workload import Workload
from repro.mem.uncore import Uncore, UncoreConfig, uncore_config_for_cores
from repro.sim.badco.machine import BadcoMachine
from repro.sim.badco.model import BadcoModelBuilder
from repro.sim.batch import EventDrivenBatchMixin
from repro.sim.detailed import WorkloadRun, _MeasuredThread, interleave


class BadcoSimulator(EventDrivenBatchMixin):
    """Simulate workloads with BADCO machines sharing a real uncore.

    Also offers ``run_batch(workloads, jobs=1)`` (via
    :class:`~repro.sim.batch.EventDrivenBatchMixin`): the stacked
    N x K panel of per-workload runs, optionally chunked over a process
    pool with bit-identical merges for any ``jobs``.

    Args:
        cores: number of cores K.
        policy: LLC replacement policy name.
        builder: the model builder (shared across simulators so each
            model is trained once); defaults to a fresh builder.
        trace_length / warmup_fraction / seed: as in
            :class:`repro.sim.detailed.DetailedSimulator`.
    """

    name = "badco"

    def __init__(self, cores: int, policy: str = "LRU",
                 builder: Optional[BadcoModelBuilder] = None,
                 trace_length: int = DEFAULT_TRACE_LENGTH,
                 warmup_fraction: float = 0.25, seed: int = 0,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        self.cores = cores
        self.policy = policy
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.builder = builder or BadcoModelBuilder(trace_length, seed)
        if self.builder.trace_length != trace_length:
            raise ValueError("builder trace length does not match simulator")
        self.uncore_config = (uncore_config
                              or uncore_config_for_cores(cores, policy))
        if uncore_config is not None and uncore_config.policy != policy:
            self.uncore_config = uncore_config.with_policy(policy)

    def run(self, workload: Workload) -> WorkloadRun:
        """Simulate one workload; returns measured per-core IPCs."""
        if workload.k != self.cores:
            raise ValueError(
                f"workload has {workload.k} threads, machine has "
                f"{self.cores} cores")
        started = time.perf_counter()
        uncore = Uncore(self.uncore_config, seed=self.seed)
        warmup = int(self.trace_length * self.warmup_fraction)
        machines = [BadcoMachine(core_id, self.builder.build(benchmark),
                                 uncore.access)
                    for core_id, benchmark in enumerate(workload)]
        meters = [_MeasuredThread(warmup, self.trace_length)
                  for _ in machines]
        interleave(machines, meters)
        total_executed = sum(machine.executed for machine in machines)
        wall = time.perf_counter() - started
        ipcs = [meter.ipc() for meter in meters]
        return WorkloadRun(workload, ipcs, total_executed, wall)

    def reference_ipc(self, benchmark: str) -> float:
        """Single-thread IPC of a benchmark on this machine (alone)."""
        single = BadcoSimulator(
            cores=1, policy=self.policy, builder=self.builder,
            trace_length=self.trace_length,
            warmup_fraction=self.warmup_fraction, seed=self.seed,
            uncore_config=self.uncore_config.with_policy(self.policy))
        run = single.run(Workload([benchmark]))
        return run.ipcs[0]
