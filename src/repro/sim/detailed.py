"""The detailed multicore simulator (the repo's "Zesto").

K detailed out-of-order cores (``repro.cpu``) share one uncore
(``repro.mem.uncore``).  Cores are interleaved in global time order --
at every step the core with the smallest local commit frontier advances
by one uop -- so shared-LLC state transitions and bus occupancy are
resolved consistently across cores.

Multiprogram semantics follow Section IV-A of the paper: every core
runs its own thread; a thread that finishes its instructions before the
others is restarted, as many times as necessary, until every thread has
executed its quota; IPC is measured only over each thread's first pass
(here: from the end of its warmup to the end of its trace).

Warmup is one deliberate deviation from the paper: with 100 M
instructions the paper can skip cache warming, but at our trace lengths
cold misses would dominate, so each thread's first ``warmup_fraction``
of uops runs unmeasured (caches and predictors stay warm across the
boundary).

:func:`interleave` is the one scheduler of all three event-driven
simulators -- this one, :mod:`repro.sim.badco` and
:mod:`repro.sim.interval` -- and of the analytic backend's standalone
calibration run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.bench.generator import DEFAULT_TRACE_LENGTH, cached_trace
from repro.core.workload import Workload
from repro.cpu.core import DetailedCore
from repro.cpu.resources import CoreConfig, default_core_config
from repro.mem.uncore import Uncore, UncoreConfig, uncore_config_for_cores


@dataclass
class WorkloadRun:
    """Outcome of simulating one workload on one machine.

    Attributes:
        workload: the simulated benchmark combination.
        ipcs: measured per-core IPC, in workload (sorted) order.
        instructions: total uops *executed* (including restarts and
            warmup) -- the basis of MIPS accounting.
        wall_seconds: host wall-clock time of the simulation.
    """

    workload: Workload
    ipcs: List[float]
    instructions: int
    wall_seconds: float

    @property
    def mips(self) -> float:
        """Simulation speed in million instructions per second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / 1e6 / self.wall_seconds


class _MeasuredThread:
    """Measurement bookkeeping for one core's first pass.

    Boundary crossings are interpolated linearly inside the advance
    that crossed them: the detailed core advances one uop at a time so
    this is exact, while BADCO advances whole nodes and would otherwise
    quantise the measured window to node boundaries.
    """

    __slots__ = ("warmup", "quota", "start_time", "end_time",
                 "_prev_executed", "_prev_time")

    def __init__(self, warmup: int, quota: int) -> None:
        self.warmup = warmup
        self.quota = quota
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._prev_executed = 0
        self._prev_time = 0.0

    def _crossing(self, boundary: int, executed: int,
                  local_time: float) -> float:
        span = executed - self._prev_executed
        if span <= 0 or boundary <= self._prev_executed:
            return local_time
        fraction = (boundary - self._prev_executed) / span
        return self._prev_time + fraction * (local_time - self._prev_time)

    def observe(self, executed: int, local_time: float) -> None:
        if self.start_time is None and executed >= self.warmup:
            self.start_time = self._crossing(self.warmup, executed, local_time)
        if self.end_time is None and executed >= self.quota:
            self.end_time = self._crossing(self.quota, executed, local_time)
        self._prev_executed = executed
        self._prev_time = local_time

    def ipc(self) -> float:
        if self.start_time is None or self.end_time is None:
            raise RuntimeError("measurement window never completed")
        cycles = self.end_time - self.start_time
        return (self.quota - self.warmup) / max(cycles, 1.0)


def interleave(steppers: Sequence, meters: Sequence[_MeasuredThread]) -> None:
    """Advance steppers in global time order until every meter has measured.

    A stepper (detailed core, BADCO or interval machine) has
    ``local_time``, ``executed``, ``done``, ``restart()`` and an
    ``advance()`` returning its new local time.  Each step advances the
    unfinished thread with the smallest local time (lowest core index on
    ties), after advancing once, in core order, every finished thread
    behind it: finished threads restart and keep running so slower ones
    see realistic contention (Section IV-A).  Local times and the
    running/finished split live in local lists, so a step reads no
    property of an idle thread.
    """
    times = [stepper.local_time for stepper in steppers]
    running = list(range(len(steppers)))
    finished: List[int] = []
    by_time = times.__getitem__
    while running:
        best = min(running, key=by_time)
        best_time = times[best]
        for i in finished:
            if times[i] < best_time:
                stepper = steppers[i]
                if stepper.done:
                    stepper.restart()
                times[i] = stepper.advance()
        stepper = steppers[best]
        if stepper.done:
            stepper.restart()
        times[best] = now = stepper.advance()
        meter = meters[best]
        meter.observe(stepper.executed, now)
        if meter.end_time is not None:
            running.remove(best)
            finished.append(best)
            finished.sort()


class DetailedSimulator:
    """Simulate workloads on K detailed cores sharing an uncore.

    Args:
        cores: number of cores K (1, 2, 4 or 8).
        policy: LLC replacement policy name.
        trace_length: uops per thread (the paper's "100 M instructions",
            scaled).
        warmup_fraction: unmeasured fraction at the start of each
            thread (see module docstring).
        seed: trace and policy seed; fixed seeds make runs reproducible.
        core_config / uncore_config: override the Table I / Table II
            defaults.
    """

    name = "detailed"

    def __init__(self, cores: int, policy: str = "LRU",
                 trace_length: int = DEFAULT_TRACE_LENGTH,
                 warmup_fraction: float = 0.25, seed: int = 0,
                 core_config: Optional[CoreConfig] = None,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.cores = cores
        self.policy = policy
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.core_config = core_config or default_core_config()
        self.uncore_config = (uncore_config
                              or uncore_config_for_cores(cores, policy))
        if uncore_config is not None and uncore_config.policy != policy:
            self.uncore_config = uncore_config.with_policy(policy)

    # ------------------------------------------------------------------

    def run(self, workload: Workload) -> WorkloadRun:
        """Simulate one workload; returns measured per-core IPCs."""
        if workload.k != self.cores:
            raise ValueError(
                f"workload has {workload.k} threads, machine has "
                f"{self.cores} cores")
        started = time.perf_counter()
        uncore = Uncore(self.uncore_config, seed=self.seed)
        cores: List[DetailedCore] = []
        meters: List[_MeasuredThread] = []
        warmup = int(self.trace_length * self.warmup_fraction)
        for core_id, benchmark in enumerate(workload):
            trace = cached_trace(benchmark, self.trace_length, self.seed)
            cores.append(DetailedCore(core_id, self.core_config, trace,
                                      partial(uncore.access, core_id)))
            meters.append(_MeasuredThread(warmup, self.trace_length))

        interleave(cores, meters)
        total_executed = sum(core.executed for core in cores)
        wall = time.perf_counter() - started
        ipcs = [meter.ipc() for meter in meters]
        return WorkloadRun(workload, ipcs, total_executed, wall)

    # ------------------------------------------------------------------

    def reference_ipc(self, benchmark: str) -> float:
        """Single-thread IPC of a benchmark on this machine (alone).

        The paper's IPCref[b]: "the IPC of the benchmark running alone
        on the reference machine".  The thread runs alone on the full
        uncore of this core count.
        """
        single = DetailedSimulator(
            cores=1, policy=self.policy, trace_length=self.trace_length,
            warmup_fraction=self.warmup_fraction, seed=self.seed,
            core_config=self.core_config,
            uncore_config=self.uncore_config.with_policy(self.policy))
        run = single.run(Workload([benchmark]))
        return run.ipcs[0]
