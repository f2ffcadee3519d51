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

:class:`EventDrivenSimulator` writes these rules out once: its ``run``
builds the uncore, one port and one stepper per core, the meters and
the :func:`interleave` call for all three event-driven simulators --
this one, :mod:`repro.sim.badco` and :mod:`repro.sim.interval` -- which
differ only in ``_stepper``, the machine one core runs.  ``interleave``
also runs the BADCO builder's standalone anchor.  The two trained
families build their models through one :class:`TrainedModelBuilder`
(memo, then model store, then fixed-latency training runs of the
detailed core).

Every simulator has the same batch entry point, ``run_batch(workloads)
-> BatchRun``: the analytic one scores a panel in one array call, and
the event-driven ones inherit :meth:`EventDrivenSimulator.run_batch`,
the serial loop over the workloads.  Given several policies, it scores
each row under all of them (an N x P x K :class:`GridRun`).  On the
BADCO and interval simulators, which declare ``supports_policy_axis``,
a row's policies share one run until the LLC first fills a set -- until
then no policy has been asked for a victim, so all of them have seen
the same accesses -- and each policy then finishes on its own copy of
the run (:meth:`EventDrivenSimulator._score`).  Every answer equals the
policy's own run bit for bit.  The campaign engine hands those two
backends a grid in one call, and the detailed one a call per policy,
inside its own process pool when ``jobs > 1``.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro.bench.generator import DEFAULT_TRACE_LENGTH, cached_trace
from repro.bench.trace import Trace
from repro.core.codematrix import CodeMatrix
from repro.core.workload import Workload
from repro.cpu.core import DetailedCore, RequestEvent, fixed_latency_run
from repro.cpu.resources import CoreConfig, default_core_config
from repro.mem.replacement import ReplacementPolicy, make_policy
from repro.mem.uncore import (
    Uncore,
    UncoreConfig,
    UncorePort,
    uncore_config_for_cores,
)


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


@dataclass
class BatchRun:
    """Outcome of simulating many workloads in one call.

    The batch counterpart of :class:`WorkloadRun`: row ``i`` of
    :attr:`ipcs` is the per-core IPC vector of ``workloads[i]``
    (workload-sorted benchmark order, as everywhere).

    Attributes:
        workloads: the simulated rows, in row order (a workload tuple,
            or the :class:`~repro.core.codematrix.CodeMatrix` the
            analytic backend was given).
        ipcs: the N x K float64 IPC panel.
        instructions: simulated (or, for the analytic model, modelled)
            uops, the basis of MIPS accounting.
        wall_seconds: host wall-clock time of the simulations.
    """

    workloads: Union[Tuple[Workload, ...], CodeMatrix]
    ipcs: np.ndarray
    instructions: int
    wall_seconds: float


@dataclass
class GridRun:
    """Outcome of one (workloads x policies) grid scored in one call.

    The policy-axis counterpart of :class:`BatchRun`: one dispatch
    scores every workload under every policy, so the campaign engine's
    per-policy loop collapses into a single dispatch.

    Attributes:
        workloads: the simulated rows, in row order (as given: a
            workload tuple or a code matrix).
        policies: the policies, in axis-1 order.
        ipcs: the N x P x K float64 IPC panel.
        instructions: simulated (or modelled) uops over the whole grid,
            each policy's counted as its own run would count them.
        wall_seconds: host wall-clock time the grid took.
    """

    workloads: Union[Tuple[Workload, ...], CodeMatrix]
    policies: Tuple[str, ...]
    ipcs: np.ndarray
    instructions: int
    wall_seconds: float

    def panel(self, policy: str) -> np.ndarray:
        """The N x K slice of one policy (bit-identical to its
        single-policy ``run_batch`` panel)."""
        return self.ipcs[:, self.policies.index(policy), :]


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


def interleave(steppers: Sequence, meters: Sequence[_MeasuredThread],
               until: Optional[Callable[[], bool]] = None) -> bool:
    """Advance steppers in global time order until every meter has measured.

    A stepper (detailed core, BADCO or interval machine) has
    ``local_time``, ``executed`` and an ``advance()`` returning its new
    local time; past the end of its trace or model, ``advance`` rewinds
    it itself.  Each step advances the unfinished thread with the
    smallest local time (lowest core index on ties), after advancing
    once, in core order, every finished thread behind it: finished
    threads restart and keep running so slower ones see realistic
    contention (Section IV-A).  Unfinished threads wait in a heap of
    ``(local time, core index)``, whose top is exactly that thread;
    finished threads' local times and the bound ``advance`` methods live
    in local lists, so a step reads no attribute of an idle thread.

    Between steps those lists hold nothing the steppers and meters do
    not: the heap is the unmeasured threads at their local times, and
    the finished list the measured ones.  So the loop resumes exactly:
    with ``until``, it returns False at the first step boundary where
    ``until()`` is true and some thread is still unmeasured, and a
    later call on the same steppers and meters -- or on copies of them
    -- carries on from there.  It returns True once every meter has
    measured.
    """
    times = [stepper.local_time for stepper in steppers]
    advances = [stepper.advance for stepper in steppers]
    running = [(times[index], index) for index, meter in enumerate(meters)
               if meter.end_time is None]
    heapify(running)
    finished = [index for index, meter in enumerate(meters)
                if meter.end_time is not None]
    while running:
        best_time, best = running[0]
        for i in finished:
            if times[i] < best_time:
                times[i] = advances[i]()
        now = advances[best]()
        meter = meters[best]
        meter.observe(steppers[best].executed, now)
        if meter.end_time is None:
            heapreplace(running, (now, best))
        else:
            heappop(running)
            times[best] = now
            finished.append(best)
            finished.sort()
        if until is not None and running and until():
            return False
    return True


class _NoVictim(Exception):
    """A :class:`_PolicyTee` was asked for a victim."""


def _hooks(policies: Sequence[ReplacementPolicy], name: str) -> list:
    """The policies' bound ``name`` hooks, less the base class's no-ops."""
    idle = getattr(ReplacementPolicy, name)
    return [getattr(policy, name) for policy in policies
            if getattr(type(policy), name) is not idle]


class _PolicyTee:
    """Several LLC policies fed the same hook calls, until a victim.

    Every hook call reaches every policy, in order; a hook a policy
    leaves to the base class's no-op is skipped, and a hook only one
    policy uses is bound directly.  The hooks change only a policy's
    own state (BIP's, DIP's and DRRIP's RNG draws and SHIP's
    miss-to-fill signature included; RND draws only in ``victim``), and
    the cache reads a policy only through ``victim``, so until that
    call each policy stands exactly where a run of its own would have
    it.  The tee cannot pick one victim for all of them: ``victim``
    raises :class:`_NoVictim`.
    """

    def __init__(self, policies: Sequence[ReplacementPolicy]) -> None:
        self.num_sets = policies[0].num_sets
        self.ways = policies[0].ways
        hits = _hooks(policies, "on_hit")
        misses = _hooks(policies, "on_miss")
        fills = _hooks(policies, "on_fill")

        def on_hit(set_index: int, way: int) -> None:
            for hook in hits:
                hook(set_index, way)

        def on_miss(set_index: int) -> None:
            for hook in misses:
                hook(set_index)

        def on_fill(set_index: int, way: int) -> None:
            for hook in fills:
                hook(set_index, way)

        self.on_hit = hits[0] if len(hits) == 1 else on_hit
        self.on_miss = misses[0] if len(misses) == 1 else on_miss
        self.on_fill = fills[0] if len(fills) == 1 else on_fill

    def victim(self, set_index: int) -> int:
        raise _NoVictim(set_index)


#: One policy's outcome on one workload: per-core IPCs and uops executed.
_Outcome = Tuple[List[float], int]


def _outcome(steppers: Sequence, meters: Sequence[_MeasuredThread]
             ) -> _Outcome:
    return ([meter.ipc() for meter in meters],
            sum(stepper.executed for stepper in steppers))


def _resume(uncore: Uncore, steppers: Sequence,
            meters: Sequence[_MeasuredThread]) -> _Outcome:
    """Finish a run on a fork of its uncore, from copies of its
    steppers and meters (which stay as they are)."""
    steppers = [stepper.copy(uncore.port(core_id))
                for core_id, stepper in enumerate(steppers)]
    meters = [copy.copy(meter) for meter in meters]
    interleave(steppers, meters)
    return _outcome(steppers, meters)


class EventDrivenSimulator:
    """K steppers sharing one uncore, under the rules of Section IV-A.

    The one ``run`` of the event-driven families: each core of a
    workload gets a port of a fresh uncore and the stepper
    :meth:`_stepper` makes for its benchmark, and :func:`interleave`
    runs them until every thread has measured its first pass.
    Subclasses give ``_stepper(benchmark, port)`` -- a stepper as
    :func:`interleave` describes it -- plus whatever it needs.  A family
    whose steppers also ``copy(port)`` themselves declares
    :attr:`supports_policy_axis`.

    Args:
        cores: number of cores K (1, 2, 4 or 8).
        policy: LLC replacement policy name.
        trace_length: uops per thread (the paper's "100 M instructions",
            scaled).
        warmup_fraction: unmeasured fraction at the start of each
            thread (see module docstring).
        seed: trace and policy seed; fixed seeds make runs reproducible.
        uncore_config: overrides the Table II defaults for K cores.
    """

    #: Whether a row's policies share one run up to the LLC's first
    #: full set (see :meth:`_score`); the engine then hands this family
    #: a whole grid in one ``run_batch_grid`` call.
    supports_policy_axis = False

    def __init__(self, cores: int, policy: str = "LRU",
                 trace_length: int = DEFAULT_TRACE_LENGTH,
                 warmup_fraction: float = 0.25, seed: int = 0,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.cores = cores
        self.policy = policy
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.uncore_config = (uncore_config
                              or uncore_config_for_cores(cores, policy))
        if uncore_config is not None and uncore_config.policy != policy:
            self.uncore_config = uncore_config.with_policy(policy)

    def _stepper(self, benchmark: str, port: UncorePort) -> Any:
        """The machine one core runs ``benchmark`` on, behind ``port``."""
        raise NotImplementedError

    def _check(self, workload: Workload) -> None:
        if workload.k != self.cores:
            raise ValueError(
                f"workload has {workload.k} threads, machine has "
                f"{self.cores} cores")

    def run(self, workload: Workload) -> WorkloadRun:
        """Simulate one workload; returns measured per-core IPCs."""
        self._check(workload)
        started = time.perf_counter()
        (ipcs, instructions), = self._score(workload, (self.policy,))
        return WorkloadRun(workload, ipcs, instructions,
                           time.perf_counter() - started)

    def _score(self, workload: Workload,
               policies: Sequence[str]) -> List[_Outcome]:
        """Each policy's outcome on one workload, of any thread count
        (:meth:`reference_ipc` runs one thread on this machine).

        One policy runs alone.  Several share one run, with their LLC
        hooks fed through a :class:`_PolicyTee`, up to the first step
        boundary at which some LLC set is full.  A run that ends before
        that is every policy's.  Otherwise each policy but the last
        finishes on a fork of the uncore (:meth:`Uncore.fork`) with
        copies of the steppers and meters, one fork alive at a time,
        and the last finishes on the original.  Should the step that
        fills the first set also need a victim, the tee refuses and
        every policy runs alone.  Families without
        :attr:`supports_policy_axis` run every policy alone.
        """
        if len(policies) > 1 and not self.supports_policy_axis:
            return [self._score(workload, (policy,))[0]
                    for policy in policies]
        llc_config = self.uncore_config.llc
        made = [make_policy(policy, llc_config.num_sets, llc_config.ways,
                            seed=self.seed) for policy in policies]
        uncore = Uncore(self.uncore_config, policy=(
            made[0] if len(made) == 1 else _PolicyTee(made)))
        steppers = [self._stepper(benchmark, uncore.port(core_id))
                    for core_id, benchmark in enumerate(workload)]
        warmup = int(self.trace_length * self.warmup_fraction)
        meters = [_MeasuredThread(warmup, self.trace_length)
                  for _ in steppers]
        if len(made) == 1:
            interleave(steppers, meters)
            return [_outcome(steppers, meters)]
        llc = uncore.llc
        try:
            if interleave(steppers, meters, lambda: llc.full_sets > 0):
                return [_outcome(steppers, meters)] * len(made)
        except _NoVictim:
            return [self._score(workload, (policy,))[0]
                    for policy in policies]
        outcomes = [_resume(uncore.fork(policy), steppers, meters)
                    for policy in made[:-1]]
        llc.use_policy(made[-1])
        interleave(steppers, meters)
        return outcomes + [_outcome(steppers, meters)]

    def run_batch(self, workloads,
                  policies: Optional[Sequence[str]] = None
                  ) -> Union[BatchRun, GridRun]:
        """Simulate every workload in order; returns the N x K panel.

        Every run builds its own uncore from fixed seeds, so the panel
        equals the stacked per-workload ``run`` results bit for bit.
        ``workloads`` is a workload sequence or a code matrix, and
        ``wall_seconds`` the time the simulations took.

        With ``policies``, every workload is scored under each of them
        (see :meth:`_score`) and the result is the N x P x K
        :class:`GridRun`; each policy's slice, and the uops counted for
        it, equal its own ``run_batch`` bit for bit.
        """
        if isinstance(workloads, CodeMatrix):
            workloads = workloads.workloads()
        workloads = tuple(workloads)
        names = (self.policy,) if policies is None else tuple(policies)
        if not names:
            raise ValueError("need at least one policy")
        ipcs = np.empty((len(workloads), len(names), self.cores),
                        dtype=np.float64)
        instructions = 0
        started = time.perf_counter()
        for row, workload in enumerate(workloads):
            self._check(workload)
            for column, (row_ipcs, executed) in enumerate(
                    self._score(workload, names)):
                ipcs[row, column] = row_ipcs
                instructions += executed
        wall = time.perf_counter() - started
        if policies is None:
            return BatchRun(workloads, ipcs[:, 0, :], instructions, wall)
        return GridRun(workloads, names, ipcs, instructions, wall)

    def run_batch_grid(self, workloads, policies: Sequence[str]) -> GridRun:
        """The N x P x K grid of ``workloads`` under ``policies``: the
        policy-axis entry point the engine calls (:meth:`run_batch`)."""
        return self.run_batch(workloads, policies)

    def reference_ipc(self, benchmark: str) -> float:
        """Single-thread IPC of a benchmark on this machine (alone).

        The paper's IPCref[b]: "the IPC of the benchmark running alone
        on the reference machine".  The thread runs alone on one core
        of this machine, against the full uncore of its core count.
        """
        (ipcs, _), = self._score(Workload([benchmark]), (self.policy,))
        return ipcs[0]


class DetailedSimulator(EventDrivenSimulator):
    """Simulate workloads on K detailed cores sharing an uncore.

    Args:
        cores / policy / trace_length / warmup_fraction / seed /
            uncore_config: as in :class:`EventDrivenSimulator`.
        core_config: overrides the Table I core defaults.
    """

    name = "detailed"

    def __init__(self, cores: int, policy: str = "LRU",
                 trace_length: int = DEFAULT_TRACE_LENGTH,
                 warmup_fraction: float = 0.25, seed: int = 0,
                 core_config: Optional[CoreConfig] = None,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        super().__init__(cores, policy, trace_length, warmup_fraction, seed,
                         uncore_config)
        self.core_config = core_config or default_core_config()

    def _stepper(self, benchmark: str, port: UncorePort) -> DetailedCore:
        trace = cached_trace(benchmark, self.trace_length, self.seed)
        return DetailedCore(self.core_config, trace, port)


class TrainedModelBuilder:
    """Builds (and memoises) one trained model per benchmark.

    The one ``build`` of the trained families (BADCO node models and
    interval profiles): a model comes from the memo, else from the
    attached model store (see :mod:`repro.sim.modelstore`), else from
    training, which the store then keeps.  Stored models round-trip
    bit-identically, so campaigns against a warm store reproduce
    cold-run results exactly while performing zero training runs.
    Subclasses give ``_store_signature()``, the store's
    ``_load(benchmark, signature)`` / ``_save(model, signature)`` pair
    and ``_train(benchmark, trace)``, which runs the detailed core
    through :meth:`_training_run`.

    Args:
        trace_length: uops per benchmark trace.
        seed: trace seed (must match the campaign's seed).
        core_config: detailed-core configuration used for training.
        store: optional :class:`~repro.sim.modelstore.ModelStore`.
    """

    def __init__(self, trace_length: int = DEFAULT_TRACE_LENGTH,
                 seed: int = 0, core_config: Optional[CoreConfig] = None,
                 store: Optional[Any] = None) -> None:
        self.trace_length = trace_length
        self.seed = seed
        self.core_config = core_config or default_core_config()
        self.store = store
        self._cache: Dict[str, Any] = {}
        #: Detailed-simulation uops spent training (Section VII-A
        #: charges this cost to the workload-stratification budget).
        self.training_uops = 0
        #: Detailed training runs actually performed (0 for store or
        #: memory hits).
        self.training_runs = 0

    def use_store(self, store: Optional[Any]) -> None:
        """Attach (or detach) a persistent model store."""
        self.store = store

    def build(self, benchmark: str) -> Any:
        """The model of one benchmark: memo, then store, then training."""
        model = self._cache.get(benchmark)
        if model is not None:
            return model
        signature = None
        if self.store is not None:
            signature = self._store_signature()
            model = self._load(benchmark, signature)
            if model is not None and model.trace_length != self.trace_length:
                model = None     # signature collision; retrain
        if model is None:
            model = self._train(
                benchmark, cached_trace(benchmark, self.trace_length,
                                        self.seed))
            if signature is not None:
                self._save(model, signature)
        self._cache[benchmark] = model
        return model

    def _training_run(self, trace: Trace, latency: int
                      ) -> Tuple[List[float], List[RequestEvent]]:
        """One counted detailed run of ``trace`` against an uncore that
        answers every request after ``latency`` cycles."""
        self.training_uops += self.trace_length
        self.training_runs += 1
        return fixed_latency_run(trace, self.core_config, latency)
