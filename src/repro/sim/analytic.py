"""The analytic backend: array-evaluated BADCO, one NumPy call per panel.

The BADCO machine already reduces a benchmark to per-node (intrinsic,
sensitivity) pairs and closes the model by *measuring* each request's
latency against an event-driven uncore.  This module takes the paper's
idea one level further: collapse each benchmark's node model into a few
scalars and close the uncore term *analytically*, so an entire
N-workload x K-core IPC panel is a handful of NumPy array operations
instead of N Python event loops.

Per benchmark ``b`` the node model flattens to (policy-independent):

- ``intrinsic[b]``   -- total core-limited cycles, sum of node d1;
- ``sensitivity[b]`` -- sum of node sensitivities: cycles of stall per
  cycle of average request latency beyond a hit;
- ``requests[b]``    -- demand (blocking) reads issued per pass;
- ``footprint[b]``   -- distinct cache lines touched.

One cheap *calibration* run per (benchmark, policy) -- the benchmark's
BADCO machine alone against the target uncore, the same run
``reference_ipc`` already pays for -- anchors the model: it yields the
standalone IPC, the standalone LLC demand miss ratio ``m0`` and the
average extra latency a miss costs beyond a hit.  The shared-cache
closure then scales miss ratios with co-runner pressure:

- every thread's resident fraction shrinks from ``min(1, C/F_b)`` alone
  to ``min(1, C/F_total)`` under proportional sharing of the C-line LLC,
  so a fraction ``s`` of its standalone hits survive;
- the front-side bus adds an M/M/1-style queueing term driven by the
  workload's aggregate miss traffic.

Predicted per-thread time is ``intrinsic + sensitivity * m * extra``
with the workload-dependent miss ratio ``m`` and per-miss latency
``extra``; IPC is reported relative to the calibrated standalone point,
so a workload without contention reproduces the benchmark's reference
IPC exactly.  Accuracy against the event-driven ``badco`` backend is
bounded by ``tests/test_analytic.py``; the trade is the paper's own
(Section IV): a cheaper model that preserves d(w) statistics well
enough for confidence estimation.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.core.codematrix import CodeMatrix
from repro.core.workload import Workload
from repro.mem.uncore import Uncore, UncoreConfig, uncore_config_for_cores
from repro.sim.badco.machine import BadcoMachine
from repro.sim.badco.model import BadcoModelBuilder
from repro.sim.detailed import WorkloadRun, _MeasuredThread, interleave

#: Bus utilisation is clipped below saturation so the queueing term
#: stays finite; beyond this the linear-rate estimate is meaningless
#: anyway.
MAX_BUS_UTILISATION = 0.95

#: The policy probe pair: a benchmark with a reusable LLC-resident
#: region and a pure streamer.  How much of the reuser's standalone IPC
#: a policy recovers when the two co-run measures the policy's scan
#: resistance -- the trait that separates DIP/DRRIP from LRU in the
#: paper's case study.
PROBE_REUSER = "gcc"
PROBE_STREAMER = "libquantum"


@dataclass(frozen=True)
class BenchmarkVector:
    """One benchmark's node model flattened to scalars.

    Attributes:
        uops: uops per pass (the trace length).
        intrinsic: total core-limited cycles per pass (sum of node d1).
        sensitivity: summed node sensitivities -- the stall cycles per
            cycle of average demand-request latency beyond a hit.
        requests: demand (blocking) reads per pass.
        footprint_lines: distinct cache lines touched (demand reads
            plus replayed non-blocking traffic).
    """

    uops: int
    intrinsic: float
    sensitivity: float
    requests: int
    footprint_lines: int


#: The field types a stored ``vector`` record must carry exactly.
_VECTOR_TYPES = {"uops": int, "intrinsic": float, "sensitivity": float,
                 "requests": int, "footprint_lines": int}


def _vector_from_record(payload) -> Optional[BenchmarkVector]:
    """A stored ``vector`` record as a :class:`BenchmarkVector`, or None
    unless it has exactly the vector's fields with their exact types."""
    if not isinstance(payload, dict) or set(payload) != set(_VECTOR_TYPES):
        return None
    if any(type(payload[name]) is not kind
           for name, kind in _VECTOR_TYPES.items()):
        return None
    return BenchmarkVector(**payload)


def _flatten(model) -> BenchmarkVector:
    """A BADCO node model reduced to the scalars the closure reads."""
    lines = set()
    requests = 0
    intrinsic = 0.0
    sensitivity = 0.0
    for node in model.nodes:
        intrinsic += node.intrinsic
        if node.read_address is not None:
            requests += 1
            sensitivity += node.sensitivity
            lines.add(node.read_address >> 6)
        for address, _ in node.extra_requests:
            lines.add(address >> 6)
    return BenchmarkVector(
        uops=model.trace_length, intrinsic=intrinsic,
        sensitivity=sensitivity, requests=requests,
        footprint_lines=max(len(lines), 1))


@dataclass(frozen=True)
class Calibration:
    """Standalone anchor of one (benchmark, policy, uncore) triple.

    Attributes:
        ipc: measured standalone IPC (bit-identical to the ``badco``
            backend's ``reference_ipc`` for the same configuration).
        cycles: local time of one full standalone pass.
        miss_ratio: LLC demand miss ratio running alone.
        extra_per_miss: average cycles a demand miss cost beyond the
            LLC hit latency.
    """

    ipc: float
    cycles: float
    miss_ratio: float
    extra_per_miss: float


@dataclass
class BatchRun:
    """Outcome of simulating many workloads in one array operation.

    The batch counterpart of :class:`~repro.sim.detailed.WorkloadRun`:
    row ``i`` of :attr:`ipcs` is the per-core IPC vector of
    ``workloads[i]`` (workload-sorted benchmark order, as everywhere).

    Attributes:
        workloads: the simulated rows, in row order (a workload tuple,
            or the :class:`~repro.core.codematrix.CodeMatrix` the
            analytic backend was given).
        ipcs: the N x K float64 IPC panel.
        instructions: modelled uops (one pass per thread; the analytic
            model has no restarts), the basis of MIPS accounting.
        wall_seconds: host wall-clock time of the batch evaluation.
    """

    workloads: Union[Tuple[Workload, ...], CodeMatrix]
    ipcs: np.ndarray
    instructions: int
    wall_seconds: float


@dataclass
class GridRun:
    """Outcome of one (workloads x policies) grid evaluated at once.

    The policy-axis counterpart of :class:`BatchRun`: one closure call
    scores every workload under every policy, so the campaign engine's
    per-policy loop collapses into a single dispatch.

    Attributes:
        workloads: the simulated rows, in row order (as given: a
            workload tuple or a code matrix).
        policies: the policies, in axis-1 order.
        ipcs: the N x P x K float64 IPC panel.
        instructions: modelled uops over the whole grid.
        wall_seconds: host wall-clock time of the array evaluation.
    """

    workloads: Union[Tuple[Workload, ...], CodeMatrix]
    policies: Tuple[str, ...]
    ipcs: np.ndarray
    instructions: int
    wall_seconds: float

    def panel(self, policy: str) -> np.ndarray:
        """The N x K slice of one policy (bit-identical to its
        single-policy :meth:`AnalyticSimulator.run_batch` panel)."""
        return self.ipcs[:, self.policies.index(policy), :]


class AnalyticModelBuilder:
    """Flattens BADCO node models and calibrates standalone anchors.

    Wraps a :class:`~repro.sim.badco.model.BadcoModelBuilder` (shared
    when given, so ``badco`` and ``analytic`` campaigns in one session
    train each benchmark once) and memoises the flattened vectors and
    the per-(benchmark, policy, uncore) calibration runs.

    With a model *store* attached (see :mod:`repro.sim.modelstore`) the
    flattened vectors, calibration anchors and policy probes persist
    alongside the BADCO node models: a warm campaign loads them instead
    of re-deriving them, with bit-identical values (JSON shortest-repr
    round-trips float64 exactly), and never deserialises a node model.

    Args:
        trace_length: uops per benchmark trace.
        seed: trace seed (must match the campaign's seed).
        badco_builder: an existing BADCO builder to share models with.
        store: optional :class:`~repro.sim.modelstore.ModelStore`,
            shared with the wrapped BADCO builder.
    """

    def __init__(self, trace_length: int = DEFAULT_TRACE_LENGTH,
                 seed: int = 0,
                 badco_builder: Optional[BadcoModelBuilder] = None,
                 store: Optional[object] = None) -> None:
        self.trace_length = trace_length
        self.seed = seed
        self.badco = badco_builder or BadcoModelBuilder(trace_length, seed)
        if self.badco.trace_length != trace_length:
            raise ValueError("badco builder trace length does not match")
        self.store = None
        if store is not None:
            self.use_store(store)
        self._vectors: Dict[str, BenchmarkVector] = {}
        self._calibrations: Dict[Tuple[str, str, int, int], Calibration] = {}
        self._protections: Dict[Tuple[str, int, int], float] = {}
        #: Wall-clock spent in standalone calibration runs (the analytic
        #: backend's own training cost, reported by ``repro bench``).
        self.calibration_seconds = 0.0
        self.calibration_runs = 0

    def use_store(self, store: Optional[object]) -> None:
        """Attach a persistent model store (shared with the BADCO builder)."""
        self.store = store
        self.badco.use_store(store)

    def _calibration_signature(self, uncore_config: UncoreConfig,
                               warmup_fraction: float) -> str:
        """Everything a calibration / probe run depends on, digested.

        The anchor replays the benchmark's node model against the
        target uncore with the given warmup metering, so the key
        includes the node model's own store signature (core config,
        trace length, seed, training constants) -- a change that
        retrains the models must also re-anchor the calibrations.
        """
        from repro.sim.modelstore import config_signature

        return config_signature(
            "analytic-calibration", self.trace_length, self.seed,
            warmup_fraction, uncore_config,
            self.badco._store_signature())

    @property
    def training_uops(self) -> int:
        """Detailed-simulation uops spent training BADCO models."""
        return self.badco.training_uops

    @property
    def training_runs(self) -> int:
        """Model-building runs performed so far: the wrapped BADCO
        builder's detailed training runs plus this builder's own
        calibration and probe runs.  Zero against a warm store."""
        return self.badco.training_runs + self.calibration_runs

    def build(self, benchmark: str):
        """Train (or fetch) the benchmark's BADCO model.

        Same signature as the BADCO builder's, so the campaign engine's
        pre-fork training hook works unchanged.
        """
        return self.badco.build(benchmark)

    def vectors(self, benchmark: str) -> BenchmarkVector:
        """The flattened node model of one benchmark (memoised).

        With a store attached the vector persists as a ``vector`` record
        keyed by the node model's own store signature, so a warm
        campaign reads five scalars instead of deserialising the whole
        node model.  A record that is missing, unreadable or has the
        wrong fields or types is re-derived from the model and saved.
        """
        vector = self._vectors.get(benchmark)
        if vector is not None:
            return vector
        if self.store is not None:
            signature = self.badco._store_signature()
            vector = _vector_from_record(
                self.store.load_record("vector", benchmark, signature))
        if vector is None:
            vector = _flatten(self.badco.build(benchmark))
            if self.store is not None:
                self.store.save_record("vector", benchmark, signature,
                                       asdict(vector))
        self._vectors[benchmark] = vector
        return vector

    def calibrate(self, benchmark: str, uncore_config: UncoreConfig,
                  warmup_fraction: float = 0.25) -> Calibration:
        """Standalone anchor run of one benchmark (memoised).

        Replays the benchmark's BADCO machine alone against a fresh
        uncore -- exactly the run the ``badco`` backend's
        ``reference_ipc`` performs -- while also counting LLC misses
        and demand latencies.
        """
        key = (benchmark, uncore_config.policy, uncore_config.llc_size,
               uncore_config.llc_latency)
        calibration = self._calibrations.get(key)
        if calibration is not None:
            return calibration
        if self.store is not None:
            signature = self._calibration_signature(uncore_config,
                                                    warmup_fraction)
            payload = self.store.load_record(
                "calib", f"{benchmark}-{uncore_config.policy}", signature)
            if payload is not None \
                    and set(payload) == {"ipc", "cycles", "miss_ratio",
                                         "extra_per_miss"} \
                    and all(type(value) in (int, float)
                            for value in payload.values()):
                calibration = Calibration(**payload)
                self._calibrations[key] = calibration
                return calibration
        started = time.perf_counter()
        model = self.badco.build(benchmark)
        uncore = Uncore(uncore_config, seed=self.seed)
        latency_total = 0.0
        demand_reads = 0

        def access(core_id: int, address: int, now: int, is_write: bool,
                   pc: int, is_prefetch: bool) -> int:
            nonlocal latency_total, demand_reads
            done = uncore.access(core_id, address, now, is_write, pc,
                                 is_prefetch)
            if not is_write and not is_prefetch:
                latency_total += done - now
                demand_reads += 1
            return done

        machine = BadcoMachine(0, model, access)
        warmup = int(self.trace_length * warmup_fraction)
        meter = _MeasuredThread(warmup, self.trace_length)
        interleave([machine], [meter])
        stats = uncore.llc.stats
        accesses = max(stats.demand_accesses, 1)
        misses = stats.demand_misses
        miss_ratio = misses / accesses
        hit_latency = uncore_config.llc_latency
        if misses > 0:
            extra = max((latency_total - demand_reads * hit_latency) / misses,
                        1.0)
        else:
            # No misses observed: fall back to the raw memory round trip.
            extra = float(uncore_config.memory.dram_latency
                          + uncore_config.memory.transfer_cycles)
        calibration = Calibration(
            ipc=meter.ipc(), cycles=machine.local_time,
            miss_ratio=miss_ratio, extra_per_miss=extra)
        self._calibrations[key] = calibration
        self.calibration_seconds += time.perf_counter() - started
        self.calibration_runs += 1
        if self.store is not None:
            self.store.save_record(
                "calib", f"{benchmark}-{uncore_config.policy}",
                self._calibration_signature(uncore_config, warmup_fraction),
                {"ipc": calibration.ipc, "cycles": calibration.cycles,
                 "miss_ratio": calibration.miss_ratio,
                 "extra_per_miss": calibration.extra_per_miss})
        return calibration

    def _probe_pair_ipc(self, uncore_config: UncoreConfig,
                        warmup_fraction: float,
                        reuser: str = PROBE_REUSER,
                        streamer: str = PROBE_STREAMER) -> float:
        """Reuser IPC of a probe pair under one policy's uncore."""
        from repro.sim.badco.multicore import BadcoSimulator

        if reuser == streamer:
            raise ValueError("probe pair needs two distinct benchmarks")
        simulator = BadcoSimulator(
            cores=2, policy=uncore_config.policy, builder=self.badco,
            trace_length=self.trace_length,
            warmup_fraction=warmup_fraction, seed=self.seed,
            uncore_config=uncore_config)
        workload = Workload([reuser, streamer])
        run = simulator.run(workload)
        # Workloads canonicalise sorted, so locate the reuser's core.
        return run.ipcs[list(workload).index(reuser)]

    def probe_protection(self, uncore_config: UncoreConfig,
                         warmup_fraction: float, reuser: str,
                         streamer: str) -> float:
        """Scan resistance measured with one specific probe pair.

        The same three-run experiment :meth:`protection` performs for
        its canonical gcc+libquantum pair, for an arbitrary
        (reuser, streamer) pair: the reuser's IPC alone (calibration),
        next to the streamer under LRU (the unprotected baseline), and
        next to the streamer under this policy.  Returns
        ``clip((paired - baseline) / (alone - baseline), 0, 1)`` -- 0
        when the pair exposes no protectable headroom at all (e.g. an
        L1-resident reuser), exactly like the canonical probe.
        Performs up to three simulator runs per call (the alone run is
        memoised with the calibrations); LRU is 0 by definition.
        """
        if uncore_config.policy == "LRU":
            return 0.0
        baseline_config = uncore_config.with_policy("LRU")
        baseline = self._probe_pair_ipc(baseline_config, warmup_fraction,
                                        reuser, streamer)
        paired = self._probe_pair_ipc(uncore_config, warmup_fraction,
                                      reuser, streamer)
        alone = self.calibrate(reuser, uncore_config, warmup_fraction).ipc
        headroom = alone - baseline
        if headroom <= 1e-12:
            return 0.0
        return min(max((paired - baseline) / headroom, 0.0), 1.0)

    def probe_matrix(self, uncore_config: UncoreConfig,
                     reusers: Sequence[str],
                     streamers: Sequence[str] = (PROBE_STREAMER,),
                     warmup_fraction: float = 0.25
                     ) -> Dict[Tuple[str, str], float]:
        """Per-pair scan-resistance matrix for validation studies.

        Measures :meth:`probe_protection` for every (reuser, streamer)
        combination, so the single-pair assumption behind the
        production :meth:`protection` probe can be checked against
        representatives of each benchmark class instead of trusted
        blindly.  Not memoised and not persisted -- this is an
        offline validation tool, not part of the scoring path.
        """
        return {(reuser, streamer):
                self.probe_protection(uncore_config, warmup_fraction,
                                      reuser, streamer)
                for reuser in reusers for streamer in streamers}

    def protection(self, uncore_config: UncoreConfig,
                   warmup_fraction: float = 0.25) -> float:
        """The policy's scan resistance on this uncore, in [0, 1].

        0 means the policy protects a co-running reuse region no better
        than LRU; 1 means the reuser keeps its full standalone IPC next
        to a streamer.  Measured once per (policy, LLC) with two probe
        runs (memoised; LRU is 0 by definition and pays nothing).
        """
        key = (uncore_config.policy, uncore_config.llc_size,
               uncore_config.llc_latency)
        value = self._protections.get(key)
        if value is not None:
            return value
        if uncore_config.policy == "LRU":
            # 0 by definition: no probe runs, no calibration accounting.
            self._protections[key] = 0.0
            return 0.0
        if self.store is not None:
            signature = self._calibration_signature(uncore_config,
                                                    warmup_fraction)
            payload = self.store.load_record("probe", uncore_config.policy,
                                             signature)
            if payload is not None and isinstance(
                    payload.get("protection"), float):
                self._protections[key] = payload["protection"]
                return payload["protection"]
        started = time.perf_counter()
        baseline_config = uncore_config.with_policy("LRU")
        baseline = self._probe_pair_ipc(baseline_config, warmup_fraction)
        paired = self._probe_pair_ipc(uncore_config, warmup_fraction)
        alone = self.calibrate(PROBE_REUSER, uncore_config,
                               warmup_fraction).ipc
        headroom = alone - baseline
        if headroom <= 1e-12:
            value = 0.0
        else:
            value = min(max((paired - baseline) / headroom, 0.0), 1.0)
        self._protections[key] = value
        self.calibration_seconds += time.perf_counter() - started
        self.calibration_runs += 1
        if self.store is not None:
            self.store.save_record(
                "probe", uncore_config.policy,
                self._calibration_signature(uncore_config, warmup_fraction),
                {"protection": value})
        return value

    def prepare(self, benchmarks: Sequence[str], policies: Sequence[str],
                cores: int, warmup_fraction: float = 0.25) -> None:
        """Train and calibrate everything a grid will need.

        The campaign engine calls this before forking workers, so the
        pool inherits trained models and calibrations instead of
        re-deriving them per process.
        """
        for policy in policies:
            config = uncore_config_for_cores(cores, policy)
            if cores > 1:
                self.protection(config, warmup_fraction)
            for benchmark in benchmarks:
                self.vectors(benchmark)
                self.calibrate(benchmark, config, warmup_fraction)

    def __repr__(self) -> str:
        return (f"AnalyticModelBuilder(length={self.trace_length}, "
                f"vectors={len(self._vectors)}, "
                f"calibrations={len(self._calibrations)})")


class AnalyticSimulator:
    """Scores whole workload panels with the flattened BADCO model.

    Offers the same ``run`` / ``reference_ipc`` contract as the
    event-driven simulators plus the batch entry point ``run_batch``;
    ``run`` is a one-row batch, so the loop and batch paths are
    bit-identical by construction.

    Args:
        cores: number of cores K.
        policy: LLC replacement policy name.
        builder: the shared :class:`AnalyticModelBuilder`.
        trace_length / warmup_fraction / seed: as in
            :class:`repro.sim.detailed.DetailedSimulator`.
    """

    name = "analytic"

    def __init__(self, cores: int, policy: str = "LRU",
                 builder: Optional[AnalyticModelBuilder] = None,
                 trace_length: int = DEFAULT_TRACE_LENGTH,
                 warmup_fraction: float = 0.25, seed: int = 0,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        self.cores = cores
        self.policy = policy
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.builder = builder or AnalyticModelBuilder(trace_length, seed)
        if self.builder.trace_length != trace_length:
            raise ValueError("builder trace length does not match simulator")
        self.uncore_config = (uncore_config
                              or uncore_config_for_cores(cores, policy))
        if uncore_config is not None and uncore_config.policy != policy:
            self.uncore_config = uncore_config.with_policy(policy)

    # ------------------------------------------------------------------

    def _config_for(self, policy: str) -> UncoreConfig:
        """This machine's uncore under another replacement policy."""
        if policy == self.uncore_config.policy:
            return self.uncore_config
        return self.uncore_config.with_policy(policy)

    def _gather(self, benchmarks: Sequence[str],
                policies: Sequence[str]) -> Dict[str, np.ndarray]:
        """Per-(policy, benchmark) model vectors as aligned P x B arrays.

        The node-model rows (uops, intrinsic, sensitivity, requests,
        footprint) are policy-independent and simply repeat per policy;
        the calibration rows are one standalone anchor run per
        (benchmark, policy), memoised in the builder.
        """
        vectors = [self.builder.vectors(b) for b in benchmarks]
        calibrations = [
            [self.builder.calibrate(b, self._config_for(policy),
                                    self.warmup_fraction)
             for b in benchmarks]
            for policy in policies]

        def per_bench(values) -> np.ndarray:
            return np.tile(np.array(values, dtype=np.float64),
                           (len(policies), 1))

        def per_policy(get) -> np.ndarray:
            return np.array([[get(c) for c in row] for row in calibrations],
                            dtype=np.float64)

        return {
            "uops": per_bench([v.uops for v in vectors]),
            "intrinsic": per_bench([v.intrinsic for v in vectors]),
            "sensitivity": per_bench([v.sensitivity for v in vectors]),
            "requests": per_bench([v.requests for v in vectors]),
            "footprint": per_bench([v.footprint_lines for v in vectors]),
            "alone_ipc": per_policy(lambda c: c.ipc),
            "alone_cycles": per_policy(lambda c: c.cycles),
            "miss_ratio": per_policy(lambda c: c.miss_ratio),
            "extra": per_policy(lambda c: c.extra_per_miss),
        }

    def run_batch(self, workloads) -> BatchRun:
        """Score every workload in one set of array operations.

        Rows are independent: the IPCs of a workload do not depend on
        which other workloads share the batch, so any chunking of a
        grid (serial, per-policy, or across worker processes) produces
        bit-identical panels.  A one-policy slice of
        :meth:`run_batch_grid`, so the loop, batch and grid paths are
        bit-identical by construction.
        """
        grid = self.run_batch_grid(workloads, (self.policy,))
        return BatchRun(grid.workloads, grid.ipcs[:, 0, :],
                        grid.instructions, grid.wall_seconds)

    def run_batch_grid(self, workloads, policies: Sequence[str]) -> GridRun:
        """Score a whole (workloads x policies) grid in one closure call.

        The policy axis rides along as the leading gather dimension:
        every array operation of the contention closure broadcasts over
        it, so the N x P x K panel costs one pass over the expression
        instead of P per-policy evaluations -- and each policy's slice
        is bit-identical to its single-policy :meth:`run_batch` panel
        (the reductions run along the core axis only).

        Args:
            workloads: the rows -- a
                :class:`~repro.core.codematrix.CodeMatrix`, scored from
                its codes without building a workload per row, or a
                workload sequence.
            policies: the policies, in axis-1 order.
        """
        policies = tuple(policies)
        if not policies:
            raise ValueError("need at least one policy")
        if not isinstance(workloads, CodeMatrix):
            workloads = tuple(workloads)
        if not len(workloads):
            return GridRun(workloads, policies,
                           np.empty((0, len(policies), self.cores)), 0, 0.0)
        rows = (workloads if isinstance(workloads, CodeMatrix)
                else CodeMatrix.from_workloads(workloads))
        if rows.cores != self.cores:
            raise ValueError(f"workload has {rows.cores} threads, machine "
                             f"has {self.cores} cores")
        used = np.flatnonzero(rows.benchmark_occurrences())
        benchmarks = [rows.benchmarks[code] for code in used.tolist()]
        # Train/calibrate before the clock starts: those one-off costs
        # are accounted in the builder (calibration_seconds), so
        # GridRun.wall_seconds measures only the array evaluation.
        vectors = self._gather(benchmarks, policies)
        if self.cores > 1:
            protections = np.array(
                [self.builder.protection(self._config_for(policy),
                                         self.warmup_fraction)
                 for policy in policies], dtype=np.float64)
        else:
            protections = np.zeros(len(policies))
        started = time.perf_counter()
        # Re-code the rows over the benchmarks they use (the gathered
        # vectors' column order).
        lookup = np.zeros(rows.num_benchmarks, dtype=np.int64)
        lookup[used] = np.arange(len(used))
        ipcs = self._evaluate(vectors, protections, lookup[rows.codes])
        instructions = (len(rows) * len(policies) * self.cores
                        * self.trace_length)
        return GridRun(workloads, policies,
                       np.ascontiguousarray(ipcs.transpose(1, 0, 2)),
                       instructions, time.perf_counter() - started)

    def _evaluate(self, vec: Dict[str, np.ndarray], protections: np.ndarray,
                  codes: np.ndarray) -> np.ndarray:
        """The model itself: P x N x K IPCs from gathered P x B vectors.

        Every step is element-wise or reduces along the trailing core
        axis, so each policy's N x K slice computes exactly as a
        single-policy evaluation would -- the policy axis is pure
        broadcast.  The gathers are normalised to C order: advanced
        indexing ``vec[...][:, codes]`` leaves the policy axis innermost
        for P >= 2, and the core-axis reductions below round differently
        over that layout than over the (trivially contiguous) P == 1
        case -- up to a few ULP, enough to make a singleton-grid
        dispatch disagree with the same policy's slice of a multi-policy
        grid.  With every operand C-contiguous the reduction order is
        shape-independent and the slices are bit-identical for any P.
        """
        config = self.uncore_config
        llc_lines = config.llc_size / config.memory.line_bytes

        def gather(array: np.ndarray) -> np.ndarray:
            """``array[:, codes]`` in C order (P x N x K)."""
            return np.ascontiguousarray(array[:, codes])

        footprint = gather(vec["footprint"])                     # P x N x K
        # Each co-runner pressures the shared LLC with its footprint,
        # discounted by the policy's measured scan resistance times how
        # streaming the co-runner is (its standalone miss ratio): a
        # scan-resistant policy keeps a streamer from flushing its
        # neighbours, which is exactly the DIP/DRRIP-vs-LRU effect the
        # replacement case study turns on.
        per_bench_pressure = (vec["footprint"]
                              * (1.0 - protections[:, None]
                                 * vec["miss_ratio"]))           # P x B
        pressure = gather(per_bench_pressure)                    # P x N x K
        # Pressure felt by thread b: its own full footprint plus the
        # discounted footprints of everyone else.
        felt = pressure.sum(axis=-1)[..., None] - pressure + footprint
        # Fraction of each thread's lines resident alone vs shared: the
        # LLC splits proportionally to pressure (residency C/F_felt),
        # but reuse keeps every thread at least its equal share C/K --
        # so a tiny hot set co-running with a streaming thread is not
        # evicted wholesale, while same-size thrashers split the cache.
        alone_resident = np.minimum(1.0, llc_lines / vec["footprint"])
        shared_resident = np.minimum(1.0, np.maximum(
            llc_lines / np.maximum(felt, 1.0),
            llc_lines / (codes.shape[1] * footprint)))
        survival = np.minimum(
            1.0, shared_resident / gather(alone_resident))
        # A standalone hit survives sharing with probability `survival`.
        miss_ratio = 1.0 - (1.0 - gather(vec["miss_ratio"])) * survival

        # Bus queueing: co-runner miss traffic (misses per cycle, using
        # standalone pass times as the rate basis) occupies the FSB for
        # `transfer` cycles per line; an M/M/1-style term adds the
        # expected wait to every miss.  Each thread sees only the
        # *others'* traffic -- its own queueing is already inside the
        # calibrated extra_per_miss, which keeps a solo thread exactly
        # at its reference IPC.
        transfer = float(config.memory.transfer_cycles)
        rates = (gather(vec["requests"]) * miss_ratio
                 / gather(vec["alone_cycles"]))
        others = rates.sum(axis=-1)[..., None] - rates
        utilisation = np.minimum(others * transfer, MAX_BUS_UTILISATION)
        queue_wait = transfer * utilisation / (1.0 - utilisation)
        extra = gather(vec["extra"]) + queue_wait

        # Per-pass time, alone and shared, from the same expression; the
        # measured standalone IPC anchors the absolute level, so only
        # the contention *ratio* is analytic.
        sensitivity = gather(vec["sensitivity"])
        intrinsic = gather(vec["intrinsic"])
        alone_time = (intrinsic + sensitivity
                      * gather(vec["miss_ratio"]) * gather(vec["extra"]))
        shared_time = intrinsic + sensitivity * miss_ratio * extra
        return gather(vec["alone_ipc"]) * (alone_time
                                           / np.maximum(shared_time, 1.0))

    # ------------------------------------------------------------------

    def run(self, workload: Workload) -> WorkloadRun:
        """Score one workload (a one-row batch)."""
        batch = self.run_batch([workload])
        return WorkloadRun(workload, batch.ipcs[0].tolist(),
                           batch.instructions, batch.wall_seconds)

    def reference_ipc(self, benchmark: str) -> float:
        """Standalone IPC from the calibration run.

        Bit-identical to the ``badco`` backend's ``reference_ipc`` for
        the same configuration: the calibration replays the same
        machine against the same uncore with the same metering.
        """
        return self.builder.calibrate(
            benchmark, self.uncore_config, self.warmup_fraction).ipc

    def __repr__(self) -> str:
        return (f"AnalyticSimulator(cores={self.cores}, "
                f"policy={self.policy!r}, length={self.trace_length})")
