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

One standalone *anchor* per (benchmark, policy) -- the benchmark's
BADCO machine alone against the target uncore, the one run both
backends' ``reference_ipc`` read
(:meth:`~repro.sim.badco.model.BadcoModelBuilder.anchor`) -- calibrates
the model: it yields the standalone IPC, the standalone LLC demand miss
ratio ``m0`` and the average extra latency a miss costs beyond a hit.
An anchor whose LLC never evicts is the same under every policy, so
such pairs calibrate identically and are simulated once.  A
replacement policy reaches the model only through these anchors.  The
shared-cache closure then scales miss ratios with co-runner pressure:

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
from typing import Dict, Optional, Sequence, get_type_hints

import numpy as np

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.core.codematrix import CodeMatrix
from repro.core.workload import Workload
from repro.mem.uncore import UncoreConfig, uncore_config_for_cores
from repro.sim.badco.model import BadcoModelBuilder, Calibration
from repro.sim.detailed import BatchRun, GridRun, WorkloadRun

#: Bus utilisation is clipped below saturation so the queueing term
#: stays finite; beyond this the linear-rate estimate is meaningless
#: anyway.
MAX_BUS_UTILISATION = 0.95

#: Cells (rows x policies x cores) per block of the grid closure:
#: 8 192 float64 values, so each block temporary is 64 KiB.
GRID_BLOCK_CELLS = 8192


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


#: A stored ``vector`` record's fields, each with its one exact type.
_VECTOR_FIELDS = {name: (kind,) for name, kind
                  in get_type_hints(BenchmarkVector).items()}


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


class AnalyticModelBuilder:
    """Flattens BADCO node models and calibrates standalone anchors.

    Wraps a :class:`~repro.sim.badco.model.BadcoModelBuilder` (shared
    when given, so ``badco`` and ``analytic`` campaigns in one session
    train each benchmark once and share its standalone anchors) and
    memoises the flattened vectors.

    With a model *store* attached (see :mod:`repro.sim.modelstore`) the
    flattened vectors and calibration anchors persist alongside the
    BADCO node models: a warm campaign loads them instead
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
        if (self.badco.trace_length, self.badco.seed) != (trace_length, seed):
            raise ValueError("badco builder trace length or seed does not "
                             "match")
        self.store = None
        if store is not None:
            self.use_store(store)
        self._vectors: Dict[str, BenchmarkVector] = {}

    def use_store(self, store: Optional[object]) -> None:
        """Attach a persistent model store (shared with the BADCO builder)."""
        self.store = store
        self.badco.use_store(store)

    @property
    def training_uops(self) -> int:
        """Detailed-simulation uops spent training BADCO models."""
        return self.badco.training_uops

    @property
    def calibration_runs(self) -> int:
        """Standalone anchors simulated so far (the wrapped BADCO
        builder's ``anchor_runs``).  Zero against a warm store."""
        return self.badco.anchor_runs

    @property
    def training_runs(self) -> int:
        """Model-building runs performed so far: the wrapped BADCO
        builder's detailed training runs plus its anchor runs.  Zero
        against a warm store."""
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
            payload = self.store.load_record("vector", benchmark, signature,
                                             _VECTOR_FIELDS)
            if payload is not None:
                vector = BenchmarkVector(**payload)
        if vector is None:
            vector = _flatten(self.badco.build(benchmark))
            if self.store is not None:
                self.store.save_record("vector", benchmark, signature,
                                       asdict(vector))
        self._vectors[benchmark] = vector
        return vector

    def calibrate(self, benchmark: str, uncore_config: UncoreConfig,
                  warmup_fraction: float = 0.25) -> Calibration:
        """Standalone anchor of one benchmark: the wrapped BADCO
        builder's :meth:`~repro.sim.badco.model.BadcoModelBuilder.anchor`,
        the run the ``badco`` backend's ``reference_ipc`` reads too."""
        return self.badco.anchor(benchmark, uncore_config, warmup_fraction)

    def protection(self, uncore_config: UncoreConfig,
                   warmup_fraction: float = 0.25) -> float:
        """Always 0.0: a policy reaches the closure only through its
        standalone anchors, and nothing in the package calls this.

        It stays because the benchmark's tracer (``perfbench/
        tracing.py``) lists it in ``WRAPPED``, and ``Tracer.install``
        raises ``AttributeError`` on a missing target.
        """
        return 0.0

    def prepare(self, benchmarks: Sequence[str], policies: Sequence[str],
                cores: int, warmup_fraction: float = 0.25) -> None:
        """Train and calibrate everything a grid will need.

        The campaign engine calls this before forking workers, so the
        pool inherits trained models and calibrations instead of
        re-deriving them per process.
        """
        for policy in policies:
            config = uncore_config_for_cores(cores, policy)
            for benchmark in benchmarks:
                self.vectors(benchmark)
                self.calibrate(benchmark, config, warmup_fraction)

    def __repr__(self) -> str:
        return (f"AnalyticModelBuilder(length={self.trace_length}, "
                f"vectors={len(self._vectors)})")


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
    #: The engine hands this family a whole grid (:meth:`run_batch_grid`).
    supports_policy_axis = True

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
        """Score a whole (workloads x policies) grid in one dispatch.

        The policy axis rides along as the leading gather dimension:
        every array operation of the contention closure broadcasts over
        it, so the N x P x K panel costs one pass over the expression
        instead of P per-policy evaluations -- and each policy's slice
        is bit-identical to its single-policy :meth:`run_batch` panel
        (the reductions run along the core axis only).

        The closure runs in row blocks of ``GRID_BLOCK_CELLS // (P*K)``
        rows (1 024 at P = 2, K = 4), each written straight into the
        N x P x K result, so every float64 temporary stays within
        64 KiB and cache-resident instead of growing with the frame.
        Rows are independent (see :meth:`run_batch`), so the blocking
        changes no bit.

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
        # are the builder's, so GridRun.wall_seconds measures only the
        # array evaluation.
        vectors = self._gather(benchmarks, policies)
        started = time.perf_counter()
        # Re-code the rows over the benchmarks they use (the gathered
        # vectors' column order).
        lookup = np.zeros(rows.num_benchmarks, dtype=np.int64)
        lookup[used] = np.arange(len(used))
        codes = lookup[rows.codes]
        ipcs = np.empty((len(rows), len(policies), self.cores))
        block = max(1, GRID_BLOCK_CELLS // (len(policies) * self.cores))
        for start in range(0, len(rows), block):
            stop = start + block
            ipcs[start:stop] = self._evaluate(
                vectors, codes[start:stop]).transpose(1, 0, 2)
        instructions = (len(rows) * len(policies) * self.cores
                        * self.trace_length)
        return GridRun(workloads, policies, ipcs, instructions,
                       time.perf_counter() - started)

    def _evaluate(self, vec: Dict[str, np.ndarray],
                  codes: np.ndarray) -> np.ndarray:
        """The model itself: P x N x K IPCs from gathered P x B vectors.

        Every step is element-wise or reduces along the trailing core
        axis, so each policy's N x K slice computes exactly as a
        single-policy evaluation would -- the policy axis is pure
        broadcast.  Terms that depend only on the benchmark (the
        standalone pass time, the standalone hit ratio and the
        equal-share residency bound) are computed at P x B and gathered
        once: a gather is a copy, so an element-wise expression over
        gathered operands equals the gather of the same expression, bit
        for bit.  The gathers are normalised to C order: advanced
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

        # Every thread feels the whole workload's footprint pressing on
        # the shared LLC.  Footprints are line counts, so the sum is
        # exact in float64.
        felt = gather(vec["footprint"]).sum(axis=-1)[..., None]  # P x N x 1
        # Fraction of each thread's lines resident alone vs shared: the
        # LLC splits proportionally to footprint (residency C/F_felt),
        # but reuse keeps every thread at least its equal share C/K --
        # so a tiny hot set co-running with a streaming thread is not
        # evicted wholesale, while same-size thrashers split the cache.
        alone_resident = np.minimum(1.0, llc_lines / vec["footprint"])
        equal_share = llc_lines / (codes.shape[1] * vec["footprint"])
        shared_resident = np.minimum(1.0, np.maximum(
            llc_lines / np.maximum(felt, 1.0), gather(equal_share)))
        survival = np.minimum(
            1.0, shared_resident / gather(alone_resident))
        # A standalone hit survives sharing with probability `survival`.
        miss_ratio = 1.0 - gather(1.0 - vec["miss_ratio"]) * survival

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
        alone_time = (vec["intrinsic"] + vec["sensitivity"]
                      * vec["miss_ratio"] * vec["extra"])        # P x B
        shared_time = (gather(vec["intrinsic"])
                       + gather(vec["sensitivity"]) * miss_ratio * extra)
        return gather(vec["alone_ipc"]) * (gather(alone_time)
                                           / np.maximum(shared_time, 1.0))

    # ------------------------------------------------------------------

    def run(self, workload: Workload) -> WorkloadRun:
        """Score one workload (a one-row batch)."""
        batch = self.run_batch([workload])
        return WorkloadRun(workload, batch.ipcs[0].tolist(),
                           batch.instructions, batch.wall_seconds)

    def reference_ipc(self, benchmark: str) -> float:
        """Standalone IPC from the calibration anchor.

        The ``badco`` backend's ``reference_ipc`` for the same
        configuration, bit for bit: both read the same stored anchor
        (:meth:`~repro.sim.badco.model.BadcoModelBuilder.anchor`), which
        a shared BADCO builder runs once for both.
        """
        return self.builder.calibrate(
            benchmark, self.uncore_config, self.warmup_fraction).ipc

    def __repr__(self) -> str:
        return (f"AnalyticSimulator(cores={self.cores}, "
                f"policy={self.policy!r}, length={self.trace_length})")
