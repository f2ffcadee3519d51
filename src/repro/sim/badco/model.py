"""Building BADCO models from two detailed training runs.

The construction follows the paper's recipe:

- "BADCO uses two traces to build a core model": we run the detailed
  core twice on the benchmark's trace
  (:func:`repro.cpu.core.fixed_latency_run`), once against an
  *always-hit* uncore (every request returns after the LLC hit latency)
  and once against an *always-miss* uncore (every request pays the full
  memory latency).  Their request streams can differ -- a demand hit on
  a late prefetch counts as a DL1 miss and triggers a next-line
  prefetch -- so nodes are cut at the hit run's blocking reads and
  timed at the same uop index in both runs.
- "nodes represent groups of uops and their associated uncore
  requests": each *blocking* request (a demand data read) anchors a
  node containing the uops since the previous anchor; non-blocking
  traffic (writes, prefetches, instruction fills) is attached to the
  node and replayed fire-and-forget.
- Node timing: the always-hit run gives the node's *intrinsic* duration
  d1 (core-limited time); the always-miss run gives d2.  The ratio
  (d2 - d1) / (miss - hit latency) is the node's *sensitivity*: the
  fraction of its request's latency that lands on the critical path.
  Overlapped (MLP) requests yield sensitivities well below 1, which is
  how the model captures memory-level parallelism.

A node is a :class:`typing.NamedTuple`: the replay loop unpacks one
tuple per node, and the model store builds a model's nodes with one
``map(BadcoNode._make, ...)`` over its columns.

The builder also owns each benchmark's standalone anchor
(:meth:`BadcoModelBuilder.anchor`), which both the ``badco`` and the
``analytic`` backend read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.bench.trace import Trace
from repro.cpu.core import RequestEvent
from repro.cpu.resources import CoreConfig
from repro.mem.cache import Port
from repro.mem.uncore import Uncore, UncoreConfig
from repro.sim.detailed import (
    WARMUP_FRACTION,
    TrainedModelBuilder,
    _MeasuredThread,
    interleave,
)

#: Training uncore latencies (core cycles): always-hit and always-miss.
TRAIN_HIT_LATENCY = 6
TRAIN_MISS_LATENCY = 240

#: Maximum uops per node.  Long request-free stretches are split into
#: several pure-intrinsic nodes so that (a) measurement windows resolve
#: inside them and (b) the multicore scheduler interleaves machines at
#: a reasonable granularity.
MAX_NODE_UOPS = 256


class BadcoNode(NamedTuple):
    """One node of a BADCO model (immutable; fields in replay order).

    Attributes:
        uop_count: uops represented by this node.
        intrinsic: node duration (cycles) when its request hits.
        sensitivity: extra stall per cycle of request latency beyond a
            hit (0 = fully overlapped, 1 = fully blocking).
        read_address: the anchoring demand read, or None for the tail
            node (trailing uops after the last request).
        read_pc: instruction address of the anchoring access.
        extra_requests: non-blocking traffic replayed with the node,
            as (address, is_write) pairs.
    """

    uop_count: int
    intrinsic: float
    sensitivity: float
    read_address: Optional[int]
    read_pc: int
    extra_requests: Tuple[Tuple[int, bool], ...] = ()


@dataclass(frozen=True)
class Calibration:
    """Standalone anchor of one (benchmark, policy, uncore) triple.

    Attributes:
        ipc: measured standalone IPC (the reference IPC of both the
            ``badco`` and the ``analytic`` backend).
        cycles: local time of one full standalone pass.
        miss_ratio: LLC demand miss ratio running alone.
        extra_per_miss: average cycles a demand miss cost beyond the
            LLC hit latency.
    """

    ipc: float
    cycles: float
    miss_ratio: float
    extra_per_miss: float


#: A stored ``calib`` record's fields; any of them may be an int or a
#: float.
_CALIBRATION_FIELDS = dict.fromkeys(
    (field.name for field in fields(Calibration)), (int, float))


@dataclass
class BadcoModel:
    """A behavioural model of one benchmark on the Table I core."""

    benchmark: str
    trace_length: int
    nodes: List[BadcoNode]

    @property
    def total_uops(self) -> int:
        return sum(node.uop_count for node in self.nodes)


class BadcoModelBuilder(TrainedModelBuilder):
    """Builds (and caches) BADCO models for benchmarks.

    ``build`` is :meth:`~repro.sim.detailed.TrainedModelBuilder.build`
    over two detailed training runs per benchmark; with a model store
    attached, standalone anchors (:meth:`anchor`) persist the same way
    as the node models, as ``calib`` records.

    Args:
        trace_length: uops per benchmark trace.
        seed: trace seed (must match the campaign's seed).
        core_config: detailed-core configuration used for training.
        store: optional :class:`~repro.sim.modelstore.ModelStore`.
    """

    def __init__(self, trace_length: int = DEFAULT_TRACE_LENGTH, seed: int = 0,
                 core_config: Optional[CoreConfig] = None,
                 store: Optional[object] = None) -> None:
        super().__init__(trace_length, seed, core_config, store)
        self._anchors: Dict[tuple, Calibration] = {}
        #: Standalone anchor runs actually simulated (0 for store or
        #: memory hits, and for anchors shared across policies).
        self.anchor_runs = 0

    def _store_signature(self) -> str:
        """Everything a trained node model depends on, digested."""
        from repro.sim.modelstore import config_signature

        return config_signature("badco-nodes", self.trace_length, self.seed,
                                self.core_config,
                                TRAIN_HIT_LATENCY, TRAIN_MISS_LATENCY,
                                MAX_NODE_UOPS)

    def _load(self, benchmark: str, signature: str) -> Optional[BadcoModel]:
        return self.store.load_badco_model(benchmark, signature)

    def _save(self, model: BadcoModel, signature: str) -> None:
        self.store.save_badco_model(model, signature)

    def _train(self, benchmark: str, trace: Trace) -> BadcoModel:
        hit_times, events = self._training_run(trace, TRAIN_HIT_LATENCY)
        miss_times, _ = self._training_run(trace, TRAIN_MISS_LATENCY)
        nodes = _build_nodes(events, hit_times, miss_times,
                             self.trace_length)
        return BadcoModel(benchmark, self.trace_length, nodes)

    def _calibration_signature(self, uncore_config: UncoreConfig) -> str:
        """Everything an anchor run depends on, digested: the uncore,
        the warmup metering and the node model's own signature (a change
        that retrains the models also re-anchors)."""
        from repro.sim.modelstore import config_signature

        return config_signature(
            "analytic-calibration", self.trace_length, self.seed,
            WARMUP_FRACTION, uncore_config, self._store_signature())

    def anchor(self, benchmark: str,
               uncore_config: UncoreConfig) -> Calibration:
        """The benchmark's machine alone on one uncore (memoised).

        The one standalone run of the code base: the ``badco`` backend's
        ``reference_ipc`` is its ``ipc``, and the ``analytic`` backend
        calibrates on the whole anchor.  Memoised per (benchmark, the
        whole uncore configuration) and persisted as a ``calib`` record
        named ``"{benchmark}-{policy}"``.

        An anchor whose LLC evicted nothing also serves the same
        benchmark and uncore under every other policy.  The cache asks
        its policy for a ``victim`` only when a fill finds its set full,
        and each such call is an eviction, so ``evictions == 0`` means
        ``victim`` was never called.  The other hooks (``on_hit``,
        ``on_miss``, ``on_fill``) update only the policy's own state.
        So under any policy the run hits, misses and fills the same
        lines at the same times -- the same bus timing, latencies and
        meter readings, bit for bit -- and evicts nothing either.  Each
        policy's record is still saved.
        """
        key = (benchmark, uncore_config)
        anchor = self._anchors.get(key)
        if anchor is not None:
            return anchor
        shared = (benchmark, uncore_config.with_policy(""))
        anchor = self._anchors.get(shared)
        name = f"{benchmark}-{uncore_config.policy}"
        if self.store is not None:
            signature = self._calibration_signature(uncore_config)
            payload = (self.store.load_record("calib", name, signature,
                                              _CALIBRATION_FIELDS)
                       if anchor is None else None)
            if payload is not None:
                anchor = self._anchors[key] = Calibration(**payload)
                return anchor
        if anchor is None:
            anchor, evictions = self._simulate_anchor(benchmark,
                                                      uncore_config)
            self.anchor_runs += 1
            if evictions == 0:
                self._anchors[shared] = anchor
        if self.store is not None:
            self.store.save_record("calib", name, signature, asdict(anchor))
        self._anchors[key] = anchor
        return anchor

    def _simulate_anchor(self, benchmark: str, uncore_config: UncoreConfig
                         ) -> Tuple[Calibration, int]:
        """One standalone run, counting LLC misses and demand latencies;
        returns the anchor and the LLC's eviction count.

        The machine runs behind the port's own ``post`` and an
        ``access`` that times each demand read on its way through.
        """
        from repro.sim.badco.machine import BadcoMachine

        model = self.build(benchmark)
        uncore = Uncore(uncore_config, seed=self.seed)
        port = uncore.port(0)
        serve = port.access
        latency_total = 0.0
        demand_reads = 0

        def access(address: int, now: int, is_write: bool, pc: int,
                   is_prefetch: bool) -> int:
            # The machine's demand reads; its other traffic is posted.
            nonlocal latency_total, demand_reads
            done = serve(address, now, is_write, pc, is_prefetch)
            latency_total += done - now
            demand_reads += 1
            return done

        machine = BadcoMachine(model, Port(access, port.post))
        meter = _MeasuredThread(int(self.trace_length * WARMUP_FRACTION),
                                self.trace_length)
        interleave([machine], [meter])
        stats = uncore.llc.stats
        misses = stats.demand_misses
        miss_ratio = misses / max(stats.demand_accesses, 1)
        if misses > 0:
            extra = max((latency_total
                         - demand_reads * uncore_config.llc_latency) / misses,
                        1.0)
        else:
            # No misses observed: fall back to the raw memory round trip.
            extra = float(uncore_config.memory.dram_latency
                          + uncore_config.memory.transfer_cycles)
        return Calibration(ipc=meter.ipc(), cycles=machine.local_time,
                           miss_ratio=miss_ratio,
                           extra_per_miss=extra), stats.evictions


def _emit(nodes: List[BadcoNode], uop_count: int, intrinsic: float,
          sensitivity: float, address: Optional[int], pc: int,
          extras: Tuple[Tuple[int, bool], ...]) -> None:
    """Append a node, splitting long request-free prefixes into chunks.

    The request (if any) stays attached to the final chunk, which keeps
    its position at the end of the uop span, where the training anchor
    was.
    """
    while uop_count > MAX_NODE_UOPS:
        share = MAX_NODE_UOPS / uop_count
        chunk_intrinsic = intrinsic * share
        nodes.append(BadcoNode(
            uop_count=MAX_NODE_UOPS, intrinsic=chunk_intrinsic,
            sensitivity=0.0, read_address=None, read_pc=0,
            extra_requests=()))
        uop_count -= MAX_NODE_UOPS
        intrinsic -= chunk_intrinsic
    nodes.append(BadcoNode(
        uop_count=uop_count, intrinsic=intrinsic, sensitivity=sensitivity,
        read_address=address, read_pc=pc, extra_requests=extras))


def _build_nodes(events: List[RequestEvent], hit_times: List[float],
                 miss_times: List[float],
                 trace_length: int) -> List[BadcoNode]:
    """Group the hit run's request events into timed nodes."""
    extra_latency = TRAIN_MISS_LATENCY - TRAIN_HIT_LATENCY
    nodes: List[BadcoNode] = []
    previous_uop = -1
    previous_hit_time = 0.0
    previous_miss_time = 0.0
    pending_extras: List[Tuple[int, bool]] = []
    for index, address, is_write, pc, blocking in events:
        if not blocking:
            pending_extras.append((address, is_write))
            continue
        uop_count = max(index - previous_uop, 0)
        hit_time = hit_times[index]
        miss_time = miss_times[index]
        d1 = hit_time - previous_hit_time
        d2 = miss_time - previous_miss_time
        sensitivity = max(0.0, (d2 - d1) / extra_latency)
        _emit(nodes, uop_count, max(d1, 0.0), min(sensitivity, 1.5),
              address, pc, tuple(pending_extras))
        pending_extras = []
        previous_uop = index
        previous_hit_time = hit_time
        previous_miss_time = miss_time
    # Tail node: uops after the last blocking request.
    tail_uops = (trace_length - 1) - previous_uop
    if tail_uops > 0 or pending_extras:
        d1 = hit_times[-1] - previous_hit_time
        _emit(nodes, max(tail_uops, 0), max(d1, 0.0), 0.0, None, 0,
              tuple(pending_extras))
    return nodes
