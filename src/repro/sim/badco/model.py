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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.bench.generator import DEFAULT_TRACE_LENGTH, cached_trace
from repro.cpu.core import RequestEvent, fixed_latency_run
from repro.cpu.resources import CoreConfig, default_core_config

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


@dataclass
class BadcoModel:
    """A behavioural model of one benchmark on the Table I core."""

    benchmark: str
    trace_length: int
    nodes: List[BadcoNode]

    @property
    def total_uops(self) -> int:
        return sum(node.uop_count for node in self.nodes)


class BadcoModelBuilder:
    """Builds (and caches) BADCO models for benchmarks.

    With a model *store* attached (see :mod:`repro.sim.modelstore`),
    trained models persist across processes: ``build`` consults the
    store before paying the two detailed training runs, and saves what
    it trains.  Stored models round-trip bit-identically, so campaigns
    against a warm store reproduce cold-run results exactly while
    performing zero training runs.

    Args:
        trace_length: uops per benchmark trace.
        seed: trace seed (must match the campaign's seed).
        core_config: detailed-core configuration used for training.
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
        #: Detailed-simulation uops spent building models (Section VII-A
        #: charges this cost to the workload-stratification budget).
        self.training_uops = 0
        self.training_seconds = 0.0
        #: Detailed training runs actually performed (2 per trained
        #: benchmark; 0 for store / memory hits).
        self.training_runs = 0

    def use_store(self, store: Optional[object]) -> None:
        """Attach (or detach) a persistent model store."""
        self.store = store

    def _store_signature(self) -> str:
        """Everything a trained node model depends on, digested."""
        from repro.sim.modelstore import config_signature

        return config_signature("badco-nodes", self.trace_length, self.seed,
                                self.core_config,
                                TRAIN_HIT_LATENCY, TRAIN_MISS_LATENCY,
                                MAX_NODE_UOPS)

    def build(self, benchmark: str) -> BadcoModel:
        """Build (or fetch from cache / store) the model of one benchmark."""
        model = self._cache.get(benchmark)
        if model is None:
            if self.store is not None:
                model = self.store.load_badco_model(benchmark,
                                                    self._store_signature())
                if model is not None and model.trace_length != self.trace_length:
                    model = None     # signature collision; retrain
            if model is None:
                model = self._build(benchmark)
                if self.store is not None:
                    self.store.save_badco_model(model,
                                                self._store_signature())
            self._cache[benchmark] = model
        return model

    def _build(self, benchmark: str) -> BadcoModel:
        started = time.perf_counter()
        trace = cached_trace(benchmark, self.trace_length, self.seed)
        hit_times, events = fixed_latency_run(trace, self.core_config,
                                              TRAIN_HIT_LATENCY)
        miss_times, _ = fixed_latency_run(trace, self.core_config,
                                          TRAIN_MISS_LATENCY)
        self.training_uops += 2 * self.trace_length
        self.training_runs += 2
        self.training_seconds += time.perf_counter() - started
        nodes = _build_nodes(events, hit_times, miss_times,
                             self.trace_length)
        return BadcoModel(benchmark, self.trace_length, nodes)


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
