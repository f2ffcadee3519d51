"""The detailed out-of-order core timing model.

``DetailedCore`` replays a benchmark trace through an out-of-order
superscalar pipeline model.  Rather than simulating every structure
cycle by cycle, each uop's fetch, dispatch, issue, completion and commit
times are computed in program order from:

- *dataflow*: a uop issues no earlier than its register producers
  complete (producer positions come from the trace's dependency
  distances);
- *bandwidth*: fetch, issue and commit advance fractional slot pointers
  of 1/width per uop, modelling the per-cycle width limits;
- *occupancy*: a uop cannot dispatch until the uop ``ROB`` entries ahead
  of it has committed (likewise RS vs issue, LDQ/STQ vs load/store
  completion);
- *memory*: loads access DTLB and DL1 at issue; DL1 misses go to the
  shared uncore, so multicore contention feeds back into timing;
- *control*: mispredicted branches (TAGE-lite + BTB) stall fetch until
  resolution plus a redirect penalty.

This event-ordered formulation is what makes a pure-Python "detailed"
simulator feasible; it remains far slower and far more detailed than
the BADCO behavioural model, which is the relationship the paper's
methodology needs.

Cores expose a *stepper* interface (``advance``, the ``__next__`` of
one generator whose locals hold the pipeline state): the multicore
simulator interleaves cores in global time order so that shared-LLC and
bus contention are resolved consistently.  :func:`fixed_latency_run` is
the training run of BADCO node models and interval profiles: one core
alone against a fixed-latency uncore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

from repro.bench.trace import EXECUTION_LATENCY, Trace, UopKind
from repro.cpu.branch import BranchTargetBuffer, TageLitePredictor
from repro.cpu.resources import CoreConfig
from repro.mem.cache import Cache
from repro.mem.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.mem.replacement import make_policy
from repro.mem.tlb import Tlb

#: Uncore access callback:
#: (address, now, is_write, pc, is_prefetch) -> completion time.
UncoreAccess = Callable[[int, int, bool, int, bool], int]

#: (uop index, address, is_write, pc, is_blocking_read) of a request.
RequestEvent = Tuple[int, int, bool, int, bool]


@dataclass
class CoreResult:
    """Summary of one core's execution of (part of) a trace."""

    instructions: int
    cycles: int
    dl1_misses: int
    il1_misses: int
    branch_mispredicts: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class DetailedCore:
    """Out-of-order core executing one trace against an uncore.

    ``advance()`` executes the next uop and returns the new local time.
    It is the ``__next__`` of the :meth:`_pipeline` generator, so past
    the end of the trace without :meth:`restart` it raises
    ``IndexError`` and the pipeline ends.

    Args:
        core_id: index of this core (passed through to the uncore).
        config: Table I resources.
        trace: the benchmark trace to execute.
        uncore_access: callback serving L1 misses.
        start_time: global cycle at which this core begins.
    """

    def __init__(self, core_id: int, config: CoreConfig, trace: Trace,
                 uncore_access: UncoreAccess, start_time: int = 0) -> None:
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self._uncore_access = uncore_access

        self.predictor = TageLitePredictor()
        self.btb = BranchTargetBuffer()
        self.il1 = Cache(config.il1,
                         make_policy("LRU", config.il1.num_sets, config.il1.ways),
                         next_level=self._next_level)
        self.dl1 = Cache(config.dl1,
                         make_policy("LRU", config.dl1.num_sets, config.dl1.ways),
                         next_level=self._next_level)
        self.il1_prefetcher = NextLinePrefetcher(self.il1)
        self.dl1_stride_prefetcher = StridePrefetcher(self.dl1)
        self.dl1_nextline_prefetcher = NextLinePrefetcher(self.dl1)
        self.itlb = Tlb(config.itlb)
        self.dtlb = Tlb(config.dtlb)

        self.position = 0           # next uop index in the trace
        self.executed = 0           # dynamic uops executed (incl. restarts)
        self.branch_mispredicts = 0
        self.start_time = start_time
        self._length = len(trace)
        self._last_commit = float(start_time)
        # Set before every L1 access: the pc the uncore prefetchers see.
        self._current_pc = 0
        self.advance: Callable[[], float] = self._pipeline().__next__

    # ------------------------------------------------------------------

    def _next_level(self, address: int, now: int, is_write: bool,
                    is_prefetch: bool = False) -> int:
        """The L1s' next level: route to the shared uncore."""
        return self._uncore_access(address, int(now), is_write,
                                   self._current_pc, is_prefetch)

    @property
    def local_time(self) -> float:
        """Current frontier of this core (last commit time)."""
        return self._last_commit

    @property
    def done(self) -> bool:
        """True when the whole trace has been executed once."""
        return self.position >= self._length

    def restart(self) -> None:
        """Rewind the trace (multiprogram restart semantics).

        Microarchitectural state (caches, predictor) is deliberately
        kept: the paper restarts a finished thread "as many times as
        necessary" on a warm machine.
        """
        self.position = 0

    # ------------------------------------------------------------------

    def _pipeline(self) -> Iterator[float]:
        """Execute uops in program order, yielding each commit time.

        Locals hold the pipeline state: slot pointers (absolute cycles,
        fractional for bandwidth), per-uop time rings, queue counters,
        and the bound cache, TLB, prefetcher and predictor methods.
        """
        config = self.config
        start_time = self.start_time
        uops = self.trace.uops
        fetch_step = 1.0 / config.fetch_width
        issue_step = 1.0 / config.issue_width
        commit_step = 1.0 / config.commit_width
        decode_latency = config.decode_latency
        rob_entries, rs_entries = config.rob_entries, config.rs_entries
        ldq_entries, stq_entries = config.ldq_entries, config.stq_entries
        il1_latency = config.il1.latency
        LOAD, STORE, BRANCH = UopKind.LOAD, UopKind.STORE, UopKind.BRANCH
        il1_access, il1_stats = self.il1.access, self.il1.stats
        dl1_access, dl1_stats = self.dl1.access, self.dl1.stats
        stride_observe = self.dl1_stride_prefetcher.observe
        nextline_observe = self.dl1_nextline_prefetcher.observe
        itlb_lookup, dtlb_lookup = self.itlb.lookup, self.dtlb.lookup
        predict, train = self.predictor.predict, self.predictor.update
        btb_lookup = self.btb.lookup

        fetch_slot = issue_slot = commit_slot = float(start_time)
        redirect_floor = last_commit = il1_ready = float(start_time)
        last_fetch_line = -1
        window = max(rob_entries, 64) + 1
        complete_ring: List[float] = [start_time] * window
        commit_ring: List[float] = [start_time] * window
        issue_ring: List[float] = [start_time] * rs_entries
        load_ring: List[float] = [start_time] * ldq_entries
        store_ring: List[float] = [start_time] * stq_entries
        loads_seen = stores_seen = 0
        while True:
            position = self.position
            kind, pc, src_distances, address, taken, target = uops[position]
            self.position = position + 1
            index = self.executed
            self.executed = index + 1
            slot = index % window
            rs_slot = index % rs_entries

            # ---- Fetch: width limit, redirects, IL1/ITLB.
            fetch = fetch_slot + fetch_step
            if fetch < redirect_floor:
                fetch = redirect_floor
            line = pc >> 6
            if line != last_fetch_line:
                last_fetch_line = line
                self._current_pc = pc
                now = int(fetch)
                itlb_penalty = itlb_lookup(pc)
                before = il1_stats.demand_misses
                il1_done = il1_access(pc, now + itlb_penalty)
                if il1_stats.demand_misses > before:
                    self.il1_prefetcher.observe(pc, pc, now, True)
                # Hit latency is pipelined away; only the cycles beyond
                # a hit (misses, in-flight fills, TLB walks) stall fetch.
                stall = (il1_done - now) - il1_latency + itlb_penalty
                il1_ready = fetch + stall if stall > 0 else 0.0
            if fetch < il1_ready:
                fetch = il1_ready
            fetch_slot = fetch

            # ---- Dispatch: decode latency + ROB/RS/LDQ/STQ occupancy.
            dispatch = fetch + decode_latency
            if index >= rob_entries:
                rob_free = commit_ring[(index - rob_entries) % window]
                if dispatch < rob_free:
                    dispatch = rob_free
            if index >= rs_entries:
                rs_free = issue_ring[rs_slot]
                if dispatch < rs_free:
                    dispatch = rs_free
            if kind == LOAD:
                if loads_seen >= ldq_entries:
                    ldq_free = load_ring[loads_seen % ldq_entries]
                    if dispatch < ldq_free:
                        dispatch = ldq_free
            elif kind == STORE:
                if stores_seen >= stq_entries:
                    stq_free = store_ring[stores_seen % stq_entries]
                    if dispatch < stq_free:
                        dispatch = stq_free

            # ---- Issue: dataflow readiness + issue bandwidth.
            ready = dispatch
            for distance in src_distances:
                producer = index - distance
                if producer >= 0:
                    produced = complete_ring[producer % window]
                    if produced > ready:
                        ready = produced
            issue = ready
            if issue < issue_slot:
                issue = issue_slot
            issue_slot = issue + issue_step
            issue_ring[rs_slot] = issue

            # ---- Execute.
            complete = issue + EXECUTION_LATENCY[kind]
            if kind == LOAD:
                self._current_pc = pc
                now = int(issue) + 1
                dtlb_penalty = dtlb_lookup(address)
                before = dl1_stats.demand_misses
                dl1_done = dl1_access(address, now + dtlb_penalty)
                was_miss = dl1_stats.demand_misses > before
                stride_observe(pc, address, now, was_miss)
                if was_miss:
                    nextline_observe(pc, address, now, True)
                complete = float(dl1_done) + dtlb_penalty
                load_ring[loads_seen % ldq_entries] = complete
                loads_seen += 1
            elif kind == STORE:
                # Stores complete fast (data written at commit through
                # the write buffer); the cache state update happens now.
                self._current_pc = pc
                dtlb_penalty = dtlb_lookup(address)
                dl1_access(address, int(issue) + 1 + dtlb_penalty,
                           is_write=True)
                complete = issue + 1 + dtlb_penalty
                store_ring[stores_seen % stq_entries] = complete
                stores_seen += 1
            elif kind == BRANCH:
                correct_direction = predict(pc) == taken
                train(pc, taken)
                # The BTB trains on every taken branch.
                if (taken and not btb_lookup(pc, target or 0)) \
                        or not correct_direction:
                    self.branch_mispredicts += 1
                    redirect_floor = complete + config.mispredict_penalty
            complete_ring[slot] = complete

            # ---- Commit: in order, width-limited.
            commit = complete
            if commit < last_commit:
                commit = last_commit
            if commit < commit_slot:
                commit = commit_slot
            commit_slot = commit + commit_step
            commit_ring[slot] = commit
            self._last_commit = last_commit = commit
            yield commit

    # ------------------------------------------------------------------

    def result(self) -> CoreResult:
        """Counters for everything executed so far."""
        cycles = int(self._last_commit - self.start_time)
        return CoreResult(
            instructions=self.executed,
            cycles=max(cycles, 1),
            dl1_misses=self.dl1.stats.demand_misses,
            il1_misses=self.il1.stats.demand_misses,
            branch_mispredicts=self.branch_mispredicts,
        )


def fixed_latency_run(trace: Trace, config: CoreConfig, latency: int
                      ) -> Tuple[List[float], List[RequestEvent]]:
    """Run ``trace`` once, alone, against an uncore of fixed ``latency``:
    the training run of BADCO node models and interval profiles.

    Returns every uop's commit time and the uncore requests in issue
    order (a blocking read is a demand read: no write, no prefetch).
    """
    events: List[RequestEvent] = []

    def access(address: int, now: int, is_write: bool, pc: int,
               is_prefetch: bool = False) -> int:
        events.append((core.position - 1, address, is_write, pc,
                       not is_write and not is_prefetch))
        return now + latency

    core = DetailedCore(0, config, trace, access)
    advance = core.advance
    commit_times = [advance() for _ in range(len(trace))]
    return commit_times, events
