"""Set-associative write-back cache with functional timing.

The cache is a *latency-returning* timing model: a request updates the
cache state and returns the absolute time at which the requested data
is available.  Fills are installed at issue time with a per-line
``ready_time``, which naturally models MSHR secondary misses ("the line
is already being fetched") and late prefetches without a global event
queue -- the property the simulators rely on for speed.

A request is the innermost call of every simulation, so one factory
writes a cache's access code once, as closures over the cache's state:
a ``line -> slot`` dict finds a resident line (a lookup never scans a
set), per-way state lives in flat lists indexed by slot (``set * ways +
way``), a per-set valid count names the next invalid way (ways fill in
order and are never invalidated), and the completion times of
outstanding fills sit in a min-heap for MSHR accounting.
:meth:`Cache.port` hands out a :class:`Port` -- the L1s' (no
translation) and the shared LLC's, which
:meth:`repro.mem.uncore.Uncore.port` gives a core's page table, request
counter and stream-prefetch trigger -- and :attr:`Cache.prefetch` is
the prefetch fill.  A port's ``access`` serves one request: a hit is
one frame; a miss adds one fill and, for an L1, the next level, which
the fill calls with the request's ``pc`` (an L1's next level is its
core's uncore ``access``).  The LLC's fill is also the bus: it queues
the line's transfer on the :class:`~repro.mem.dram.MemoryInterface`'s
state inline.  A port's ``post`` serves a batch of fire-and-forget
requests in one frame.  :meth:`Cache.access` is a convenience over the
cache's own port.  The closures hold the cache's containers (and the
bus's state), never the cache, so a cache keeps them without a
reference cycle.

The policy's hooks are bound into every port, less those a policy
leaves to the base class's no-op, which are never called
(:func:`~repro.mem.replacement.base.active_hook` decides).
:meth:`Cache.use_policy` rebinds them on every port already made.

A cache counts its full sets (:attr:`Cache.full_sets`, and
:attr:`Cache.full_count` for a loop that watches it): until the first
set fills, no fill has asked the policy for a victim, so every policy
has seen the same accesses.  :meth:`Cache.copy_from` gives a freshly
built cache another one's lines, which is how a run forks per policy
(see :mod:`repro.sim.detailed`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.mem.replacement.base import HOOKS, ReplacementPolicy, active_hook
from repro.mem.tlb import PAGE_BYTES, PAGE_SHIFT

if TYPE_CHECKING:
    from repro.mem.dram import MemoryInterface
    from repro.mem.tlb import PageTable

#: A next memory level, and a port's per-request closure
#: (:attr:`Port.access`):
#: (address, now, is_write, pc, is_prefetch) -> completion time.
NextLevel = Callable[[int, int, bool, int, bool], int]

#: A port's fire-and-forget closure (:attr:`Port.post`):
#: (requests, now, pc), the requests as (address, is_write) pairs.
Post = Callable[[Sequence[Tuple[int, bool]], int, int], None]

#: A prefetch trigger: (address, now), called on a port's demand misses.
Trigger = Callable[[int, int], None]


class Port(NamedTuple):
    """One requester's entries into a cache (:meth:`Cache.port`).

    ``access(address, now, is_write=False, pc=0, is_prefetch=False)``
    serves one request and returns its data-ready time.  ``post(requests,
    now, pc)`` serves ``(address, is_write)`` pairs, in order, exactly as
    that many ``access(address, now, is_write, pc, True)`` calls would,
    and returns nothing: fire-and-forget traffic in one call.
    """

    access: NextLevel
    post: Post


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache.

    Attributes:
        name: label used in statistics reporting.
        size_bytes: total capacity.
        ways: set associativity.
        line_bytes: cache-line size.
        latency: access (hit) latency in core cycles.
        mshr_entries: max outstanding line fills; further misses stall.
        writeback: if True, dirty evictions produce write traffic to the
            next level (write-allocate, write-back); if False the cache
            is write-through-no-allocate for stores.
    """

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency: int = 2
    mshr_entries: int = 8
    writeback: bool = True

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets < 1:
            raise ValueError(f"{self.name}: fewer than one set")
        return sets

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})")


@dataclass
class CacheStats:
    """Counters accumulated by one cache instance."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    mshr_hits: int = 0          # demand access to an in-flight line
    prefetch_issued: int = 0
    prefetch_useless: int = 0   # prefetch to a line already present/in flight
    writebacks: int = 0
    evictions: int = 0

    @property
    def demand_miss_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class Cache:
    """One level of set-associative cache.

    Requests go through a port (:meth:`port`); :attr:`prefetch` is the
    prefetch fill, ``prefetch(address, now, pc=0) -> ready time``, or
    None for a line already present or in flight.

    Args:
        config: geometry and timing.
        policy: replacement policy instance sized for this cache.
        next_level: the level below, a :data:`NextLevel` (the L1s' is
            their core's uncore port), called with the request's ``pc``
            for every fill, prefetch fill and writeback.  ``None`` (and
            no ``memory``) models a backing store with zero extra
            latency (useful in tests).
        memory: the bus and DRAM below the LLC, in place of a
            ``next_level``: fills and writebacks update its
            :attr:`~repro.mem.dram.MemoryInterface.state` inline.
    """

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy,
                 next_level: Optional[NextLevel] = None,
                 memory: Optional["MemoryInterface"] = None) -> None:
        self.config = config
        sets = config.num_sets
        ways = config.ways
        self.num_sets = sets
        self.ways = ways
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        # Resident (or in-flight) line -> its slot, set * ways + way.
        self._slots: Dict[int, int] = {}
        # Valid ways per set: ways [0, count) hold lines.
        self._valid: List[int] = [0] * sets
        # Per-slot state: the line held, dirty bit, data-ready time, and
        # whether the fill was initiated by a prefetch that no demand
        # access has touched yet (late-prefetch marker).
        slots = sets * ways
        self._lines: List[int] = [-1] * slots
        self._dirty: List[bool] = [False] * slots
        self._ready: List[int] = [0] * slots
        self._by_prefetch: List[bool] = [False] * slots
        # Min-heap of outstanding fills' completion times, for MSHR
        # accounting; pruned lazily, only when it looks full.
        self._outstanding: List[int] = []
        #: :attr:`full_sets` as a one-item list the fill path counts
        #: into, so a loop can watch it without a call.
        self.full_count: List[int] = [0]
        self._rebind, self._make_port, self.prefetch = _access_paths(
            config, next_level, memory, self.stats, self._slots,
            self._valid, self._lines, self._dirty, self._ready,
            self._by_prefetch, self._outstanding, self.full_count)
        self.use_policy(policy)
        self._access = self.port().access

    @property
    def full_sets(self) -> int:
        """Sets whose every way holds a line (ways are never
        invalidated, so this only grows).  While it is 0 no fill has
        called the policy's ``victim``."""
        return self.full_count[0]

    def port(self, table: Optional["PageTable"] = None,
             requests: Optional[List[int]] = None, core_id: int = 0,
             trigger: Optional[Trigger] = None) -> Port:
        """A new :class:`Port` on this cache: a per-request ``access``
        closure and its fire-and-forget sibling ``post``.

        ``access(address, now, is_write=False, pc=0, is_prefetch=False)``
        returns the data-ready time.  With ``table``, addresses are
        virtual and translate through that page table (a mapped page
        without a call); with ``requests``, each request counts into
        ``requests[core_id]``; with ``trigger``, every demand miss --
        a late prefetch included -- calls ``trigger(address, now)``
        once the request is served.  ``is_prefetch`` marks traffic an
        upper-level prefetcher (or a non-blocking BADCO request)
        initiated: it is served with full timing and state effects but
        counts no demand statistics, steers no set-dueling selector
        and triggers nothing.  ``pc`` travels with the request's fill,
        and with the writeback it evicts, to the next level; the bus
        ignores it.

        ``post(requests, now, pc)`` serves ``(address, is_write)``
        pairs as that many prefetch-flagged ``access`` calls would --
        request count, translation, lookup, hit hook, dirty bit and
        fill -- in one call.
        """
        return self._make_port(table, requests, core_id, trigger)

    def use_policy(self, policy: ReplacementPolicy) -> None:
        """Replace the replacement policy, from the next access on, on
        every port this cache has made.

        The cache reads a policy only through ``victim`` and the hooks
        bound here, so a policy that has seen every access so far (say,
        one fed by a tee over several) takes over where it stands.
        """
        if policy.num_sets != self.num_sets or policy.ways != self.ways:
            raise ValueError(
                f"policy sized {policy.num_sets}x{policy.ways} does not match "
                f"cache {self.num_sets}x{self.ways}")
        self.policy = policy
        self._rebind(policy)

    def copy_from(self, source: "Cache") -> None:
        """Take over ``source``'s lines, fills in flight and counters.

        For a cache just built with ``source``'s geometry: its policy
        and next level stay its own, and it shares no mutable state
        with ``source``.  The state is copied in place, since this
        cache's ports hold its containers.
        """
        self._slots.clear()
        self._slots.update(source._slots)
        self._valid[:] = source._valid
        self._lines[:] = source._lines
        self._dirty[:] = source._dirty
        self._ready[:] = source._ready
        self._by_prefetch[:] = source._by_prefetch
        self._outstanding[:] = source._outstanding
        for field in fields(CacheStats):
            setattr(self.stats, field.name, getattr(source.stats, field.name))
        self.full_count[0] = source.full_count[0]

    def access(self, address: int, now: int, is_write: bool = False,
               count_demand: bool = True) -> int:
        """One request through the cache's own port; returns the
        absolute data-ready time.

        ``count_demand=False`` is a port's ``is_prefetch``: traffic
        that an upper-level *prefetcher* initiated, served with full
        timing and state effects but without demand statistics or
        set-dueling updates, so it counts towards neither this cache's
        demand miss rate (MPKI) nor DIP/DRRIP's PSEL.
        """
        return self._access(address, now, is_write, 0, not count_demand)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and tools)

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is present (even in flight)."""
        return address >> self._line_shift in self._slots

    def resident_lines(self) -> int:
        """Number of valid lines currently installed."""
        return len(self._slots)


def _backing_store(address: int, now: int, is_write: bool, pc: int,
                   is_prefetch: bool) -> int:
    """The next level of a cache built without one: no extra latency."""
    return now


def _access_paths(config: CacheConfig, next_level: Optional[NextLevel],
                  memory: Optional["MemoryInterface"], stats: CacheStats,
                  slots: Dict[int, int], valid: List[int], lines: List[int],
                  dirty: List[bool], ready: List[int],
                  by_prefetch: List[bool], outstanding: List[int],
                  full: List[int]) -> tuple:
    """One cache's access code, over its state: returns ``rebind``
    (bind a policy's hooks), ``make_port`` and ``prefetch``.

    Every port and the prefetch fill share one ``fill`` and one set of
    hook cells, so ``rebind`` reaches every port made so far.  A hook
    the policy leaves to the base class's no-op is None and not called.
    Over a ``memory``, ``fill`` is the bus too: it queues each line
    read and writeback on the bus's state, with no call.
    """
    if memory is not None:
        bus = memory.state
        transfer = memory.transfer_cycles
        dram_latency = memory.dram_latency
    else:
        bus = None
        if next_level is None:
            next_level = _backing_store
    sets = config.num_sets
    ways = config.ways
    latency = config.latency
    mshr_entries = config.mshr_entries
    writeback = config.writeback
    shift = config.line_bytes.bit_length() - 1
    offset_mask = PAGE_BYTES - 1
    on_hit = on_miss = on_fill = victim = None

    def rebind(policy: ReplacementPolicy) -> None:
        nonlocal on_hit, on_miss, on_fill, victim
        on_hit, on_miss, on_fill = [active_hook(policy, name)
                                    for name in HOOKS]
        victim = policy.victim

    def fill(line: int, set_index: int, now: int, is_write: bool,
             is_prefetch: bool, pc: int) -> int:
        """Install a line, evicting if needed; returns data-ready time.

        A fill waits for an MSHR when every entry holds a fill still in
        flight at ``now``: it starts when the earliest of them
        completes.  Below the LLC, the line's bus transfer starts when
        the bus is free, occupies it ``transfer`` cycles and returns
        ``dram_latency`` cycles after it starts.
        """
        start = now + latency
        if len(outstanding) >= mshr_entries:
            while outstanding and outstanding[0] <= now:
                heappop(outstanding)
            if len(outstanding) >= mshr_entries:
                start += outstanding[0] - now
        if bus is None:
            done = next_level(line << shift, start, False, pc, is_prefetch)
        else:
            begin = bus[0]
            if begin < start:
                begin = start
            bus[0] = begin + transfer
            bus[1] += 1
            done = begin + dram_latency
        way = valid[set_index]
        if way < ways:                        # prefer an invalid way
            valid[set_index] = way + 1
            if way + 1 == ways:
                full[0] += 1
            slot = set_index * ways + way
        else:
            way = victim(set_index)
            slot = set_index * ways + way
            evicted = lines[slot]
            del slots[evicted]
            stats.evictions += 1
            if writeback and dirty[slot]:
                stats.writebacks += 1
                # Writebacks consume next-level bandwidth but never
                # block the demand path, matching the write-buffer
                # behaviour of the paper's configuration.
                if bus is None:
                    next_level(evicted << shift, now, True, pc, False)
                else:
                    begin = bus[0]
                    bus[0] = (begin if begin > now else now) + transfer
                    bus[2] += 1
        slots[line] = slot
        lines[slot] = line
        dirty[slot] = is_write
        ready[slot] = done
        by_prefetch[slot] = is_prefetch
        heappush(outstanding, done)
        if on_fill is not None:
            on_fill(set_index, way)
        return done

    def prefetch(address: int, now: int, pc: int = 0) -> Optional[int]:
        line = address >> shift
        if line in slots:
            stats.prefetch_useless += 1
            return None
        stats.prefetch_issued += 1
        return fill(line, line % sets, now, False, True, pc)

    def make_port(table: Optional["PageTable"], requests: Optional[List[int]],
                  core_id: int, trigger: Optional[Trigger]) -> Port:
        mapping = table.mapping if table is not None else None
        translate = table.translate if table is not None else None

        def access(address: int, now: int, is_write: bool = False,
                   pc: int = 0, is_prefetch: bool = False) -> int:
            if requests is not None:
                requests[core_id] += 1
            if mapping is not None:
                frame = mapping.get(address >> PAGE_SHIFT)
                if frame is None:
                    address = translate(address)
                else:
                    address = (frame << PAGE_SHIFT) | (address & offset_mask)
            line = address >> shift
            slot = slots.get(line)
            if slot is None:                  # a true miss
                set_index = line % sets
                if is_prefetch:
                    stats.prefetch_issued += 1
                    return fill(line, set_index, now, is_write, True, pc)
                stats.demand_accesses += 1
                stats.demand_misses += 1
                if on_miss is not None:
                    on_miss(set_index)
                if trigger is None:
                    return fill(line, set_index, now, is_write, False, pc)
                done = fill(line, set_index, now, is_write, False, pc)
                trigger(address, now)
                return done
            when = ready[slot]
            late = False
            if not is_prefetch:
                stats.demand_accesses += 1
                if when <= now:
                    stats.demand_hits += 1
                    by_prefetch[slot] = False
                else:
                    # The line is in flight.  A *late prefetch* (fill
                    # was prefetch-initiated) counts as a demand miss
                    # whose latency is partially hidden; a
                    # demand-initiated fill merges into the MSHR and is
                    # not a new miss.
                    stats.mshr_hits += 1
                    if by_prefetch[slot]:
                        stats.demand_misses += 1
                        by_prefetch[slot] = False
                        late = trigger is not None
                    else:
                        stats.demand_hits += 1
            if on_hit is not None:
                set_index = line % sets
                on_hit(set_index, slot - set_index * ways)
            if is_write:
                dirty[slot] = True
            done = now + latency
            if late:
                trigger(address, now)
            return when if when > done else done

        def post(batch: Sequence[Tuple[int, bool]], now: int,
                 pc: int) -> None:
            # ``access``'s prefetch-flagged path, once per pair: no
            # demand statistics, no trigger, no ready time.
            if requests is not None:
                requests[core_id] += len(batch)
            for address, is_write in batch:
                if mapping is not None:
                    frame = mapping.get(address >> PAGE_SHIFT)
                    if frame is None:
                        address = translate(address)
                    else:
                        address = ((frame << PAGE_SHIFT)
                                   | (address & offset_mask))
                line = address >> shift
                slot = slots.get(line)
                if slot is None:
                    stats.prefetch_issued += 1
                    fill(line, line % sets, now, is_write, True, pc)
                    continue
                if on_hit is not None:
                    set_index = line % sets
                    on_hit(set_index, slot - set_index * ways)
                if is_write:
                    dirty[slot] = True

        return Port(access, post)

    return rebind, make_port, prefetch
