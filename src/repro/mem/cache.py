"""Set-associative write-back cache with functional timing.

The cache is a *latency-returning* timing model: ``access(address, now)``
updates the cache state and returns the absolute time at which the
requested data is available.  Fills are installed at issue time with a
per-line ``ready_time``, which naturally models MSHR secondary misses
("the line is already being fetched") and late prefetches without a
global event queue -- the property the simulators rely on for speed.

:meth:`Cache.access` is the innermost call of every simulation, so a
lookup never scans a set: one ``line -> slot`` dict finds a resident
line, per-way state lives in flat lists indexed by slot (``set * ways +
way``), and a per-set valid count names the next invalid way (ways fill
in order and are never invalidated).  The completion times of
outstanding fills sit in a min-heap for MSHR accounting.  The geometry
is copied into plain attributes at construction, and the policy's hooks
bound there and by :meth:`Cache.use_policy`.

A cache counts its full sets (:attr:`Cache.full_sets`): until the first
set fills, no fill has asked the policy for a victim, so every policy
has seen the same accesses.  :meth:`Cache.copy_from` gives a freshly
built cache another one's lines, which is how a run forks per policy
(see :mod:`repro.sim.detailed`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.mem.replacement.base import ReplacementPolicy

#: Signature of the next memory level:
#: (line_address, now, is_write, is_prefetch) -> completion time.
NextLevel = Callable[[int, int, bool, bool], int]


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

    Args:
        config: geometry and timing.
        policy: replacement policy instance sized for this cache.
        next_level: callable fetching a line from the level below,
            returning the absolute completion time.  ``None`` models a
            backing store with zero extra latency (useful in tests).
    """

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy,
                 next_level: Optional[NextLevel] = None) -> None:
        self.config = config
        sets = config.num_sets
        ways = config.ways
        self.num_sets = sets
        self.ways = ways
        self.use_policy(policy)
        self.next_level = next_level
        self.stats = CacheStats()
        self.latency = config.latency
        self.mshr_entries = config.mshr_entries
        self.writeback = config.writeback
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
        #: Sets whose every way holds a line (ways are never
        #: invalidated, so this only grows).  While it is 0 no fill has
        #: called the policy's ``victim``.
        self.full_sets = 0

    def use_policy(self, policy: ReplacementPolicy) -> None:
        """Replace the replacement policy, from the next access on.

        The cache reads a policy only through ``victim`` and the hooks
        bound here, so a policy that has seen every access so far (say,
        one fed by a tee over several) takes over where it stands.
        """
        if policy.num_sets != self.num_sets or policy.ways != self.ways:
            raise ValueError(
                f"policy sized {policy.num_sets}x{policy.ways} does not match "
                f"cache {self.num_sets}x{self.ways}")
        self.policy = policy
        self._on_hit = policy.on_hit
        self._on_miss = policy.on_miss
        self._on_fill = policy.on_fill
        self._victim = policy.victim

    def copy_from(self, source: "Cache") -> None:
        """Take over ``source``'s lines, fills in flight and counters.

        For a cache just built with ``source``'s geometry: its policy
        and next level stay its own, and it shares no mutable state
        with ``source``.
        """
        self._slots = source._slots.copy()
        self._valid = source._valid.copy()
        self._lines = source._lines.copy()
        self._dirty = source._dirty.copy()
        self._ready = source._ready.copy()
        self._by_prefetch = source._by_prefetch.copy()
        self._outstanding = source._outstanding.copy()
        for field in fields(CacheStats):
            setattr(self.stats, field.name, getattr(source.stats, field.name))
        self.full_sets = source.full_sets

    # ------------------------------------------------------------------
    # Main access paths

    def access(self, address: int, now: int, is_write: bool = False,
               count_demand: bool = True) -> int:
        """Demand access; returns the absolute data-ready time.

        ``count_demand=False`` serves the access with full timing and
        state effects but without demand statistics or set-dueling
        updates -- used for traffic that an upper-level *prefetcher*
        initiated, which must not count towards this cache's demand
        miss rate (MPKI) nor steer DIP/DRRIP's PSEL.
        """
        line = address >> self._line_shift
        slot = self._slots.get(line)
        if slot is not None:
            ready = self._ready[slot]
            if count_demand:
                stats = self.stats
                stats.demand_accesses += 1
                if ready > now:
                    # Line is in flight.  A *late prefetch* (fill was
                    # prefetch-initiated) counts as a demand miss whose
                    # latency is partially hidden; a demand-initiated
                    # fill merges into the MSHR and is not a new miss.
                    stats.mshr_hits += 1
                    if self._by_prefetch[slot]:
                        stats.demand_misses += 1
                        self._by_prefetch[slot] = False
                    else:
                        stats.demand_hits += 1
                else:
                    stats.demand_hits += 1
                    self._by_prefetch[slot] = False
            set_index = line % self.num_sets
            self._on_hit(set_index, slot - set_index * self.ways)
            if is_write:
                self._dirty[slot] = True
            done = now + self.latency
            return ready if ready > done else done
        # True miss.
        set_index = line % self.num_sets
        if count_demand:
            stats = self.stats
            stats.demand_accesses += 1
            stats.demand_misses += 1
            self._on_miss(set_index)
        else:
            self.stats.prefetch_issued += 1
        return self._fill(line, set_index, now, is_write, not count_demand)

    def prefetch(self, address: int, now: int) -> Optional[int]:
        """Prefetch a line; returns its ready time, or None if useless."""
        line = address >> self._line_shift
        if line in self._slots:
            self.stats.prefetch_useless += 1
            return None
        self.stats.prefetch_issued += 1
        return self._fill(line, line % self.num_sets, now, False, True)

    def _fill(self, line: int, set_index: int, now: int, is_write: bool,
              is_prefetch: bool) -> int:
        """Install a line, evicting if needed; returns data-ready time.

        A fill waits for an MSHR when every entry holds a fill still in
        flight at ``now``: it starts when the earliest of them
        completes.
        """
        start = now + self.latency
        outstanding = self._outstanding
        if len(outstanding) >= self.mshr_entries:
            while outstanding and outstanding[0] <= now:
                heappop(outstanding)
            if len(outstanding) >= self.mshr_entries:
                start += outstanding[0] - now
        next_level = self.next_level
        shift = self._line_shift
        if next_level is not None:
            done = next_level(line << shift, start, False, is_prefetch)
        else:
            done = start
        ways = self.ways
        way = self._valid[set_index]
        if way < ways:                        # prefer an invalid way
            self._valid[set_index] = way + 1
            if way + 1 == ways:
                self.full_sets += 1
            slot = set_index * ways + way
        else:
            way = self._victim(set_index)
            slot = set_index * ways + way
            victim = self._lines[slot]
            del self._slots[victim]
            stats = self.stats
            stats.evictions += 1
            if self._dirty[slot] and self.writeback:
                stats.writebacks += 1
                if next_level is not None:
                    # Writebacks consume next-level bandwidth but never
                    # block the demand path, matching the write-buffer
                    # behaviour of the paper's configuration.
                    next_level(victim << shift, now, True, False)
        self._slots[line] = slot
        self._lines[slot] = line
        self._dirty[slot] = is_write
        self._ready[slot] = done
        self._by_prefetch[slot] = is_prefetch
        heappush(outstanding, done)
        self._on_fill(set_index, way)
        return done

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and tools)

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is present (even in flight)."""
        return address >> self._line_shift in self._slots

    def resident_lines(self) -> int:
        """Number of valid lines currently installed."""
        return len(self._slots)
