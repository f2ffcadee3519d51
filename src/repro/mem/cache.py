"""Set-associative write-back cache with functional timing.

The cache is a *latency-returning* timing model: ``access(address, now)``
updates the cache state and returns the absolute time at which the
requested data is available.  Fills are installed at issue time with a
per-line ``ready_time``, which naturally models MSHR secondary misses
("the line is already being fetched") and late prefetches without a
global event queue -- the property the simulators rely on for speed.
:meth:`Cache.access` is the innermost call of every simulation, so the
geometry it reads is copied into plain attributes at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

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
        if policy.num_sets != config.num_sets or policy.ways != config.ways:
            raise ValueError(
                f"policy sized {policy.num_sets}x{policy.ways} does not match "
                f"cache {config.num_sets}x{config.ways}")
        self.config = config
        self.policy = policy
        self.next_level = next_level
        self.stats = CacheStats()
        sets = config.num_sets
        ways = config.ways
        self.num_sets = sets
        self.latency = config.latency
        self.mshr_entries = config.mshr_entries
        self._line_mask = ~(config.line_bytes - 1)
        self._tags: List[List[int]] = [[-1] * ways for _ in range(sets)]
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(sets)]
        self._ready: List[List[int]] = [[0] * ways for _ in range(sets)]
        # True while a way's in-flight fill was initiated by a prefetch
        # and no demand access has touched it yet (late-prefetch marker).
        self._filled_by_prefetch: List[List[bool]] = [
            [False] * ways for _ in range(sets)]
        # Completion times of outstanding fills, for MSHR accounting.
        self._outstanding: List[int] = []
        self._line_shift = config.line_bytes.bit_length() - 1

    # ------------------------------------------------------------------
    # Address helpers

    def _locate(self, address: int):
        line = address >> self._line_shift
        return line % self.num_sets, line // self.num_sets

    def _line_address(self, set_index: int, tag: int) -> int:
        line = tag * self.num_sets + set_index
        return line << self._line_shift

    # ------------------------------------------------------------------
    # MSHR accounting

    def _mshr_delay(self, now: int) -> int:
        """Extra delay before a new miss can start, given MSHR pressure.

        If all MSHR entries are occupied by fills still in flight at
        ``now``, the new miss waits until the earliest one completes.
        The outstanding list is pruned lazily: :meth:`_fill` only calls
        this when the list apparently fills up, which keeps the common
        case allocation-free.
        """
        live = [t for t in self._outstanding if t > now]
        self._outstanding = live
        if len(live) < self.mshr_entries:
            return 0
        return min(live) - now

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
        set_index = line % self.num_sets
        tag = line // self.num_sets
        tags = self._tags[set_index]
        stats = self.stats
        if tag in tags:
            way = tags.index(tag)
            ready = self._ready[set_index][way]
            if count_demand:
                stats.demand_accesses += 1
                if ready > now:
                    # Line is in flight.  A *late prefetch* (fill was
                    # prefetch-initiated) counts as a demand miss whose
                    # latency is partially hidden; a demand-initiated
                    # fill merges into the MSHR and is not a new miss.
                    stats.mshr_hits += 1
                    if self._filled_by_prefetch[set_index][way]:
                        stats.demand_misses += 1
                        self._filled_by_prefetch[set_index][way] = False
                    else:
                        stats.demand_hits += 1
                else:
                    stats.demand_hits += 1
                    self._filled_by_prefetch[set_index][way] = False
            self.policy.on_hit(set_index, way)
            if is_write:
                self._dirty[set_index][way] = True
            done = now + self.latency
            return ready if ready > done else done
        # True miss.
        if count_demand:
            stats.demand_accesses += 1
            stats.demand_misses += 1
            self.policy.on_miss(set_index)
        else:
            stats.prefetch_issued += 1
        return self._fill(address, set_index, tag, now, is_write,
                          not count_demand)

    def prefetch(self, address: int, now: int) -> Optional[int]:
        """Prefetch a line; returns its ready time, or None if useless."""
        set_index, tag = self._locate(address)
        if tag in self._tags[set_index]:
            self.stats.prefetch_useless += 1
            return None
        self.stats.prefetch_issued += 1
        return self._fill(address, set_index, tag, now, is_write=False,
                          is_prefetch=True)

    def _fill(self, address: int, set_index: int, tag: int, now: int,
              is_write: bool, is_prefetch: bool = False) -> int:
        """Install a line, evicting if needed; returns data-ready time."""
        start = now + self.latency
        if len(self._outstanding) >= self.mshr_entries:
            start += self._mshr_delay(now)
        if self.next_level is not None:
            done = self.next_level(address & self._line_mask, start, False,
                                   is_prefetch)
        else:
            done = start
        tags = self._tags[set_index]
        if -1 in tags:
            way = tags.index(-1)              # prefer an invalid way
        else:
            way = self.policy.victim(set_index)
            self._evict(set_index, way, now)
        tags[way] = tag
        self._dirty[set_index][way] = is_write
        self._ready[set_index][way] = done
        self._filled_by_prefetch[set_index][way] = is_prefetch
        self._outstanding.append(done)
        self.policy.on_fill(set_index, way)
        return done

    def _evict(self, set_index: int, way: int, now: int) -> None:
        self.stats.evictions += 1
        if self._dirty[set_index][way] and self.config.writeback:
            self.stats.writebacks += 1
            if self.next_level is not None:
                victim_address = self._line_address(set_index, self._tags[set_index][way])
                # Writebacks consume next-level bandwidth but never block
                # the demand path, matching the write-buffer behaviour of
                # the paper's configuration.
                self.next_level(victim_address, now, True, False)
        self._dirty[set_index][way] = False

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and tools)

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is present (even in flight)."""
        set_index, tag = self._locate(address)
        return tag in self._tags[set_index]

    def resident_lines(self) -> int:
        """Number of valid lines currently installed."""
        return sum(1 for tags in self._tags for t in tags if t != -1)

    def flush(self) -> None:
        """Invalidate everything (statistics are kept)."""
        for tags in self._tags:
            for way in range(self.config.ways):
                tags[way] = -1
        for dirty in self._dirty:
            for way in range(self.config.ways):
                dirty[way] = False
