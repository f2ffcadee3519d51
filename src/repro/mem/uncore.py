"""The shared uncore: LLC + FSB + DRAM, per the paper's Table II.

The paper evaluates 2-, 4- and 8-core symmetric CMPs whose uncores
differ only in LLC size/latency (1 MB/5cy, 2 MB/6cy, 4 MB/7cy).  Because
our synthetic traces are thousands of uops instead of 100 M
instructions, capacities are scaled down by 16x (64/128/256 kB) while
latencies, associativity and the rest of Table II are kept; working-set
sizes in ``repro.bench.spec`` are scaled to match, preserving which
benchmarks are LLC-resident, LLC-thrashing or streaming.

The uncore performs virtual-to-physical translation (allocating pages on
first touch, as the paper describes for BADCO) and serves each core's L1
miss stream through the shared LLC.  A core's port
(:meth:`Uncore.port`) is the LLC's own port
(:meth:`~repro.mem.cache.Cache.port`) with the core's page table,
request counter and the stream prefetcher's trigger bound in, so an LLC
hit is one frame and a miss adds one fill, which is the bus transfer
too; a BADCO or interval machine posts each node's non-blocking
requests in one call.
:meth:`Uncore.fork` copies a running uncore under another LLC policy, so
several policies can share a run's prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.mem.cache import Cache, CacheConfig, Port
from repro.mem.dram import MemoryConfig, MemoryInterface
from repro.mem.prefetch import StreamPrefetcher
from repro.mem.replacement import ReplacementPolicy, make_policy
from repro.mem.tlb import FrameAllocator, PageTable

KB = 1024

#: Paper-to-repro capacity scaling factor (see module docstring).
CAPACITY_SCALE = 16

#: One core's uncore port, :meth:`Uncore.port` (an LLC port): its
#: ``access(virtual_address, now, is_write, pc, is_prefetch) ->
#: completion time`` and ``post(requests, now, pc)``.
UncorePort = Port


@dataclass(frozen=True)
class UncoreConfig:
    """Configuration of one uncore instance.

    Attributes:
        cores: number of cores sharing the LLC.
        llc_size: LLC capacity in bytes (already scaled).
        llc_latency: LLC hit latency in core cycles.
        llc_ways: LLC associativity (16 in Table II).
        llc_mshr_entries: outstanding LLC fills (16 in Table II).
        policy: replacement policy name (see ``repro.mem.replacement``).
        memory: FSB/DRAM parameters.
        stream_prefetcher: enable the Table II LLC stream prefetcher.
    """

    cores: int
    llc_size: int
    llc_latency: int
    llc_ways: int = 16
    llc_mshr_entries: int = 16
    policy: str = "LRU"
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    stream_prefetcher: bool = True

    def with_policy(self, policy: str) -> "UncoreConfig":
        """A copy of this configuration under another replacement policy."""
        return replace(self, policy=policy)

    @property
    def llc(self) -> CacheConfig:
        """The LLC's geometry and timing."""
        return CacheConfig(name="LLC", size_bytes=self.llc_size,
                           ways=self.llc_ways, latency=self.llc_latency,
                           mshr_entries=self.llc_mshr_entries)


#: Table II, scaled: cores -> (paper LLC size, latency).
_TABLE_II = {
    2: (1024 * KB, 5),
    4: (2048 * KB, 6),
    8: (4096 * KB, 7),
}


def uncore_config_for_cores(cores: int, policy: str = "LRU") -> UncoreConfig:
    """The paper's Table II uncore for a core count, capacity-scaled.

    Raises:
        ValueError: for core counts the paper does not define (only
            2, 4 and 8 are valid; single-core runs reuse the 2-core
            uncore, as the paper's reference machine does).
    """
    if cores == 1:
        # Reference machine for single-thread IPCs: the 2-core uncore.
        paper_size, latency = _TABLE_II[2]
        cores = 1
    elif cores in _TABLE_II:
        paper_size, latency = _TABLE_II[cores]
    else:
        raise ValueError(f"no Table II uncore for {cores} cores")
    return UncoreConfig(cores=cores, llc_size=paper_size // CAPACITY_SCALE,
                        llc_latency=latency, policy=policy)


class Uncore:
    """A shared LLC plus memory interface serving several cores.

    Each core (thread) gets its own :class:`PageTable`; translation
    happens here, so private caches above operate on virtual addresses
    while the shared LLC is physically indexed -- different threads can
    never hit on each other's data.  Cores reach the uncore through
    their :meth:`port`.  The uncore keeps no reference to its ports,
    the LLC none to the prefetcher, and no port or trigger closure
    holds the uncore, the LLC or the prefetcher (they hold their
    containers), so a run's uncore holds no reference cycle and is
    freed as soon as its machines are.

    Args:
        config: the uncore's configuration.
        seed: seed of the LLC policy ``config`` names.
        policy: an LLC policy object to use instead (sized for the LLC).
    """

    def __init__(self, config: UncoreConfig, seed: int = 0,
                 policy: Optional[ReplacementPolicy] = None) -> None:
        self.config = config
        self.memory = MemoryInterface(config.memory)
        llc_config = config.llc
        if policy is None:
            policy = make_policy(config.policy, llc_config.num_sets,
                                 llc_config.ways, seed=seed)
        self.llc = Cache(llc_config, policy, memory=self.memory)
        # Frames are allocated on first touch, so eager tables are free.
        self._frames = FrameAllocator()
        self._page_tables: List[PageTable] = [
            PageTable(self._frames) for _ in range(max(config.cores, 1))]
        self.prefetcher = (StreamPrefetcher(self.llc)
                           if config.stream_prefetcher else None)
        self.requests_per_core: List[int] = [0] * max(config.cores, 1)

    def fork(self, policy: ReplacementPolicy) -> "Uncore":
        """A copy of this uncore whose LLC continues under ``policy``.

        The copy is built through the constructors, then takes over
        every piece of mutable state: the LLC's lines and fills in
        flight, the bus and DRAM counters, the frame allocator and page
        tables, the stream prefetcher's table and the request counters.
        It shares none of it with this uncore, and cores reach it
        through its own :meth:`port`.
        """
        twin = type(self)(self.config.with_policy(policy.name), policy=policy)
        twin.llc.copy_from(self.llc)
        twin.memory.copy_from(self.memory)
        twin._frames.copy_from(self._frames)
        for table, source in zip(twin._page_tables, self._page_tables):
            table.mapping.update(source.mapping)
        if self.prefetcher is not None:
            twin.prefetcher.copy_from(self.prefetcher)
        twin.requests_per_core[:] = self.requests_per_core
        return twin

    def port(self, core_id: int) -> UncorePort:
        """The port serving core ``core_id``'s requests.

        It is an LLC port (:meth:`Cache.port`) with the core's page
        table, the core's request counter and the stream prefetcher's
        trigger bound in: a mapped page translates without a call, an
        LLC hit is one frame, a miss adds the fill (which is the bus
        too), and the prefetcher sees LLC demand misses.  Its
        ``access(virtual_address, now, is_write=False, pc=0,
        is_prefetch=False)`` returns the data-ready time; it serves a
        detailed core's L1 misses, prefetch fills and writebacks and a
        BADCO or interval machine's demand reads.  ``is_prefetch`` marks
        requests initiated by an L1 prefetcher; they are served like
        demand requests (they are real traffic) but do not count as
        demand accesses or train the stream prefetcher.  Its
        ``post(requests, now, pc)`` serves a machine's non-blocking
        ``(address, is_write)`` pairs the same way, in one call.
        """
        return self.llc.port(
            self._page_tables[core_id], self.requests_per_core, core_id,
            self.prefetcher.trigger if self.prefetcher is not None else None)

    @property
    def llc_demand_misses(self) -> int:
        return self.llc.stats.demand_misses

    def reset_statistics(self) -> None:
        self.llc.stats.reset()
        self.memory.reset_statistics()
        # In place: the ports count into this list.
        self.requests_per_core[:] = [0] * len(self.requests_per_core)
