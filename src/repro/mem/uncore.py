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
miss stream through the shared LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import MemoryConfig, MemoryInterface
from repro.mem.prefetch import StreamPrefetcher
from repro.mem.replacement import make_policy
from repro.mem.tlb import PAGE_BYTES, PAGE_SHIFT, FrameAllocator, PageTable

KB = 1024

#: Paper-to-repro capacity scaling factor (see module docstring).
CAPACITY_SCALE = 16


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
        return UncoreConfig(
            cores=self.cores, llc_size=self.llc_size,
            llc_latency=self.llc_latency, llc_ways=self.llc_ways,
            llc_mshr_entries=self.llc_mshr_entries, policy=policy,
            memory=self.memory, stream_prefetcher=self.stream_prefetcher)


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
    never hit on each other's data.  :meth:`access` is every machine's
    uncore callback: a mapped page translates without a call, and the
    stream prefetcher (which acts only on misses) sees LLC demand misses.
    """

    def __init__(self, config: UncoreConfig, seed: int = 0) -> None:
        self.config = config
        self.memory = MemoryInterface(config.memory)
        llc_config = CacheConfig(
            name="LLC", size_bytes=config.llc_size, ways=config.llc_ways,
            latency=config.llc_latency, mshr_entries=config.llc_mshr_entries)
        policy = make_policy(config.policy, llc_config.num_sets,
                             llc_config.ways, seed=seed)
        self.llc = Cache(llc_config, policy, next_level=self.memory.access)
        # Frames are allocated on first touch, so eager tables are free.
        allocator = FrameAllocator()
        self._page_tables: List[PageTable] = [
            PageTable(allocator) for _ in range(max(config.cores, 1))]
        if config.stream_prefetcher:
            self._prefetcher: Optional[StreamPrefetcher] = StreamPrefetcher(self.llc)
        else:
            self._prefetcher = None
        self.requests_per_core: List[int] = [0] * max(config.cores, 1)

    def access(self, core_id: int, virtual_address: int, now: int,
               is_write: bool = False, pc: int = 0,
               is_prefetch: bool = False) -> int:
        """Serve one L1 miss from a core; returns data-ready time.

        ``is_prefetch`` marks requests initiated by an L1 prefetcher;
        they are served like demand requests (they are real traffic)
        but do not train the LLC stream prefetcher.
        """
        self.requests_per_core[core_id] += 1
        table = self._page_tables[core_id]
        frame = table.mapping.get(virtual_address >> PAGE_SHIFT)
        if frame is None:
            physical = table.translate(virtual_address)
        else:
            physical = (frame << PAGE_SHIFT) | (virtual_address
                                                & (PAGE_BYTES - 1))
        llc = self.llc
        if is_prefetch or self._prefetcher is None:
            return llc.access(physical, now, is_write, not is_prefetch)
        misses = llc.stats.demand_misses
        done = llc.access(physical, now, is_write, True)
        if llc.stats.demand_misses > misses:
            self._prefetcher.observe(pc, physical, now, True)
        return done

    @property
    def llc_demand_misses(self) -> int:
        return self.llc.stats.demand_misses

    def reset_statistics(self) -> None:
        self.llc.stats.reset()
        self.memory.reads = 0
        self.memory.writes = 0
        self.memory.busy_cycles = 0
        self.requests_per_core = [0] * max(self.config.cores, 1)
