"""TLBs and per-thread page allocation.

The paper's BADCO setup translates virtual to physical addresses in the
uncore, allocating a new physical page on a page miss.  We reproduce
that: each simulated thread owns a :class:`PageTable` that lazily maps
its virtual pages to globally unique physical frames, and each core has
small set-associative TLBs whose misses add a fixed walk penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

PAGE_BYTES = 4096
PAGE_SHIFT = 12


class FrameAllocator:
    """Hands out sequential physical frame numbers, machine-wide.

    Sequential allocation spreads frames evenly across LLC sets and
    guarantees different threads never alias to the same physical line
    (independent programs share nothing).
    """

    def __init__(self) -> None:
        self._next_frame = 1          # frame 0 reserved (null page)

    def allocate(self) -> int:
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def copy_from(self, source: "FrameAllocator") -> None:
        """Continue from where ``source`` stands."""
        self._next_frame = source._next_frame


class PageTable:
    """Lazy virtual-to-physical mapping for one thread.

    ``mapping`` (page -> frame) is public for the uncore's hot path;
    frames are allocated only by :meth:`translate`.
    """

    def __init__(self, allocator: FrameAllocator) -> None:
        self._allocator = allocator
        self.mapping: Dict[int, int] = {}

    def translate(self, virtual_address: int) -> int:
        """Physical address for a virtual one, allocating on first touch."""
        page = virtual_address >> PAGE_SHIFT
        frame = self.mapping.get(page)
        if frame is None:
            frame = self._allocator.allocate()
            self.mapping[page] = frame
        return (frame << PAGE_SHIFT) | (virtual_address & (PAGE_BYTES - 1))

    @property
    def pages_mapped(self) -> int:
        return len(self.mapping)


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB."""

    name: str
    entries: int
    ways: int
    latency: int = 2
    miss_penalty: int = 30

    @property
    def num_sets(self) -> int:
        sets = self.entries // self.ways
        if sets < 1:
            raise ValueError(f"{self.name}: fewer than one set")
        return sets


class Tlb:
    """Set-associative TLB with LRU replacement.

    ``lookup`` returns the extra cycles the translation costs beyond the
    pipelined access (0 on a hit, ``miss_penalty`` on a miss); the
    geometry it reads is copied into plain attributes at construction.
    """

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.hits = 0
        self.misses = 0
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.miss_penalty = config.miss_penalty
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def lookup(self, virtual_address: int) -> int:
        page = virtual_address >> PAGE_SHIFT
        entries = self._sets[page % self.num_sets]
        if page in entries:
            self.hits += 1
            entries.remove(page)
            entries.append(page)          # move to MRU
            return 0
        self.misses += 1
        entries.append(page)
        if len(entries) > self.ways:
            entries.pop(0)                # evict LRU
        return self.miss_penalty
