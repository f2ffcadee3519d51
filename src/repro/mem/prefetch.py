"""Hardware prefetchers.

The paper's configuration (Tables I and II) uses a next-line prefetcher
at the IL1, an IP-based stride prefetcher (plus next-line) at the DL1,
and IP-stride + stream prefetchers at the LLC.  The detailed core builds
the L1 ones; the uncore builds only the LLC :class:`StreamPrefetcher`,
which never reads ``pc`` -- there is no IP-stride prefetcher at the LLC.
Each is an *observer*: the owning core or uncore calls
``observe(pc, address, now, was_miss)`` after a demand access and the
prefetcher issues ``cache.prefetch`` calls for predicted lines.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.mem.cache import Cache


class Prefetcher:
    """Base class: observes an access stream, issues prefetches."""

    def __init__(self, cache: Cache) -> None:
        self.cache = cache

    def observe(self, pc: int, address: int, now: int, was_miss: bool) -> None:
        raise NotImplementedError


class NextLinePrefetcher(Prefetcher):
    """Prefetch line N+1 whenever line N misses.

    The classic instruction prefetcher; also a decent data prefetcher
    for short streams.
    """

    def observe(self, pc: int, address: int, now: int, was_miss: bool) -> None:
        if was_miss:
            line_bytes = self.cache.config.line_bytes
            self.cache.prefetch(address + line_bytes, now)


class StridePrefetcher(Prefetcher):
    """IP-based stride prefetcher.

    A table indexed by instruction address tracks the last address and
    last stride of each memory instruction; after ``confidence_needed``
    consecutive identical strides it prefetches ``degree`` strides
    ahead.  Catches array walks of any fixed stride, including ones the
    next-line prefetcher misses.
    """

    def __init__(self, cache: Cache, table_entries: int = 64,
                 confidence_needed: int = 2, degree: int = 2) -> None:
        super().__init__(cache)
        self.table_entries = table_entries
        self.confidence_needed = confidence_needed
        self.degree = degree
        # pc -> (last_address, stride, confidence)
        self._table: Dict[int, Tuple[int, int, int]] = {}

    def observe(self, pc: int, address: int, now: int, was_miss: bool) -> None:
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.table_entries:
                # Evict the oldest entry (dict preserves insertion order).
                self._table.pop(next(iter(self._table)))
            self._table[pc] = (address, 0, 0)
            return
        last_address, last_stride, confidence = entry
        stride = address - last_address
        if stride != 0 and stride == last_stride:
            confidence = min(confidence + 1, self.confidence_needed)
        else:
            confidence = 0
        self._table[pc] = (address, stride, confidence)
        if confidence >= self.confidence_needed and stride != 0:
            for ahead in range(1, self.degree + 1):
                self.cache.prefetch(address + stride * ahead, now)


class StreamPrefetcher(Prefetcher):
    """Region-based stream prefetcher (LLC style).

    Tracks recently-missed lines per 4 kB region; when two consecutive
    lines of a region miss in order, a stream is confirmed and the
    prefetcher runs ``degree`` lines ahead of the demand stream in the
    detected direction.
    """

    def __init__(self, cache: Cache, streams: int = 8, degree: int = 2,
                 region_bytes: int = 4096) -> None:
        super().__init__(cache)
        self.streams = streams
        self.degree = degree
        self.region_bytes = region_bytes
        self._line_bytes = cache.config.line_bytes
        self._prefetch = cache.prefetch
        # region -> (last_line, direction, confirmed)
        self._table: Dict[int, Tuple[int, int, bool]] = {}

    def observe(self, pc: int, address: int, now: int, was_miss: bool) -> None:
        if not was_miss:
            return
        line_bytes = self._line_bytes
        line = address // line_bytes
        region = address // self.region_bytes
        entry = self._table.get(region)
        if entry is None:
            if len(self._table) >= self.streams:
                self._table.pop(next(iter(self._table)))
            self._table[region] = (line, 0, False)
            return
        last_line, direction, confirmed = entry
        step = line - last_line
        if step in (1, -1):
            confirmed = direction == step or not confirmed
            direction = step
            if confirmed:
                for ahead in range(1, self.degree + 1):
                    self._prefetch((line + direction * ahead) * line_bytes, now)
        self._table[region] = (line, direction, confirmed)

    def copy_from(self, source: "StreamPrefetcher") -> None:
        """Take over ``source``'s stream table."""
        self._table = source._table.copy()
