"""Hardware prefetchers.

The paper's configuration (Tables I and II) uses a next-line prefetcher
at the IL1, an IP-based stride prefetcher (plus next-line) at the DL1,
and IP-stride + stream prefetchers at the LLC.  The detailed core builds
the L1 ones; the uncore builds only the LLC :class:`StreamPrefetcher`,
which never reads ``pc`` -- there is no IP-stride prefetcher at the LLC.
Each is an *observer*: ``observe(pc, address, now, was_miss)`` after a
demand access issues the cache's prefetch fill
(:attr:`~repro.mem.cache.Cache.prefetch`) for predicted lines, with the
observed ``pc``, which the fill carries to the next level.  The
detailed core calls the L1 ones; the stream prefetcher's
:attr:`StreamPrefetcher.trigger` is bound into every LLC port, which
calls it on each demand miss.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.mem.cache import Cache, Trigger


class Prefetcher:
    """Base class: observes an access stream, issues prefetches."""

    def __init__(self, cache: Cache) -> None:
        self.cache = cache
        self._prefetch = cache.prefetch

    def observe(self, pc: int, address: int, now: int, was_miss: bool) -> None:
        raise NotImplementedError


class NextLinePrefetcher(Prefetcher):
    """Prefetch line N+1 whenever line N misses.

    The classic instruction prefetcher; also a decent data prefetcher
    for short streams.
    """

    def __init__(self, cache: Cache) -> None:
        super().__init__(cache)
        self._line_bytes = cache.config.line_bytes

    def observe(self, pc: int, address: int, now: int, was_miss: bool) -> None:
        if was_miss:
            self._prefetch(address + self._line_bytes, now, pc)


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
                self._prefetch(address + stride * ahead, now, pc)


class StreamPrefetcher(Prefetcher):
    """Region-based stream prefetcher (LLC style).

    Tracks recently-missed lines per 4 kB region; when two consecutive
    lines of a region miss in order, a stream is confirmed and the
    prefetcher runs ``degree`` lines ahead of the demand stream in the
    detected direction.  :attr:`trigger`, ``trigger(address, now)``,
    takes one miss: the uncore binds it into its LLC ports.
    """

    def __init__(self, cache: Cache, streams: int = 8, degree: int = 2,
                 region_bytes: int = 4096) -> None:
        super().__init__(cache)
        self.streams = streams
        self.degree = degree
        self.region_bytes = region_bytes
        # region -> (last_line, direction, confirmed)
        self._table: Dict[int, Tuple[int, int, bool]] = {}
        self.trigger: Trigger = _stream_trigger(
            self._table, streams, degree, region_bytes,
            cache.config.line_bytes, self._prefetch)

    def observe(self, pc: int, address: int, now: int, was_miss: bool) -> None:
        if was_miss:
            self.trigger(address, now)

    def copy_from(self, source: "StreamPrefetcher") -> None:
        """Take over ``source``'s stream table (in place: the trigger
        holds it)."""
        self._table.clear()
        self._table.update(source._table)


def _stream_trigger(table: Dict[int, Tuple[int, int, bool]], streams: int,
                    degree: int, region_bytes: int, line_bytes: int,
                    prefetch: Callable[[int, int], Optional[int]]
                    ) -> Trigger:
    """The stream prefetcher's miss handler, over its table and its
    cache's prefetch fill -- not the prefetcher, which holds it."""

    def trigger(address: int, now: int) -> None:
        line = address // line_bytes
        region = address // region_bytes
        entry = table.get(region)
        if entry is None:
            if len(table) >= streams:
                table.pop(next(iter(table)))
            table[region] = (line, 0, False)
            return
        last_line, direction, confirmed = entry
        step = line - last_line
        if step == 1 or step == -1:
            confirmed = direction == step or not confirmed
            direction = step
            if confirmed:
                for ahead in range(1, degree + 1):
                    prefetch((line + direction * ahead) * line_bytes, now)
        table[region] = (line, direction, confirmed)

    return trigger
