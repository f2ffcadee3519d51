"""Differential test: the hashed-index ``Cache`` against a list-scan oracle.

``ListScanCache`` below is the cache as it was before lines were found
through a ``line -> slot`` dict: per-set tag lists searched with
``tag in tags`` / ``tags.index``, the lowest invalid way found with
``-1 in tags``, and the MSHR list rebuilt on every pruning.  Hypothesis
drives both through the same random mix of demand, prefetch-initiated
and write accesses and explicit prefetches -- at non-monotonic times,
with 1-4 MSHR entries, on tiny geometries that evict all the time,
under every registered policy -- and every observable must agree:
return values, statistics, residency and the next level's call log,
each call's ``pc`` included.
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig, CacheStats
from repro.mem.replacement import _REGISTRY, make_policy


class ListScanCache:
    """The list-scan cache (the oracle): per-set tag lists, ``-1`` for
    an invalid way, and a plain list of outstanding fills."""

    def __init__(self, config, policy, next_level=None):
        self.config = config
        self.policy = policy
        self._on_hit = policy.on_hit
        self._on_miss = policy.on_miss
        self._on_fill = policy.on_fill
        self._victim = policy.victim
        self.next_level = next_level
        self.stats = CacheStats()
        sets = config.num_sets
        ways = config.ways
        self.num_sets = sets
        self.latency = config.latency
        self.mshr_entries = config.mshr_entries
        self.writeback = config.writeback
        self._line_mask = ~(config.line_bytes - 1)
        self._tags: List[List[int]] = [[-1] * ways for _ in range(sets)]
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(sets)]
        self._ready: List[List[int]] = [[0] * ways for _ in range(sets)]
        self._filled_by_prefetch: List[List[bool]] = [
            [False] * ways for _ in range(sets)]
        self._outstanding: List[int] = []
        self._line_shift = config.line_bytes.bit_length() - 1

    def _mshr_delay(self, now):
        live = [t for t in self._outstanding if t > now]
        self._outstanding = live
        if len(live) < self.mshr_entries:
            return 0
        return min(live) - now

    def access(self, address, now, is_write=False, count_demand=True, pc=0):
        tag, set_index = divmod(address >> self._line_shift, self.num_sets)
        tags = self._tags[set_index]
        stats = self.stats
        if tag in tags:
            way = tags.index(tag)
            ready = self._ready[set_index][way]
            if count_demand:
                stats.demand_accesses += 1
                if ready > now:
                    stats.mshr_hits += 1
                    if self._filled_by_prefetch[set_index][way]:
                        stats.demand_misses += 1
                        self._filled_by_prefetch[set_index][way] = False
                    else:
                        stats.demand_hits += 1
                else:
                    stats.demand_hits += 1
                    self._filled_by_prefetch[set_index][way] = False
            self._on_hit(set_index, way)
            if is_write:
                self._dirty[set_index][way] = True
            done = now + self.latency
            return ready if ready > done else done
        if count_demand:
            stats.demand_accesses += 1
            stats.demand_misses += 1
            self._on_miss(set_index)
        else:
            stats.prefetch_issued += 1
        return self._fill(address, set_index, tag, now, is_write,
                          not count_demand, pc)

    def prefetch(self, address, now, pc=0):
        tag, set_index = divmod(address >> self._line_shift, self.num_sets)
        if tag in self._tags[set_index]:
            self.stats.prefetch_useless += 1
            return None
        self.stats.prefetch_issued += 1
        return self._fill(address, set_index, tag, now, is_write=False,
                          is_prefetch=True, pc=pc)

    def _fill(self, address, set_index, tag, now, is_write,
              is_prefetch=False, pc=0):
        start = now + self.latency
        if len(self._outstanding) >= self.mshr_entries:
            start += self._mshr_delay(now)
        next_level = self.next_level
        if next_level is not None:
            done = next_level(address & self._line_mask, start, False, pc,
                              is_prefetch)
        else:
            done = start
        tags = self._tags[set_index]
        dirty = self._dirty[set_index]
        if -1 in tags:
            way = tags.index(-1)
        else:
            way = self._victim(set_index)
            stats = self.stats
            stats.evictions += 1
            if dirty[way] and self.writeback:
                stats.writebacks += 1
                if next_level is not None:
                    next_level((tags[way] * self.num_sets + set_index)
                               << self._line_shift, now, True, pc, False)
        tags[way] = tag
        dirty[way] = is_write
        self._ready[set_index][way] = done
        self._filled_by_prefetch[set_index][way] = is_prefetch
        self._outstanding.append(done)
        self._on_fill(set_index, way)
        return done

    def contains(self, address):
        tag, set_index = divmod(address >> self._line_shift, self.num_sets)
        return tag in self._tags[set_index]

    def resident_lines(self):
        return sum(1 for tags in self._tags for t in tags if t != -1)


class RecordingLevel:
    """A next level with a busy-until bus: its answers depend on the
    whole call history, so any divergence in calls shows in timing."""

    def __init__(self, latency: int, transfer: int) -> None:
        self.latency = latency
        self.transfer = transfer
        self.busy_until = 0
        self.calls: List[tuple] = []

    def __call__(self, address, now, is_write, pc, is_prefetch):
        self.calls.append((address, now, is_write, pc, is_prefetch))
        start = max(now, self.busy_until)
        self.busy_until = start + self.transfer
        return now if is_write else start + self.latency


#: One operation: (kind, line, time step, is_write), where kind 0 is a
#: demand access, 1 an access a prefetcher initiated (the port's
#: ``is_prefetch``, the oracle's ``count_demand=False``) and 2 an
#: explicit ``prefetch``.  Steps may
#: be negative: cores issue at their own, interleaved local times.
#: Short steps and latencies make a fill often start exactly when an
#: outstanding one completes (the MSHR boundary case).
OPERATION = st.tuples(st.integers(0, 2), st.integers(0, 47),
                      st.integers(-12, 16), st.booleans())


def _geometry(policy):
    ways = st.sampled_from((1, 2, 4) if policy == "PLRU" else (1, 2, 3, 4))
    return st.tuples(st.sampled_from((1, 2, 4)), ways, st.integers(1, 4),
                     st.integers(0, 6), st.booleans(),
                     st.sampled_from((None, (6, 1), (40, 3), (300, 16))))


def _pair(policy, sets, ways, mshr, latency, writeback, level, seed):
    config = CacheConfig(name="L", size_bytes=sets * ways * 64, ways=ways,
                         latency=latency, mshr_entries=mshr,
                         writeback=writeback)
    caches, levels = [], []
    for kind in (Cache, ListScanCache):
        next_level: Optional[RecordingLevel] = (
            RecordingLevel(*level) if level is not None else None)
        levels.append(next_level)
        caches.append(kind(config, make_policy(policy, sets, ways,
                                               seed=seed),
                           next_level=next_level))
    return caches, levels


@pytest.mark.parametrize("policy", sorted(_REGISTRY))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hashed_cache_matches_list_scan_oracle(policy, data):
    sets, ways, mshr, latency, writeback, level = data.draw(
        _geometry(policy))
    seed = data.draw(st.integers(0, 3))
    operations = data.draw(st.lists(OPERATION, max_size=120))
    (cache, oracle), (level_new, level_old) = _pair(
        policy, sets, ways, mshr, latency, writeback, level, seed)
    access = cache.port().access
    touched = set()
    now = 0
    for kind, line, step, is_write in operations:
        now = max(0, now + step)
        # Byte offsets inside the line must not matter.
        address = line * 64 + (now % 64)
        touched.add(address)
        pc = 0x400 + 4 * line
        if kind == 2:
            results = [c.prefetch(address, now, pc) for c in (cache, oracle)]
        else:
            results = [access(address, now, is_write, pc, kind != 0),
                       oracle.access(address, now, is_write, kind == 0, pc)]
        assert results[0] == results[1]
        assert cache.stats == oracle.stats
    for address in touched:
        assert cache.contains(address) == oracle.contains(address)
    assert cache.resident_lines() == oracle.resident_lines()
    if level is not None:
        assert level_new.calls == level_old.calls


def test_a_fill_done_at_now_frees_its_mshr_for_earlier_requests():
    """The MSHR boundary, pinned: a fill that completes exactly at a
    later fill's ``now`` leaves the outstanding set then, so a request
    issued afterwards at an earlier local time does not wait for it."""
    (cache, oracle), _ = _pair("LRU", 4, 2, 1, 2, True, (100, 1), 0)
    for c in (cache, oracle):
        assert c.access(0 * 64, 0) == 102
        assert c.access(1 * 64, 102) == 204        # 102 leaves the MSHR
        assert c.access(2 * 64, 101) == 306        # waits for 204 only
    assert cache.stats == oracle.stats
