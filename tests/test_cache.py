"""Set-associative cache model."""

import pytest

from repro.mem.cache import Cache, CacheConfig
from repro.mem.replacement import make_policy


def _cache(size=1024, ways=2, latency=2, next_level=None, policy="LRU",
           mshr=4):
    config = CacheConfig(name="L", size_bytes=size, ways=ways,
                         latency=latency, mshr_entries=mshr)
    return Cache(config, make_policy(policy, config.num_sets, ways),
                 next_level=next_level)


def test_geometry():
    config = CacheConfig(name="L", size_bytes=8192, ways=4)
    assert config.num_sets == 32


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(name="L", size_bytes=1000, ways=3)


def test_policy_shape_must_match():
    config = CacheConfig(name="L", size_bytes=1024, ways=2)
    with pytest.raises(ValueError):
        Cache(config, make_policy("LRU", 4, 4))


def test_first_access_misses_then_hits():
    cache = _cache()
    done = cache.access(0x1000, 0)
    assert cache.stats.demand_misses == 1
    later = cache.access(0x1000, done)
    assert cache.stats.demand_hits == 1
    assert later == done + cache.config.latency


def test_same_line_same_entry():
    cache = _cache()
    cache.access(0x1000, 0)
    cache.access(0x1000 + 63, 100)      # same 64-byte line
    assert cache.stats.demand_misses == 1
    assert cache.stats.demand_hits == 1


def test_miss_latency_includes_next_level():
    def slow_memory(address, now, is_write, pc, is_prefetch):
        return now + 100

    cache = _cache(next_level=slow_memory)
    done = cache.access(0x2000, 0)
    assert done == 0 + cache.config.latency + 100


def test_capacity_eviction():
    cache = _cache(size=256, ways=2)    # 2 sets x 2 ways
    lines = [0x0, 0x80, 0x100, 0x180, 0x200]  # set 0 gets 0,0x100,0x200...
    for i, address in enumerate(lines):
        cache.access(address, i * 10)
    assert cache.stats.evictions >= 1
    assert cache.resident_lines() <= 4


def test_lru_victim_order():
    cache = _cache(size=128, ways=2)    # 1 set, 2 ways
    cache.access(0x000, 0)
    cache.access(0x040, 10)
    cache.access(0x000, 20)             # touch line 0: line 1 is now LRU
    cache.access(0x080, 30)             # evicts line 1
    assert cache.contains(0x000)
    assert not cache.contains(0x040)


def test_writeback_on_dirty_eviction():
    writes = []

    def memory(address, now, is_write, pc, is_prefetch):
        if is_write:
            writes.append(address)
        return now + 10

    cache = _cache(size=128, ways=1, next_level=memory)
    cache.access(0x000, 0, is_write=True)
    cache.access(0x080, 10)             # evicts dirty line 0
    assert writes == [0x000]
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    writes = []

    def memory(address, now, is_write, pc, is_prefetch):
        if is_write:
            writes.append(address)
        return now + 10

    cache = _cache(size=128, ways=1, next_level=memory)
    cache.access(0x000, 0)
    cache.access(0x080, 10)
    assert writes == []


def test_pc_travels_to_the_next_level():
    """A request's ``pc`` reaches the next level with its miss's fill,
    with a prefetch fill's, and with the writeback a fill evicts."""
    calls = []

    def memory(address, now, is_write, pc, is_prefetch):
        calls.append((address, is_write, pc, is_prefetch))
        return now + 10

    cache = _cache(size=128, ways=1, next_level=memory)   # 2 sets x 1 way
    access = cache.port().access
    access(0x000, 0, True, 0x400)       # a dirty line in set 0
    cache.prefetch(0x040, 5, 0x404)     # set 1
    access(0x080, 10, False, 0x408)     # evicts line 0 from set 0
    assert calls == [(0x000, False, 0x400, False),
                     (0x040, False, 0x404, True),
                     (0x080, False, 0x408, False),
                     (0x000, True, 0x408, False)]


def test_prefetch_fills_without_demand_stats():
    cache = _cache()
    assert cache.prefetch(0x3000, 0) is not None
    assert cache.stats.prefetch_issued == 1
    assert cache.stats.demand_accesses == 0
    assert cache.prefetch(0x3000, 10) is None    # already present
    assert cache.stats.prefetch_useless == 1


def test_late_prefetch_counts_as_demand_miss():
    def slow(address, now, is_write, pc, is_prefetch):
        return now + 500

    cache = _cache(next_level=slow)
    cache.prefetch(0x4000, 0)
    cache.access(0x4000, 10)            # fill still in flight
    assert cache.stats.demand_misses == 1
    assert cache.stats.mshr_hits == 1
    # Second touch while still in flight: already charged, now a hit.
    cache.access(0x4000, 20)
    assert cache.stats.demand_misses == 1


def test_demand_merge_is_not_a_new_miss():
    def slow(address, now, is_write, pc, is_prefetch):
        return now + 500

    cache = _cache(next_level=slow)
    cache.access(0x5000, 0)             # miss, fill in flight
    cache.access(0x5000, 10)            # merges into the MSHR
    assert cache.stats.demand_misses == 1
    assert cache.stats.mshr_hits == 1


def test_uncounted_access_keeps_timing_but_not_stats():
    cache = _cache()
    done = cache.access(0x6000, 0, count_demand=False)
    assert done >= cache.config.latency
    assert cache.stats.demand_accesses == 0
    assert cache.contains(0x6000)


def test_mshr_pressure_delays_fills():
    def slow(address, now, is_write, pc, is_prefetch):
        return now + 1000

    cache = _cache(size=4096, ways=4, next_level=slow, mshr=2)
    t0 = cache.access(0x0, 0)
    t1 = cache.access(0x1000, 0)
    t2 = cache.access(0x2000, 0)        # both MSHRs busy: must wait
    assert t2 > max(t0, t1)


def test_demand_miss_rate():
    cache = _cache()
    cache.access(0x0, 0)
    cache.access(0x0, 100)
    assert cache.stats.demand_miss_rate == pytest.approx(0.5)
