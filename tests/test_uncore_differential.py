"""Differential test: the uncore's ports against the request chain they
replace.

``ReferenceUncore`` below serves each core's requests the way the
uncore did before every cache had one access closure and the LLC's fill
did the bus arithmetic: a port that translates through the core's page
table, counts the request and calls the LLC's ``access`` (here the
list-scan oracle of ``test_cache_differential``), whose misses fill
through ``_fill`` into a bus object (``ReferenceBus``, the busy-until
bus as a method call), and a stream prefetcher whose ``observe`` runs
after every demand access that raised the LLC's demand-miss count and
prefetches through the LLC's ``prefetch``.  A port's ``post`` -- a
machine's non-blocking traffic in one call -- is checked against one
prefetch-flagged reference call per pair.  Hypothesis drives both
sides with random multi-core streams -- demand, write and
prefetch-flagged requests and posted batches at non-monotonic times, on
tiny geometries, under every registered policy -- and applies
``Uncore.fork`` and ``Cache.use_policy`` mid-stream.  Return values,
LLC statistics, bus counters and bus-free time, per-core request
counts, full sets, residency and the prefetcher's table must all agree.
"""

import copy
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.dram import MemoryConfig
from repro.mem.replacement import _REGISTRY, make_policy
from repro.mem.tlb import PAGE_BYTES, FrameAllocator, PageTable
from repro.mem.uncore import Uncore, UncoreConfig

from tests.test_cache_differential import ListScanCache


class ReferenceStreamPrefetcher:
    """The stream prefetcher as an observer method over its cache."""

    def __init__(self, cache, streams=8, degree=2, region_bytes=4096):
        self.cache = cache
        self.streams = streams
        self.degree = degree
        self.region_bytes = region_bytes
        self.table: Dict[int, Tuple[int, int, bool]] = {}

    def observe(self, pc, address, now, was_miss):
        if not was_miss:
            return
        line_bytes = self.cache.config.line_bytes
        line = address // line_bytes
        region = address // self.region_bytes
        entry = self.table.get(region)
        if entry is None:
            if len(self.table) >= self.streams:
                self.table.pop(next(iter(self.table)))
            self.table[region] = (line, 0, False)
            return
        last_line, direction, confirmed = entry
        step = line - last_line
        if step in (1, -1):
            confirmed = direction == step or not confirmed
            direction = step
            if confirmed:
                for ahead in range(1, self.degree + 1):
                    self.cache.prefetch(
                        (line + direction * ahead) * line_bytes, now)
        self.table[region] = (line, direction, confirmed)


class ReferenceBus:
    """The FSB + DRAM as a call per transfer: a busy-until pointer, a
    line read returning ``dram_latency`` after its transfer starts, a
    posted write returning at once."""

    def __init__(self, config: MemoryConfig):
        self.transfer_cycles = config.transfer_cycles
        self.dram_latency = config.dram_latency
        self.reads = 0
        self.writes = 0
        self.busy_cycles = 0
        self.bus_free = 0

    def access(self, address, now, is_write, pc, is_prefetch):
        start = self.bus_free if self.bus_free > now else now
        self.bus_free = start + self.transfer_cycles
        self.busy_cycles += self.transfer_cycles
        if is_write:
            self.writes += 1
            return now
        self.reads += 1
        return start + self.dram_latency


class ReferenceUncore:
    """LLC (list-scan oracle) + bus + stream prefetcher + page tables,
    wired as a chain of method calls."""

    def __init__(self, config: UncoreConfig, policy):
        self.memory = ReferenceBus(config.memory)
        self.llc = ListScanCache(config.llc, policy,
                                 next_level=self.memory.access)
        frames = FrameAllocator()
        self.page_tables = [PageTable(frames)
                            for _ in range(max(config.cores, 1))]
        self.prefetcher = (ReferenceStreamPrefetcher(self.llc)
                           if config.stream_prefetcher else None)
        self.requests_per_core: List[int] = [0] * max(config.cores, 1)

    def use_policy(self, policy):
        llc = self.llc
        llc.policy = policy
        llc._on_hit = policy.on_hit
        llc._on_miss = policy.on_miss
        llc._on_fill = policy.on_fill
        llc._victim = policy.victim

    def fork(self, policy):
        twin = copy.deepcopy(self)
        twin.use_policy(policy)
        return twin

    def port(self, core_id):
        table = self.page_tables[core_id]
        llc = self.llc
        prefetcher = self.prefetcher

        def access(virtual_address, now, is_write=False, pc=0,
                   is_prefetch=False):
            self.requests_per_core[core_id] += 1
            physical = table.translate(virtual_address)
            if is_prefetch or prefetcher is None:
                return llc.access(physical, now, is_write, not is_prefetch)
            misses = llc.stats.demand_misses
            done = llc.access(physical, now, is_write, True)
            if llc.stats.demand_misses > misses:
                prefetcher.observe(pc, physical, now, True)
            return done

        return access

    def full_sets(self):
        return sum(-1 not in tags for tags in self.llc._tags)


#: One operation: (kind, core, address slot, time step, is_write).
#: Kinds 0-2 are requests (0 demand, 1 demand write-or-read, 2
#: prefetch-flagged) and 5 a posted batch of the pairs :data:`BATCH`
#: draws; 3 forks the uncore under another policy and 4 gives the LLC
#: another policy on its existing ports.  An address slot picks one of
#: eight lines in one of three pages, or ("-"/"+") the line below or
#: above the last one, so streams run both ways and confirm often.
SLOT = st.one_of(st.integers(0, 23), st.sampled_from("-+"))
OPERATION = st.tuples(st.sampled_from((0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 5)),
                      st.integers(0, 2), SLOT, st.integers(-12, 16),
                      st.booleans())

#: A posted batch: up to five (address slot, is_write) pairs, empty
#: included.
BATCH = st.lists(st.tuples(SLOT, st.booleans()), max_size=5)


def _config(policy, data):
    ways = data.draw(st.sampled_from(
        (1, 2, 4) if policy == "PLRU" else (1, 2, 3, 4)))
    sets = data.draw(st.sampled_from((1, 2, 4)))
    return UncoreConfig(
        cores=data.draw(st.integers(1, 3)), llc_size=sets * ways * 64,
        llc_latency=data.draw(st.integers(0, 6)), llc_ways=ways,
        llc_mshr_entries=data.draw(st.integers(1, 4)), policy=policy,
        memory=MemoryConfig(dram_latency=data.draw(
            st.sampled_from((6, 40, 200)))),
        stream_prefetcher=data.draw(st.booleans()))


def _assert_same(uncore, reference, touched):
    llc = uncore.llc
    assert vars(llc.stats) == vars(reference.llc.stats)
    memory, oracle_memory = uncore.memory, reference.memory
    assert (memory.reads, memory.writes, memory.busy_cycles,
            memory.bus_free) == (
        oracle_memory.reads, oracle_memory.writes, oracle_memory.busy_cycles,
        oracle_memory.bus_free)
    assert uncore.requests_per_core == reference.requests_per_core
    assert llc.full_sets == reference.full_sets()
    assert llc.resident_lines() == reference.llc.resident_lines()
    for core, table in enumerate(reference.page_tables):
        assert uncore._page_tables[core].mapping == table.mapping
        for virtual in touched:
            frame = table.mapping.get(virtual // PAGE_BYTES)
            if frame is not None:
                physical = frame * PAGE_BYTES + virtual % PAGE_BYTES
                assert llc.contains(physical) == \
                    reference.llc.contains(physical)
    if reference.prefetcher is not None:
        assert list(uncore.prefetcher._table.items()) == \
            list(reference.prefetcher.table.items())


@pytest.mark.parametrize("policy", sorted(_REGISTRY))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ports_match_the_reference_request_chain(policy, data):
    config = _config(policy, data)
    seed = data.draw(st.integers(0, 3))
    llc = config.llc

    def fresh(name):
        return make_policy(name, llc.num_sets, llc.ways, seed=seed)

    # Tree-PLRU needs a power-of-two way count.
    names = sorted(name for name in _REGISTRY
                   if name != "PLRU" or llc.ways != 3)
    cores = config.cores
    uncore = Uncore(config, policy=fresh(policy))
    reference = ReferenceUncore(config, fresh(policy))
    # Live (uncore, its ports, reference, its ports) pairs: a fork
    # adds one, and every request goes to all of them.
    pairs = [(uncore, [uncore.port(core) for core in range(cores)],
              reference, [reference.port(core) for core in range(cores)])]
    touched = set()
    now = 0
    slot = 0

    def address_of(where):
        nonlocal slot
        slot = where if isinstance(where, int) else max(
            0, slot + (1 if where == "+" else -1))
        # Byte offsets inside a line must not matter.
        address = (slot // 8) * PAGE_BYTES + (slot % 8) * 64 + now % 64
        touched.add(address)
        return address

    for kind, core, where, step, is_write in data.draw(
            st.lists(OPERATION, min_size=10, max_size=200)):
        if kind in (3, 4):
            name = data.draw(st.sampled_from(names))
            if kind == 3 and len(pairs) < 3:
                source, _, source_reference, _ = pairs[-1]
                twin = source.fork(fresh(name))
                twin_reference = source_reference.fork(fresh(name))
                pairs.append((
                    twin, [twin.port(c) for c in range(cores)],
                    twin_reference,
                    [twin_reference.port(c) for c in range(cores)]))
            elif kind == 4:
                live, _, live_reference, _ = pairs[0]
                live.llc.use_policy(fresh(name))
                live_reference.use_policy(fresh(name))
            continue
        core %= cores
        now = max(0, now + step)
        if kind == 5:
            batch = tuple((address_of(at), write)
                          for at, write in data.draw(BATCH))
            pc = 0x800 + len(batch)
            for live, ports, live_reference, reference_ports in pairs:
                assert ports[core].post(batch, now, pc) is None
                for address, write in batch:
                    reference_ports[core](address, now, write, pc, True)
                _assert_same(live, live_reference, touched)
            continue
        address = address_of(where)
        request = (address, now, is_write and kind != 0, 0x400 + slot,
                   kind == 2)
        for live, ports, live_reference, reference_ports in pairs:
            assert ports[core].access(*request) == \
                reference_ports[core](*request)
            _assert_same(live, live_reference, touched)
