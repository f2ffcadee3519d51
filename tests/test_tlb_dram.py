"""TLBs, page tables and the FSB/DRAM model (driven through the LLC
fill that does its arithmetic)."""

import pytest

from repro.mem.cache import Cache, CacheConfig
from repro.mem.dram import MemoryConfig, MemoryInterface
from repro.mem.replacement import make_policy
from repro.mem.tlb import FrameAllocator, PageTable, Tlb, TlbConfig


def test_page_table_lazy_allocation():
    table = PageTable(FrameAllocator())
    a = table.translate(0x1000_0000)
    b = table.translate(0x1000_0004)
    assert b == a + 4                   # same page, same frame
    assert table.pages_mapped == 1
    table.translate(0x2000_0000)
    assert table.pages_mapped == 2


def test_threads_never_share_frames():
    allocator = FrameAllocator()
    t1, t2 = PageTable(allocator), PageTable(allocator)
    a = t1.translate(0x1000_0000)
    b = t2.translate(0x1000_0000)       # same virtual page, other thread
    assert a >> 12 != b >> 12


def test_offsets_preserved():
    table = PageTable(FrameAllocator())
    assert table.translate(0x1234_5678) & 0xFFF == 0x678


def test_tlb_hit_after_miss():
    tlb = Tlb(TlbConfig(name="T", entries=8, ways=2, miss_penalty=30))
    assert tlb.lookup(0x1000_0000) == 30
    assert tlb.lookup(0x1000_0800) == 0     # same page
    assert tlb.misses == 1 and tlb.hits == 1


def test_tlb_capacity_eviction():
    tlb = Tlb(TlbConfig(name="T", entries=2, ways=2, miss_penalty=30))
    # Three pages mapping to one set of two ways: first gets evicted.
    pages = [0x0, 0x1000 * 2, 0x1000 * 4]
    for page in pages:
        tlb.lookup(page)
    assert tlb.lookup(pages[0]) == 30       # was evicted (LRU)


def test_tlb_config_validation():
    with pytest.raises(ValueError):
        TlbConfig(name="T", entries=2, ways=4).num_sets


def test_bus_transfer_cycles():
    """64-byte line over an 8-byte 800 MHz bus at 3 GHz: 30 cycles."""
    config = MemoryConfig()
    assert config.transfer_cycles == 30


def _llc(memory, sets=4):
    """The access of a one-way, zero-latency LLC over ``memory``: a
    line's first touch is one bus read, evicting a dirty line one bus
    write."""
    config = CacheConfig(name="LLC", size_bytes=sets * 64, ways=1,
                         latency=0, mshr_entries=64)
    return Cache(config, make_policy("LRU", sets, 1),
                 memory=memory).port().access


def test_read_latency():
    memory = MemoryInterface()
    done = _llc(memory)(0x1000, 0)
    assert done == 0 + memory.config.dram_latency


def test_bus_serialises_requests():
    memory = MemoryInterface()
    read = _llc(memory)
    first = read(0x0, 0)
    second = read(0x40, 0)
    assert second == first + memory.config.transfer_cycles


def test_writes_are_posted():
    """A writeback never delays the fill that evicts it, but it
    occupies the bus: the next read waits for it."""
    memory = MemoryInterface()
    transfer = memory.config.transfer_cycles
    access = _llc(memory, sets=1)
    first = access(0x0, 0, True)        # a dirty line
    second = access(0x40, 0)            # its read, then line 0's write
    assert memory.writes == 1
    assert second == first + transfer
    assert access(0x80, 0) == second + 2 * transfer


def test_transfer_accounting():
    memory = MemoryInterface()
    access = _llc(memory, sets=1)
    access(0x0, 0, True)
    access(0x40, 0)                     # two reads and a write
    assert (memory.reads, memory.writes) == (2, 1)
    assert memory.total_transfers == 3
    assert memory.busy_cycles == 3 * memory.config.transfer_cycles
    memory.reset_statistics()
    assert memory.total_transfers == memory.busy_cycles == 0
    assert memory.bus_free == 3 * memory.config.transfer_cycles
