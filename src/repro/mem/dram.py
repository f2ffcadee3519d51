"""Front-side bus and DRAM timing model.

The paper's uncore (Table II) puts the LLC in front of an 8-byte-wide
800 MHz front-side bus and a 200-cycle DRAM.  We model the bus as a
single shared resource with a busy-until pointer: each line transfer
occupies the bus for ``line_bytes / bus_bytes`` bus cycles (converted to
core cycles), and requests queue in arrival order -- which is also how
multi-core memory contention arises in the simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class MemoryConfig:
    """Bus and DRAM timing parameters (core-cycle units).

    Attributes:
        dram_latency: cycles from bus grant to data return.
        core_clock_ghz / fsb_clock_mhz: used to derive the core-cycle
            cost of one bus beat.
        bus_bytes: bus width per beat.
        line_bytes: transfer size (one cache line).
    """

    dram_latency: int = 200
    core_clock_ghz: float = 3.0
    fsb_clock_mhz: float = 800.0
    bus_bytes: int = 8
    line_bytes: int = 64

    @property
    def transfer_cycles(self) -> int:
        """Core cycles the bus is busy per line transfer."""
        beats = self.line_bytes // self.bus_bytes
        core_cycles_per_beat = (self.core_clock_ghz * 1000.0) / self.fsb_clock_mhz
        return max(1, round(beats * core_cycles_per_beat))


class MemoryInterface:
    """Shared FSB + DRAM.

    ``access`` returns the absolute completion time of a line read;
    writes (writebacks) occupy bus bandwidth but complete immediately
    from the requester's point of view (posted writes through the LLC
    write buffer).
    """

    def __init__(self, config: Optional[MemoryConfig] = None) -> None:
        self.config = config if config is not None else MemoryConfig()
        self.transfer_cycles = self.config.transfer_cycles
        self.dram_latency = self.config.dram_latency
        self.reads = 0
        self.writes = 0
        self.busy_cycles = 0
        self._bus_free = 0

    def access(self, address: int, now: int, is_write: bool,
               is_prefetch: bool = False) -> int:
        bus_free = self._bus_free
        start = bus_free if bus_free > now else now
        self._bus_free = start + self.transfer_cycles
        self.busy_cycles += self.transfer_cycles
        if is_write:
            self.writes += 1
            return now
        self.reads += 1
        return start + self.dram_latency

    @property
    def total_transfers(self) -> int:
        return self.reads + self.writes
