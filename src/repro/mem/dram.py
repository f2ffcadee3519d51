"""Front-side bus and DRAM timing model.

The paper's uncore (Table II) puts the LLC in front of an 8-byte-wide
800 MHz front-side bus and a 200-cycle DRAM.  We model the bus as a
single shared resource with a busy-until pointer: each line transfer
occupies the bus for ``line_bytes / bus_bytes`` bus cycles (converted to
core cycles), and requests queue in arrival order -- which is also how
multi-core memory contention arises in the simulators.  The bus is only
ever the LLC's next level, so the LLC's fill does that arithmetic
inline, on :attr:`MemoryInterface.state`: a line transfer costs no call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


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
    """Shared FSB + DRAM: the bus's state and its counters.

    The LLC's fill (:mod:`repro.mem.cache`) does the bus arithmetic
    inline, on :attr:`state`: a line read starts when both the request
    and the bus are free, occupies the bus for ``transfer_cycles`` and
    completes ``dram_latency`` cycles after it starts; a write (an LLC
    writeback) occupies the bus the same way but completes at once
    from the requester's point of view (posted writes through the LLC
    write buffer).  The counters below are views of that state.
    """

    def __init__(self, config: Optional[MemoryConfig] = None) -> None:
        self.config = config if config is not None else MemoryConfig()
        self.transfer_cycles = self.config.transfer_cycles
        self.dram_latency = self.config.dram_latency
        #: ``[cycle the bus is free from, line reads, line writes]``,
        #: updated in place by the LLC's fill.
        self.state: List[int] = [0, 0, 0]

    @property
    def bus_free(self) -> int:
        """The cycle from which the bus is free."""
        return self.state[0]

    @property
    def reads(self) -> int:
        return self.state[1]

    @property
    def writes(self) -> int:
        return self.state[2]

    @property
    def total_transfers(self) -> int:
        return self.state[1] + self.state[2]

    @property
    def busy_cycles(self) -> int:
        """Core cycles the bus has been busy (every transfer takes
        ``transfer_cycles``)."""
        return self.total_transfers * self.transfer_cycles

    def reset_statistics(self) -> None:
        """Zero the transfer counts; the bus stays busy as it is."""
        self.state[1:] = [0, 0]

    def copy_from(self, source: "MemoryInterface") -> None:
        """Take over ``source``'s counters and bus occupancy (in place:
        the LLC's fill holds :attr:`state`)."""
        self.state[:] = source.state
