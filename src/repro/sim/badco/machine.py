"""The BADCO machine: replaying a node model against a real uncore.

"A BADCO machine is an abstract core that fetches and executes nodes."
Each node issues its anchoring demand read to the uncore, observes the
actual latency, and charges its timing as

    node_end = node_start + intrinsic + sensitivity * (latency - hit)

Non-blocking traffic (writes, prefetch fills, instruction fills) is
replayed fire-and-forget, so it still consumes LLC capacity and bus
bandwidth.  The machine exposes the same stepper interface as
:class:`repro.cpu.core.DetailedCore`, so the shared scheduler
(:func:`repro.sim.detailed.interleave`) steps either kind of core.  Its
uncore callback is :meth:`repro.mem.uncore.Uncore.access` itself, called
with the machine's core id.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.badco.model import BadcoModel, TRAIN_HIT_LATENCY

#: Uncore access callback, :meth:`repro.mem.uncore.Uncore.access`'s shape:
#: (core_id, address, now, is_write, pc, is_prefetch) -> completion time.
UncoreAccess = Callable[[int, int, int, bool, int, bool], int]


class BadcoMachine:
    """Executes one BADCO model against an uncore.

    Args:
        core_id: index of this core, passed to every uncore access.
        model: the benchmark's behavioural model.
        uncore_access: callback serving uncore requests (normally the
            shared uncore's ``access``).
        start_time: global cycle at which this machine begins.
    """

    def __init__(self, core_id: int, model: BadcoModel,
                 uncore_access: UncoreAccess, start_time: int = 0) -> None:
        self.core_id = core_id
        self.model = model
        self._nodes = model.nodes
        self._uncore_access = uncore_access
        self._time = float(start_time)
        self.position = 0          # next node index
        self.executed = 0          # uops executed (across restarts)

    @property
    def local_time(self) -> float:
        return self._time

    @property
    def done(self) -> bool:
        return self.position >= len(self._nodes)

    def restart(self) -> None:
        """Rewind the node sequence (multiprogram restart semantics)."""
        self.position = 0

    def advance(self) -> float:
        """Execute the next node; returns the machine's new local time."""
        (uop_count, intrinsic, sensitivity, read_address, read_pc,
         extra_requests) = self._nodes[self.position]
        self.position += 1
        now = int(self._time)
        access = self._uncore_access
        core_id = self.core_id
        # Non-blocking traffic first (it was produced by uops before the
        # anchor); it consumes uncore resources but never stalls us.
        for address, is_write in extra_requests:
            access(core_id, address, now, is_write, read_pc, True)
        stall = 0.0
        if read_address is not None:
            beyond_hit = access(core_id, read_address, now, False, read_pc,
                                False) - now - TRAIN_HIT_LATENCY
            stall = sensitivity * (beyond_hit if beyond_hit > 0.0 else 0.0)
        self._time += intrinsic + stall
        self.executed += uop_count
        return self._time
