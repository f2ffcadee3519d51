"""The BADCO machine: replaying a node model against a real uncore.

"A BADCO machine is an abstract core that fetches and executes nodes."
Each node issues its anchoring demand read to the uncore, observes the
actual latency, and charges its timing as

    node_end = node_start + intrinsic + sensitivity * (latency - hit)

Non-blocking traffic (writes, prefetch fills, instruction fills) is
replayed fire-and-forget, so it still consumes LLC capacity and bus
bandwidth.  The machine exposes the same stepper interface as
:class:`repro.cpu.core.DetailedCore`, so the shared scheduler
(:func:`repro.sim.detailed.interleave`) steps either kind of core: an
``advance`` past the last node rewinds the sequence itself (the paper's
multiprogram restart).  Its uncore callback is the core's
:meth:`repro.mem.uncore.Uncore.port`.
"""

from __future__ import annotations

from repro.mem.uncore import UncorePort
from repro.sim.badco.model import BadcoModel, TRAIN_HIT_LATENCY


class BadcoMachine:
    """Executes one BADCO model against an uncore.

    Args:
        model: the benchmark's behavioural model.
        uncore_access: callback serving uncore requests (normally the
            shared uncore's port for this machine's core).
        start_time: global cycle at which this machine begins.
    """

    def __init__(self, model: BadcoModel, uncore_access: UncorePort,
                 start_time: int = 0) -> None:
        self.model = model
        self._nodes = model.nodes
        self._uncore_access = uncore_access
        self._time = float(start_time)
        self.position = 0          # next node index
        self.executed = 0          # uops executed (across restarts)

    @property
    def local_time(self) -> float:
        return self._time

    def advance(self) -> float:
        """Execute the next node; returns the machine's new local time.

        Past the last node the sequence rewinds to the first (restart
        semantics: the uncore state stays warm).
        """
        position = self.position
        try:
            node = self._nodes[position]
        except IndexError:
            position = 0
            node = self._nodes[0]
        self.position = position + 1
        (uop_count, intrinsic, sensitivity, read_address, read_pc,
         extra_requests) = node
        now = int(self._time)
        access = self._uncore_access
        # Non-blocking traffic first (it was produced by uops before the
        # anchor); it consumes uncore resources but never stalls us.
        for address, is_write in extra_requests:
            access(address, now, is_write, read_pc, True)
        stall = 0.0
        if read_address is not None:
            beyond_hit = access(read_address, now, False, read_pc,
                                False) - now - TRAIN_HIT_LATENCY
            stall = sensitivity * (beyond_hit if beyond_hit > 0.0 else 0.0)
        self._time += intrinsic + stall
        self.executed += uop_count
        return self._time
