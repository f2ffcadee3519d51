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
multiprogram restart).  It reaches the uncore through the core's
:meth:`repro.mem.uncore.Uncore.port`: a node's non-blocking pairs go out
in one ``post`` call, its demand read through ``access``.
:meth:`BadcoMachine.copy` continues the machine behind another uncore's
port when a run forks per policy.
"""

from __future__ import annotations

from repro.mem.uncore import UncorePort
from repro.sim.badco.model import BadcoModel, TRAIN_HIT_LATENCY


class BadcoMachine:
    """Executes one BADCO model against an uncore.

    Args:
        model: the benchmark's behavioural model.
        port: the uncore port serving this machine's requests (normally
            the shared uncore's port for this machine's core).
        start_time: global cycle at which this machine begins.
    """

    def __init__(self, model: BadcoModel, port: UncorePort,
                 start_time: float = 0) -> None:
        self.model = model
        self._nodes = model.nodes
        self._access, self._post = port
        self._time = float(start_time)
        self.position = 0          # next node index
        self.executed = 0          # uops executed (across restarts)

    @property
    def local_time(self) -> float:
        return self._time

    def copy(self, port: UncorePort) -> "BadcoMachine":
        """This machine where it stands, behind another uncore port."""
        twin = BadcoMachine(self.model, port, self._time)
        twin.position = self.position
        twin.executed = self.executed
        return twin

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
        # Non-blocking traffic first (it was produced by uops before the
        # anchor); it consumes uncore resources but never stalls us.
        if extra_requests:
            self._post(extra_requests, now, read_pc)
        stall = 0.0
        if read_address is not None:
            beyond_hit = self._access(read_address, now, False, read_pc,
                                      False) - now - TRAIN_HIT_LATENCY
            stall = sensitivity * (beyond_hit if beyond_hit > 0.0 else 0.0)
        self._time += intrinsic + stall
        self.executed += uop_count
        return self._time
