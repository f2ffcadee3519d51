"""The BADCO multicore simulator.

"Once BADCO core models have been built for a set of single-thread
benchmarks, the core models can be easily combined to simulate a
multicore running several independent threads simultaneously.  We
connect several BADCO machines, one per core, to a detailed uncore
simulator."  Arbitration between machines is round-robin in the paper;
here machines advance in global time order (the machine with the
smallest local clock issues next), which serialises simultaneous
requests fairly the same way.

Restart and measurement semantics are identical to the detailed
simulator's (Section IV-A) -- both inherit the one ``run`` of
:class:`repro.sim.detailed.EventDrivenSimulator` -- so per-workload
IPCs from the two simulators are directly comparable, which Figs. 2
and 4 rely on.  Each machine calls its own port of the shared uncore
(:meth:`~repro.mem.uncore.Uncore.port`).
"""

from __future__ import annotations

from typing import Optional

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.mem.uncore import UncoreConfig, UncorePort
from repro.sim.badco.machine import BadcoMachine
from repro.sim.badco.model import BadcoModelBuilder
from repro.sim.detailed import EventDrivenSimulator


class BadcoSimulator(EventDrivenSimulator):
    """Simulate workloads with BADCO machines sharing a real uncore.

    Args:
        cores: number of cores K.
        policy: LLC replacement policy name.
        builder: the model builder (shared across simulators so each
            model is trained once); defaults to a fresh builder.
        trace_length / seed / uncore_config: as in
            :class:`repro.sim.detailed.EventDrivenSimulator`.
    """

    name = "badco"
    supports_policy_axis = True

    def __init__(self, cores: int, policy: str = "LRU",
                 builder: Optional[BadcoModelBuilder] = None,
                 trace_length: int = DEFAULT_TRACE_LENGTH, seed: int = 0,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        super().__init__(cores, policy, trace_length, seed, uncore_config)
        self.builder = builder or BadcoModelBuilder(trace_length, seed)
        if self.builder.trace_length != trace_length:
            raise ValueError("builder trace length does not match simulator")

    def _stepper(self, benchmark: str, port: UncorePort) -> BadcoMachine:
        return BadcoMachine(self.builder.build(benchmark), port)

    def reference_ipc(self, benchmark: str) -> float:
        """Single-thread IPC of a benchmark on this machine (alone).

        The IPC of the builder's standalone anchor on this uncore
        (:meth:`~repro.sim.badco.model.BadcoModelBuilder.anchor`): one
        memoised, stored run shared with the ``analytic`` backend's
        calibration, equal to the inherited one-core run of the
        benchmark on this uncore.
        """
        return self.builder.anchor(benchmark, self.uncore_config).ipc
