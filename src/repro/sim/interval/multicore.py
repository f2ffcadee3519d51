"""Multicore interval simulation: K interval machines inherit the one
``run`` of :class:`repro.sim.detailed.EventDrivenSimulator`, so its
restart and measurement semantics are the other two simulators'."""

from __future__ import annotations

from typing import Optional

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.mem.uncore import UncoreConfig, UncorePort
from repro.sim.detailed import EventDrivenSimulator
from repro.sim.interval.machine import IntervalMachine
from repro.sim.interval.profile import IntervalProfileBuilder


class IntervalSimulator(EventDrivenSimulator):
    """K interval machines sharing a real uncore.

    Interface-compatible with :class:`repro.sim.detailed.
    DetailedSimulator` and :class:`repro.sim.badco.BadcoSimulator`
    (run / run_batch / reference_ipc / restart semantics), so campaigns
    and experiments can swap simulator families freely.
    """

    name = "interval"
    supports_policy_axis = True

    def __init__(self, cores: int, policy: str = "LRU",
                 builder: Optional[IntervalProfileBuilder] = None,
                 trace_length: int = DEFAULT_TRACE_LENGTH, seed: int = 0,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        super().__init__(cores, policy, trace_length, seed, uncore_config)
        self.builder = builder or IntervalProfileBuilder(trace_length, seed)
        if self.builder.trace_length != trace_length:
            raise ValueError("builder trace length does not match simulator")

    def _stepper(self, benchmark: str, port: UncorePort) -> IntervalMachine:
        return IntervalMachine(self.builder.build(benchmark), port)
