"""Simulators and campaign infrastructure.

Four simulator families behind one interface
(``run_batch(workloads) -> BatchRun`` / ``reference_ipc(benchmark)``),
mirroring and extending the paper's Zesto / BADCO pair.  The three
event-driven ones inherit one ``run``, ``run_batch`` (the serial loop
over the workloads, which also scores several policies per row as an
N x P x K :class:`~repro.sim.detailed.GridRun`) and standalone
``reference_ipc`` from :class:`~repro.sim.detailed.EventDrivenSimulator`
and differ only in the machine each core runs; BADCO and interval run a
row's policies together until the LLC first fills a set.  The two
trained ones build their models through one
:class:`~repro.sim.detailed.TrainedModelBuilder`:

- :class:`~repro.sim.detailed.DetailedSimulator` -- the slow ground
  truth: out-of-order cores (``repro.cpu``) sharing an uncore;
- :class:`~repro.sim.badco.BadcoSimulator` -- the fast approximate
  simulator: per-benchmark behavioural node models built from two
  detailed training runs, replayed against the real uncore;
- :class:`~repro.sim.interval.IntervalSimulator` -- the cruder
  one-training-run interval model;
- :class:`~repro.sim.analytic.AnalyticSimulator` -- the array-evaluated
  BADCO variant: flattened node models scored for whole workload
  panels per NumPy call (``run_batch``), calibrated against standalone
  BADCO runs.

Campaigns -- (workload x policy) grids with on-disk memoisation,
process-pool parallelism (the engine's pool is the only one) and
wall-clock / MIPS accounting (Table III) -- live in
:mod:`repro.api.engine`; each family is exposed there as a named
backend in the :data:`repro.api.BACKENDS` registry.
"""

from repro.sim.detailed import (
    BatchRun,
    DetailedSimulator,
    GridRun,
    WorkloadRun,
)
from repro.sim.badco import BadcoModel, BadcoModelBuilder, BadcoSimulator
from repro.sim.interval import IntervalProfileBuilder, IntervalSimulator
from repro.sim.analytic import AnalyticModelBuilder, AnalyticSimulator
from repro.sim.results import PopulationResults

__all__ = [
    "DetailedSimulator",
    "WorkloadRun",
    "BadcoModel",
    "BadcoModelBuilder",
    "BadcoSimulator",
    "IntervalProfileBuilder",
    "IntervalSimulator",
    "AnalyticModelBuilder",
    "AnalyticSimulator",
    "BatchRun",
    "GridRun",
    "PopulationResults",
]
