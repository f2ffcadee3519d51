"""Simulators and campaign infrastructure.

Three simulator families behind one interface (``run(workload)`` /
``reference_ipc(benchmark)``), mirroring and extending the paper's
Zesto / BADCO pair:

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
process-pool parallelism and wall-clock / MIPS accounting (Table III)
-- live in :mod:`repro.api.engine`; each family is exposed there as a
named backend in the :data:`repro.api.BACKENDS` registry.
"""

from repro.sim.detailed import DetailedSimulator, WorkloadRun
from repro.sim.badco import BadcoModel, BadcoModelBuilder, BadcoSimulator
from repro.sim.interval import IntervalProfileBuilder, IntervalSimulator
from repro.sim.analytic import (
    AnalyticModelBuilder,
    AnalyticSimulator,
    BatchRun,
)
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
    "PopulationResults",
]
