"""Extension 2: does the methodology survive a cruder fast simulator?

The paper's workflow needs a fast simulator that is *qualitatively*
accurate.  This ablation swaps BADCO for the interval-model simulator
(one training run, idealised MLP; see ``repro.sim.interval``) and asks:

1. accuracy: per-benchmark CPI error of each approximate simulator
   against the detailed one, and model-building + simulation speed;
2. robustness: does workload stratification built from the *interval*
   simulator's d(w) still beat random sampling when the verdict is
   judged by BADCO-quality data?

Shape expected: the interval model is cheaper and noticeably less
accurate; stratification built from it loses some but not all of its
advantage -- the methodology degrades gracefully with simulator
quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Scale, Session
from repro.core.columnar import DeltaColumn, WorkloadIndex
from repro.core.delta import DeltaVariable
from repro.core.estimator import ConfidenceEstimator
from repro.core.metrics import IPCT
from repro.core.sampling import SimpleRandomSampling, WorkloadStratification
from repro.core.workload import Workload
from repro.sim.detailed import DetailedSimulator
from repro.sim.interval import IntervalProfileBuilder, IntervalSimulator


@dataclass
class AccuracyRow:
    benchmark: str
    detailed_ipc: float
    badco_ipc: float
    interval_ipc: float

    def errors(self) -> Tuple[float, float]:
        badco = abs(self.badco_ipc - self.detailed_ipc) / self.detailed_ipc
        interval = abs(self.interval_ipc - self.detailed_ipc) / self.detailed_ipc
        return badco * 100, interval * 100


@dataclass
class Ext2Result:
    accuracy: List[AccuracyRow]
    badco_mean_error: float
    interval_mean_error: float
    badco_training_uops: int
    interval_training_uops: int
    badco_uops_per_benchmark: float
    interval_uops_per_benchmark: float
    confidence: Dict[str, List[float]]     # method -> per-size confidence
    sample_sizes: Sequence[int]

    def rows(self) -> List[str]:
        lines = [f"{'benchmark':>12}  {'detailed':>8}  {'badco':>8}  "
                 f"{'interval':>8}"]
        for row in self.accuracy:
            lines.append(f"{row.benchmark:>12}  {row.detailed_ipc:8.3f}  "
                         f"{row.badco_ipc:8.3f}  {row.interval_ipc:8.3f}")
        lines.append(f"mean CPI-ish error: badco {self.badco_mean_error:.1f} %"
                     f", interval {self.interval_mean_error:.1f} %")
        lines.append(f"training uops per benchmark: "
                     f"badco {self.badco_uops_per_benchmark:.0f} (2 runs), "
                     f"interval {self.interval_uops_per_benchmark:.0f} (1 run)")
        lines.append(f"{'W':>5}  " + "  ".join(
            f"{m:>22}" for m in self.confidence))
        for i, w in enumerate(self.sample_sizes):
            lines.append(f"{w:5d}  " + "  ".join(
                f"{series[i]:22.3f}" for series in self.confidence.values()))
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        cores: int = 2,
        pair: Tuple[str, str] = ("LRU", "DIP"),
        benchmarks: Sequence[str] = ("povray", "gcc", "mcf", "libquantum"),
        sample_sizes: Sequence[int] = (10, 20, 40)) -> Ext2Result:
    session = session or Session(scale)
    length = session.parameters.trace_length
    x, y = pair

    # --- 1. single-thread accuracy of the two approximate simulators.
    # A private, store-less builder: this ablation *measures* training
    # cost, so a warm session model store must not satisfy the builds.
    from repro.sim.badco.model import BadcoModelBuilder

    badco_builder = BadcoModelBuilder(length, session.seed)
    interval_builder = IntervalProfileBuilder(length, session.seed)
    interval_builder.training_uops = 0
    accuracy: List[AccuracyRow] = []
    from repro.sim.badco.multicore import BadcoSimulator
    for benchmark in benchmarks:
        workload = Workload([benchmark])
        detailed = DetailedSimulator(cores=1, trace_length=length,
                                     seed=session.seed).run(workload).ipcs[0]
        badco = BadcoSimulator(cores=1, builder=badco_builder,
                               trace_length=length,
                               seed=session.seed).run(workload).ipcs[0]
        interval = IntervalSimulator(cores=1, builder=interval_builder,
                                     trace_length=length,
                                     seed=session.seed).run(workload).ipcs[0]
        accuracy.append(AccuracyRow(benchmark, detailed, badco, interval))
    badco_errors = [row.errors()[0] for row in accuracy]
    interval_errors = [row.errors()[1] for row in accuracy]

    # --- 2. robustness: strata from the interval simulator's d(w),
    #        judged against the BADCO population's d(w).
    results = session.results("badco", cores)
    population = session.population(cores)
    variable = DeltaVariable(IPCT, results.reference)
    index = WorkloadIndex.from_population(population)
    delta_truth = variable.column(index, results.ipc_table(x),
                                  results.ipc_table(y))
    # Interval-simulator d(w) over the same population, built straight
    # into a column aligned with the index's row order (the simulation
    # loop is inherently per-workload; the d(w) container is not).
    interval_values = np.empty(len(index.workloads), dtype=np.float64)
    for row, workload in enumerate(index.workloads):
        ipcs = {}
        for policy in (x, y):
            sim = IntervalSimulator(cores=cores, policy=policy,
                                    builder=interval_builder,
                                    trace_length=length, seed=session.seed)
            ipcs[policy] = sim.run(workload).ipcs
        interval_values[row] = variable.value(workload, ipcs[x], ipcs[y])
    interval_delta = DeltaColumn(index, interval_values)
    estimator = ConfidenceEstimator(population, delta_truth,
                                    draws=min(session.parameters.draws, 500))
    min_stratum = max(10, len(population) // 40)
    methods = {
        "random": SimpleRandomSampling(),
        "strata-from-badco": WorkloadStratification.from_column(
            delta_truth, min_stratum=min_stratum),
        "strata-from-interval": WorkloadStratification.from_column(
            interval_delta, min_stratum=min_stratum),
    }
    confidence = {
        name: [estimator.confidence(method, w, seed=session.seed)
               for w in sample_sizes]
        for name, method in methods.items()}
    badco_trained = max(len(badco_builder._cache), 1)
    interval_trained = max(len(interval_builder._cache), 1)
    return Ext2Result(
        accuracy=accuracy,
        badco_mean_error=sum(badco_errors) / len(badco_errors),
        interval_mean_error=sum(interval_errors) / len(interval_errors),
        badco_training_uops=badco_builder.training_uops,
        interval_training_uops=interval_builder.training_uops,
        badco_uops_per_benchmark=badco_builder.training_uops / badco_trained,
        interval_uops_per_benchmark=(interval_builder.training_uops
                                     / interval_trained),
        confidence=confidence,
        sample_sizes=tuple(sample_sizes))


def main() -> None:
    result = run()
    print("Extension 2: approximate-simulator ablation (BADCO vs interval)")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
