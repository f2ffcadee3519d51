"""Figure 7: the *actual* degree of confidence, judged by detailed sim.

Figure 6 isolates sampling error by judging samples with BADCO itself.
Figure 7 closes the loop: samples are still *selected* using BADCO
(workload stratification builds its strata from BADCO's d(w)), but the
verdict on each sample -- does DIP beat LRU? -- is computed from
detailed-simulation IPCs.  The paper does this for DIP vs LRU under
IPCT, 100 samples per point, on the full 253-workload 2-core population
and a 250-workload sample for 4 cores.

Expected shape: the ordering of methods survives the change of judge
(workload stratification still on top), with somewhat lower confidence
than the BADCO-judged Fig. 6 because approximate-simulation error now
counts against the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Scale, Session
from repro.core.classification import class_labels
from repro.core.columnar import delta_column_from_matrices
from repro.core.delta import DeltaVariable
from repro.core.estimator import ConfidenceEstimator
from repro.core.metrics import IPCT, ThroughputMetric
from repro.core.population import WorkloadPopulation
from repro.core.sampling import (
    BenchmarkStratification,
    SimpleRandomSampling,
    WorkloadStratification,
)
from repro.experiments.table4_classification import run as run_table4

DEFAULT_SIZES = (10, 20, 30, 40, 50)


@dataclass
class Fig7Result:
    pair: Tuple[str, str]
    metric: str
    sample_sizes: Sequence[int]
    # curves[cores][method_name] = [confidence per size]
    curves: Dict[int, Dict[str, List[float]]]

    def rows(self) -> List[str]:
        lines = []
        for cores, by_method in sorted(self.curves.items()):
            lines.append(f"--- {cores} cores ---")
            lines.append(f"{'W':>5}  " + "  ".join(
                f"{name:>16}" for name in by_method))
            for i, w in enumerate(self.sample_sizes):
                lines.append(f"{w:5d}  " + "  ".join(
                    f"{values[i]:16.3f}" for values in by_method.values()))
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        pair: Tuple[str, str] = ("LRU", "DIP"),
        metric: ThroughputMetric = IPCT,
        core_counts: Sequence[int] = (2, 4),
        sample_sizes: Sequence[int] = DEFAULT_SIZES,
        approx_backend: str = "badco") -> Fig7Result:
    session = session or Session(scale)
    x, y = pair
    classes = class_labels(run_table4(scale, session).mpki)
    curves: Dict[int, Dict[str, List[float]]] = {}
    for cores in core_counts:
        # The sampling frame is the detailed-simulated workload set (the
        # paper's 253 / 250 workloads): detailed IPCs exist for all of it.
        sample_workloads = session.detailed_sample(cores)
        detailed = session.results("detailed", cores,
                                   workloads=sample_workloads)
        badco = session.results(approx_backend, cores,
                                workloads=sample_workloads)
        # The sampling frame *is* the detailed-simulated subset.
        frame = WorkloadPopulation.from_workloads(
            sample_workloads, benchmarks=session.benchmarks)
        _, matrices = detailed.columnar_panel((x, y), frame)
        delta_detailed = delta_column_from_matrices(
            DeltaVariable(metric, detailed.reference), matrices[x],
            matrices[y])
        _, matrices = badco.columnar_panel((x, y), frame)
        delta_badco = delta_column_from_matrices(
            DeltaVariable(metric, badco.reference), matrices[x],
            matrices[y])
        # Judge with detailed IPCs; select (stratify) with BADCO's d(w).
        estimator = ConfidenceEstimator(
            frame, delta_detailed,
            draws=min(session.parameters.draws, 1000))
        stratifier = WorkloadStratification.from_column(
            delta_badco, min_stratum=max(4, len(sample_workloads) // 10))
        # The frame is the detailed-simulated subset, never exhaustive,
        # so balanced sampling is skipped -- exactly as the paper does
        # for its 4- and 8-core Fig. 7 results (footnote 6).
        methods = (
            SimpleRandomSampling(),
            BenchmarkStratification(classes),
            stratifier,
        )
        curves[cores] = {
            method.name: list(estimator.curve(method, sample_sizes,
                                              seed=session.seed).confidence)
            for method in methods}
    return Fig7Result(pair=pair, metric=metric.name,
                      sample_sizes=tuple(sample_sizes), curves=curves)


def main() -> None:
    result = run()
    print(f"Figure 7: detailed-sim-judged confidence "
          f"({result.pair[1]} > {result.pair[0]}, {result.metric})")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
