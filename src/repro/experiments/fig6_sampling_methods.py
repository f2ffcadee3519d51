"""Figure 6: comparing the four sampling methods.

For four policy pairs (DIP>LRU, DRRIP>LRU, DRRIP>DIP, FIFO>RND), the
paper measures -- on the 4-core BADCO population under the IPCT metric,
10000 resamples -- the degree of confidence of simple random, balanced
random, benchmark-stratified and workload-stratified samples as a
function of sample size.

Expected shape: workload stratification >> balanced random >= benchmark
stratification ~ random; workload stratification reaches ~100 %
confidence with tens of workloads where random sampling needs hundreds
(DIP vs LRU: 50 vs 800 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Scale, Session
from repro.core.classification import class_labels
from repro.core.columnar import delta_column_from_matrices
from repro.core.delta import DeltaVariable
from repro.core.estimator import PairedConfidenceEstimator
from repro.core.metrics import IPCT, ThroughputMetric
from repro.core.sampling import (
    BalancedRandomSampling,
    BenchmarkStratification,
    SimpleRandomSampling,
    WorkloadStratification,
)
from repro.experiments.table4_classification import run as run_table4

#: The four pairs of the paper's Fig. 6, as (X, Y) with "Y > X" plotted.
FIG6_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("LRU", "DIP"), ("LRU", "DRRIP"), ("DIP", "DRRIP"), ("FIFO", "RND"))

DEFAULT_SIZES = (10, 20, 30, 40, 60, 100, 160, 240, 400)


@dataclass
class Fig6Result:
    metric: str
    cores: int
    sample_sizes: Sequence[int]
    # curves[(X, Y)][method_name] = [confidence per sample size]
    curves: Dict[Tuple[str, str], Dict[str, List[float]]]
    strata_counts: Dict[Tuple[str, str], int]

    def rows(self) -> List[str]:
        lines = []
        for pair, by_method in self.curves.items():
            x, y = pair
            lines.append(f"--- {y} > {x} "
                         f"(workload strata: {self.strata_counts[pair]}) ---")
            lines.append(f"{'W':>5}  " + "  ".join(
                f"{name:>16}" for name in by_method))
            for i, w in enumerate(self.sample_sizes):
                lines.append(f"{w:5d}  " + "  ".join(
                    f"{values[i]:16.3f}" for values in by_method.values()))
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        cores: int = 4,
        metric: ThroughputMetric = IPCT,
        pairs: Sequence[Tuple[str, str]] = FIG6_PAIRS,
        sample_sizes: Sequence[int] = DEFAULT_SIZES,
        backend: str = "badco") -> Fig6Result:
    session = session or Session(scale)
    results = session.results(backend, cores)
    population = session.population(cores)
    classes = class_labels(run_table4(scale, session).mpki)
    curves: Dict[Tuple[str, str], Dict[str, List[float]]] = {}
    variable = DeltaVariable(metric, results.reference)
    _, matrices = results.columnar_panel(
        sorted({policy for pair in pairs for policy in pair}), population)
    deltas = {
        pair: delta_column_from_matrices(variable, matrices[pair[0]],
                                         matrices[pair[1]])
        for pair in pairs}
    # The pair-independent methods (their draws never look at d(w))
    # share one row batch and one gather across all pairs; workload
    # stratification derives its strata from each pair's own delta
    # column, so each pair draws and reduces on its own
    # (`pair_curves`).
    shared_methods = [SimpleRandomSampling()]
    if population.is_exhaustive:
        # Balanced sampling needs the full population (footnote 6).
        shared_methods.append(BalancedRandomSampling())
    shared_methods.append(BenchmarkStratification(classes))
    paired = PairedConfidenceEstimator(population, deltas,
                                       draws=session.parameters.draws)
    shared_curves = {
        method.name: paired.curve(method, sample_sizes, seed=session.seed)
        for method in shared_methods}
    stratifiers = {
        pair: WorkloadStratification.from_column(
            deltas[pair], min_stratum=max(10, len(population) // 40))
        for pair in pairs}
    strata_counts = {pair: stratifier.num_strata
                     for pair, stratifier in stratifiers.items()}
    strata_curves = paired.pair_curves(stratifiers, sample_sizes,
                                       seed=session.seed)
    for pair in pairs:
        by_method = {name: list(per_pair[pair].confidence)
                     for name, per_pair in shared_curves.items()}
        by_method[stratifiers[pair].name] = list(
            strata_curves[pair].confidence)
        curves[pair] = by_method
    return Fig6Result(metric=metric.name, cores=cores,
                      sample_sizes=tuple(sample_sizes), curves=curves,
                      strata_counts=strata_counts)


def main() -> None:
    result = run()
    print(f"Figure 6: sampling-method confidence "
          f"({result.cores} cores, {result.metric})")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
