"""Extension 1: speedup accuracy under the four sampling methods.

The paper's closing sentence leaves open "the problem of defining
workload samples that provide accurate speedups with high probability".
This experiment attacks it with the paper's own machinery: for DIP vs
LRU, how often does each sampling method's *speedup estimate* land
within epsilon of the population speedup?

Expected shape (and what this reproduction finds): workload
stratification, built from d(w), transfers much of its advantage from
the sign question to the magnitude question, because its strata make
the weighted estimator of D = mean d(w) low-variance -- but the
advantage narrows as epsilon tightens, which is presumably why the
authors called the problem open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Scale, Session
from repro.core.classification import class_labels
from repro.core.columnar import WorkloadIndex
from repro.core.delta import DeltaVariable
from repro.core.metrics import IPCT, ThroughputMetric
from repro.core.sampling import (
    BalancedRandomSampling,
    BenchmarkStratification,
    SimpleRandomSampling,
    WorkloadStratification,
)
from repro.core.speedup_accuracy import SpeedupAccuracyEvaluator
from repro.experiments.table4_classification import run as run_table4

DEFAULT_SIZES = (10, 20, 40, 80, 160)


@dataclass
class Ext1Result:
    pair: Tuple[str, str]
    metric: str
    epsilon: float
    true_speedup: float
    sample_sizes: Sequence[int]
    hit_rates: Dict[str, List[float]]
    mean_errors: Dict[str, List[float]]

    def rows(self) -> List[str]:
        lines = [f"true speedup: {self.true_speedup:.4f} "
                 f"(epsilon = {self.epsilon:.3f})",
                 f"{'W':>5}  " + "  ".join(f"{m:>16}" for m in self.hit_rates)]
        for i, w in enumerate(self.sample_sizes):
            lines.append(f"{w:5d}  " + "  ".join(
                f"{series[i]:16.3f}" for series in self.hit_rates.values()))
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        cores: int = 2,
        pair: Tuple[str, str] = ("LRU", "DIP"),
        metric: ThroughputMetric = IPCT,
        epsilon: float = 0.01,
        sample_sizes: Sequence[int] = DEFAULT_SIZES,
        backend: str = "badco") -> Ext1Result:
    session = session or Session(scale)
    results = session.results(backend, cores)
    population = session.population(cores)
    x, y = pair
    evaluator = SpeedupAccuracyEvaluator(
        population, results.ipc_table(x), results.ipc_table(y), metric,
        results.reference, draws=min(session.parameters.draws, 1000))
    variable = DeltaVariable(metric, results.reference)
    delta = variable.column(WorkloadIndex.from_population(population),
                            results.ipc_table(x), results.ipc_table(y))
    classes = class_labels(run_table4(scale, session).mpki)
    methods = [SimpleRandomSampling()]
    if population.is_exhaustive:
        methods.append(BalancedRandomSampling())
    methods.append(BenchmarkStratification(classes))
    methods.append(WorkloadStratification.from_column(
        delta, min_stratum=max(10, len(population) // 40)))
    hit_rates: Dict[str, List[float]] = {}
    mean_errors: Dict[str, List[float]] = {}
    for method in methods:
        points = evaluator.curve(method, sample_sizes, epsilon,
                                 seed=session.seed)
        hit_rates[method.name] = [p.hit_rate for p in points]
        mean_errors[method.name] = [p.mean_abs_error for p in points]
    return Ext1Result(pair=pair, metric=metric.name, epsilon=epsilon,
                      true_speedup=evaluator.true_speedup,
                      sample_sizes=tuple(sample_sizes),
                      hit_rates=hit_rates, mean_errors=mean_errors)


def main() -> None:
    result = run()
    print(f"Extension 1: speedup accuracy, {result.pair[1]} vs "
          f"{result.pair[0]} ({result.metric})")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
