"""Figure 3: validating the analytical confidence model.

The paper compares eq. (5) against the *measured* degree of confidence
(fraction of 1000 random samples on which DRRIP's sample throughput
beats DIP's, WSU metric) for 2, 4 and 8 cores, finding close agreement
even at small sample sizes.  We reproduce the comparison on the BADCO
populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Scale, Session
from repro.core.columnar import WorkloadIndex
from repro.core.confidence import confidence_from_cv
from repro.core.delta import DeltaVariable, delta_statistics
from repro.core.estimator import ConfidenceEstimator
from repro.core.metrics import ThroughputMetric, WSU
from repro.core.sampling import SimpleRandomSampling

DEFAULT_SIZES = (10, 20, 40, 80, 160, 320, 640)


@dataclass
class Fig3Series:
    cores: int
    sample_sizes: Sequence[int]
    model: List[float]
    experimental: List[float]

    def max_gap(self) -> float:
        return max(abs(m - e) for m, e in zip(self.model, self.experimental))


@dataclass
class Fig3Result:
    pair: Tuple[str, str]
    metric: str
    series: Dict[int, Fig3Series]

    def rows(self) -> List[str]:
        lines = []
        for cores, s in sorted(self.series.items()):
            lines.append(f"--- {cores} cores ---")
            lines.append(f"{'W':>5}  {'model':>8}  {'measured':>8}")
            for w, m, e in zip(s.sample_sizes, s.model, s.experimental):
                lines.append(f"{w:5d}  {m:8.3f}  {e:8.3f}")
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        pair: Tuple[str, str] = ("DIP", "DRRIP"),
        metric: ThroughputMetric = WSU,
        core_counts: Sequence[int] = (2, 4, 8),
        sample_sizes: Sequence[int] = DEFAULT_SIZES,
        backend: str = "badco") -> Fig3Result:
    session = session or Session(scale)
    x, y = pair
    series: Dict[int, Fig3Series] = {}
    for cores in core_counts:
        results = session.results(backend, cores)
        population = session.population(cores)
        variable = DeltaVariable(metric, results.reference)
        index = WorkloadIndex.from_population(population)
        delta = variable.column(index, results.ipc_table(x),
                                results.ipc_table(y))
        stats = delta_statistics(delta.values)
        estimator = ConfidenceEstimator(population, delta,
                                        draws=session.parameters.draws)
        method = SimpleRandomSampling()
        # One vectorized call evaluates the whole model series (eq. 5).
        model = np.asarray(
            confidence_from_cv(stats.cv, np.asarray(sample_sizes))).tolist()
        measured = estimator.curve(method, sample_sizes,
                                   seed=session.seed).confidence
        series[cores] = Fig3Series(cores, tuple(sample_sizes), model,
                                   list(measured))
    return Fig3Result(pair=pair, metric=metric.name, series=series)


def main() -> None:
    result = run()
    print(f"Figure 3: model vs measured confidence "
          f"({result.pair[1]} > {result.pair[0]}, {result.metric})")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
