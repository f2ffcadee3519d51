#!/usr/bin/env python
"""Compare the four sampling methods on one policy pair (Fig. 6 style).

For DIP vs LRU on 2 cores, measure -- by Monte-Carlo resampling from a
BADCO-simulated population -- how quickly each sampling method's
verdict becomes decisive as the sample grows.

The experiment drivers take a :class:`repro.Session` too: the Table IV
MPKI classification below runs on the same session (its scale, seed
and benchmark suite).

This walkthrough uses the *columnar* analytics API: d(w) is built as
one vector (``DeltaVariable.column``), the strata come straight from it
(``WorkloadStratification.from_column``), and the estimator batches all
draws as array operations -- same numbers as the mapping API, orders of
magnitude faster at paper scale.
"""

from repro import (
    BalancedRandomSampling,
    BenchmarkStratification,
    ConfidenceEstimator,
    DeltaVariable,
    IPCT,
    Scale,
    Session,
    SimpleRandomSampling,
    WorkloadIndex,
    WorkloadStratification,
)
from repro.core.classification import class_labels
from repro.experiments.table4_classification import run as run_table4


def main() -> None:
    session = Session(Scale.SMALL, seed=0)
    cores = 2
    results = session.results("badco", cores)
    population = session.population(cores)

    variable = DeltaVariable(IPCT, results.reference)
    index = WorkloadIndex.from_population(population)
    delta = variable.column(index, results.ipc_table("LRU"),
                            results.ipc_table("DIP"))

    print("Classifying benchmarks by MPKI (for benchmark stratification)...")
    classes = class_labels(run_table4(Scale.SMALL, session).mpki)

    methods = [SimpleRandomSampling(),
               BenchmarkStratification(classes),
               WorkloadStratification.from_column(
                   delta, min_stratum=len(population) // 12)]
    if population.is_exhaustive:
        methods.insert(1, BalancedRandomSampling())

    estimator = ConfidenceEstimator(population, delta, draws=500)
    sizes = (5, 10, 20, 40, 80)
    print(f"\nDegree of confidence that DIP > LRU ({IPCT.name}, "
          f"{len(population)}-workload population):")
    print(f"{'W':>5}  " + "  ".join(f"{m.name:>16}" for m in methods))
    for size in sizes:
        row = [estimator.confidence(m, size) for m in methods]
        print(f"{size:5d}  " + "  ".join(f"{v:16.3f}" for v in row))
    print("\nA confidence near 0 or 1 is a *decisive* verdict; 0.5 is a "
          "coin flip.\nStratified samples should be decisive earliest.")


if __name__ == "__main__":
    main()
