#!/usr/bin/env python
"""Plan detailed-simulation budgets for every policy pair and metric.

For each of the 10 policy pairs of the paper's case study, estimate cv
from a BADCO population (one ``Session.results`` call) and print the
random-sampling sample size W = 8 cv^2 each throughput metric requires
-- the paper's point that *different metrics need different sample
sizes* (Section V-C), plus the CPU-hours this translates to via the
Section VII-A overhead model.
"""

from repro import (
    DeltaVariable,
    METRICS,
    OverheadModel,
    Session,
    delta_statistics,
    required_sample_size,
)
from repro.core.columnar import delta_column_from_matrices
from repro.experiments.common import POLICY_PAIRS


def main() -> None:
    session = Session(scale="small", seed=0)
    cores = 2
    results = session.results("badco", cores)
    population = session.population(cores)
    _, matrices = results.columnar_panel(
        sorted({policy for pair in POLICY_PAIRS for policy in pair}),
        population)

    print(f"Required random-sample size W = 8 cv^2 per metric "
          f"({cores}-core population of {len(population)}):\n")
    print(f"{'pair':>12}  " + "  ".join(f"{m.name:>6}" for m in METRICS))
    needed = {}
    for x, y in POLICY_PAIRS:
        row = []
        for metric in METRICS:
            delta = delta_column_from_matrices(
                DeltaVariable(metric, results.reference), matrices[x],
                matrices[y])
            stats = delta_statistics(delta.values.tolist())
            try:
                w_needed = required_sample_size(stats.cv)
            except ValueError:
                w_needed = None
            row.append(w_needed)
        needed[(x, y)] = row
        cells = "  ".join(f"{w or 'inf':>6}" for w in row)
        print(f"{x + '>' + y:>12}  {cells}")

    print("\nTranslated to detailed-simulation CPU-hours "
          "(paper's Zesto speed, 100 M instructions, 4 cores):")
    model = OverheadModel(instructions_per_thread=100e6, cores=4,
                          benchmarks=22, detailed_mips=0.049,
                          detailed_single_mips=0.170, approx_mips=1.89)
    print(f"{'pair':>12}  {'max W':>6}  {'cpu-hours':>10}")
    for (x, y), row in needed.items():
        sizes = [w for w in row if w]
        if not sizes:
            continue
        worst = max(sizes)
        print(f"{x + '>' + y:>12}  {worst:6d}  {model.detailed_hours(worst):10.1f}")
    print("\nIf one fixed sample must serve all metrics, it must satisfy "
          "the largest W (Section V-C).")


if __name__ == "__main__":
    main()
