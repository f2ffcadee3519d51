"""Figures 4 and 5: the inverse coefficient of variation 1/cv.

Figure 4 plots 1/cv for each of the 10 policy pairs and each metric on
the 4-core machine, measured three ways: with the detailed simulator on
the 250-workload sample, with BADCO on the same sample, and with BADCO
on the full 12650-workload population.  Figure 5 plots the BADCO
population bars for the three metrics side by side.

The shapes the paper reports: the sign of 1/cv says which policy wins
(consistent across measurement methods for clearly-separated pairs);
|1/cv| near or above 1 for clear pairs (LRU vs FIFO/RND), much below 1
for close pairs (LRU vs DIP, DIP vs DRRIP); sample-vs-population
estimates agree for clear pairs and wobble for close ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Scale, Session
from repro.core.columnar import delta_column_from_matrices
from repro.core.delta import DeltaVariable, delta_statistics
from repro.core.metrics import METRICS, ThroughputMetric
from repro.core.workload import Workload
from repro.experiments.common import POLICY_PAIRS
from repro.sim.results import PopulationResults

#: Measurement sources, in the order of Fig. 4's bar groups.
SOURCES = ("detailed-sample", "badco-sample", "badco-population")


def inverse_cv(results: PopulationResults, workloads: Sequence[Workload],
               policy_x: str, policy_y: str,
               metric: ThroughputMetric) -> float:
    """1/cv of d(w) for Y-vs-X over the given workloads."""
    _, matrices = results.columnar_panel((policy_x, policy_y), workloads)
    variable = DeltaVariable(metric, results.reference)
    column = delta_column_from_matrices(
        variable, matrices[policy_x], matrices[policy_y])
    return delta_statistics(column.values).inverse_cv


@dataclass
class Fig4Result:
    """1/cv per (pair, metric, source)."""

    cores: int
    bars: Dict[Tuple[str, str], Dict[str, Dict[str, float]]]
    # bars[(X, Y)][metric_name][source] = 1/cv

    def rows(self) -> List[str]:
        lines = []
        for metric in METRICS:
            lines.append(f"--- {metric.name} ---")
            header = f"{'pair':>12}  " + "  ".join(f"{s:>16}" for s in SOURCES)
            lines.append(header)
            for pair, by_metric in self.bars.items():
                x, y = pair
                cells = by_metric[metric.name]
                lines.append(f"{x + '>' + y:>12}  " + "  ".join(
                    f"{cells[s]:16.3f}" for s in SOURCES))
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        cores: int = 4,
        pairs: Sequence[Tuple[str, str]] = POLICY_PAIRS,
        sources: Sequence[str] = SOURCES,
        approx_backend: str = "badco") -> Fig4Result:
    session = session or Session(scale)
    sample = session.detailed_sample(cores)
    bars: Dict[Tuple[str, str], Dict[str, Dict[str, float]]] = {}
    tables: Dict[str, Tuple[PopulationResults, Sequence[Workload]]] = {}
    if "detailed-sample" in sources:
        tables["detailed-sample"] = (
            session.results("detailed", cores, workloads=sample), sample)
    if "badco-sample" in sources:
        tables["badco-sample"] = (
            session.results(approx_backend, cores, workloads=sample), sample)
    if "badco-population" in sources:
        tables["badco-population"] = (
            session.results(approx_backend, cores),
            list(session.population(cores)))
    # One columnar panel per source: every policy's IPC matrix is built
    # (and validated) once, then all pair x metric cells are array ops.
    policies = sorted({p for pair in pairs for p in pair})
    panels = {
        source: (results, results.columnar_panel(policies, workloads)[1])
        for source, (results, workloads) in tables.items()}
    for pair in pairs:
        x, y = pair
        bars[pair] = {}
        for metric in METRICS:
            cells = {}
            for source, (results, matrices) in panels.items():
                variable = DeltaVariable(metric, results.reference)
                column = delta_column_from_matrices(
                    variable, matrices[x], matrices[y])
                cells[source] = delta_statistics(column.values).inverse_cv
            bars[pair][metric.name] = cells
    return Fig4Result(cores=cores, bars=bars)


def main() -> None:
    result = run()
    print("Figure 4: 1/cv per policy pair, metric and measurement source")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
