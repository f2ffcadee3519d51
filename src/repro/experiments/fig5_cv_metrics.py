"""Figure 5: 1/cv on the full BADCO population, three metrics.

A view of the same quantity as Fig. 4, restricted to the
BADCO-population source, comparing metrics side by side.  The paper's
headline observations: the *sign* of 1/cv agrees across metrics (all
three rank the policies identically) while its *magnitude* differs, so
the required sample size W = 8 cv^2 is metric-dependent (the RND-FIFO
example: ~50 workloads under IPCT vs ~32 under HSU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import Scale, Session
from repro.core.columnar import delta_column_from_matrices
from repro.core.confidence import required_sample_size
from repro.core.delta import DeltaVariable, delta_statistics
from repro.core.metrics import METRICS
from repro.experiments.common import POLICY_PAIRS


@dataclass
class Fig5Result:
    cores: int
    bars: Dict[Tuple[str, str], Dict[str, float]]  # [(X,Y)][metric] = 1/cv

    def sign_consistent_pairs(self) -> List[Tuple[str, str]]:
        """Pairs where all metrics agree on who wins."""
        consistent = []
        for pair, by_metric in self.bars.items():
            signs = {v > 0 for v in by_metric.values()}
            if len(signs) == 1:
                consistent.append(pair)
        return consistent

    def required_sizes(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """W = 8 cv^2 per pair and metric."""
        sizes: Dict[Tuple[str, str], Dict[str, int]] = {}
        for pair, by_metric in self.bars.items():
            sizes[pair] = {}
            for name, icv in by_metric.items():
                if icv != 0:
                    sizes[pair][name] = required_sample_size(1.0 / icv)
        return sizes

    def rows(self) -> List[str]:
        names = [m.name for m in METRICS]
        lines = [f"{'pair':>12}  " + "  ".join(f"{n:>8}" for n in names)]
        for pair, by_metric in self.bars.items():
            x, y = pair
            lines.append(f"{x + '>' + y:>12}  " + "  ".join(
                f"{by_metric[n]:8.3f}" for n in names))
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        cores: int = 4,
        pairs: Sequence[Tuple[str, str]] = POLICY_PAIRS,
        backend: str = "badco") -> Fig5Result:
    session = session or Session(scale)
    results = session.results(backend, cores)
    workloads = list(session.population(cores))
    policies = sorted({p for pair in pairs for p in pair})
    _, matrices = results.columnar_panel(policies, workloads)
    bars: Dict[Tuple[str, str], Dict[str, float]] = {}
    for pair in pairs:
        x, y = pair
        bars[pair] = {}
        for metric in METRICS:
            variable = DeltaVariable(metric, results.reference)
            column = delta_column_from_matrices(
                variable, matrices[x], matrices[y])
            bars[pair][metric.name] = \
                delta_statistics(column.values).inverse_cv
    return Fig5Result(cores=cores, bars=bars)


def main() -> None:
    result = run()
    print("Figure 5: 1/cv on the BADCO population, per metric")
    for row in result.rows():
        print(row)
    print("sign-consistent pairs:",
          [f"{x}>{y}" for x, y in result.sign_consistent_pairs()])


if __name__ == "__main__":
    main()
