"""Study orchestration: comparing two microarchitectures end to end.

:class:`PolicyComparisonStudy` ties the pieces together for one
(X, Y, metric) triple: the d(w) table, its coefficient of variation,
the analytical confidence model, empirical confidence under any
sampling method, and the Section VII guideline decision.  It operates
on two IPC matrices over the population's rows (what
:meth:`~repro.sim.results.PopulationResults.columnar_panel` returns),
so it works identically on detailed-simulation samples and
approximate-simulation populations.
"""

from __future__ import annotations

from typing import Optional

from repro.core.columnar import (
    DeltaColumn,
    IpcMatrix,
    WorkloadIndex,
    delta_column_from_matrices,
)
from repro.core.confidence import confidence_from_cv, required_sample_size
from repro.core.delta import DeltaStatistics, DeltaVariable, delta_statistics
from repro.core.estimator import ConfidenceEstimator
from repro.core.metrics import ReferenceIpcs, ThroughputMetric
from repro.core.planner import GuidelineDecision, recommend_method
from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import SamplingMethod


class PolicyComparisonStudy:
    """Does microarchitecture Y outperform X on this population?

    The d(w) table is built and held columnar (one index, one float64
    vector) as :attr:`delta_column`.

    Args:
        population: the workload population (or large sample standing
            in for it).
        ipcs_x / ipcs_y: per-core IPCs under each machine, two
            :class:`~repro.core.columnar.IpcMatrix` objects sharing one
            index over the population's rows.
        metric: throughput metric of the comparison.
        reference: single-thread reference IPCs (for WSU/HSU/GMS).
    """

    def __init__(self, population: WorkloadPopulation, ipcs_x: IpcMatrix,
                 ipcs_y: IpcMatrix, metric: ThroughputMetric,
                 reference: Optional[ReferenceIpcs] = None) -> None:
        self.population = population
        self.metric = metric
        self.delta_variable = DeltaVariable(metric, reference)
        self.index = WorkloadIndex.from_population(population)
        if not ipcs_x.index.same_rows(self.index):
            raise ValueError("IPC matrices must cover the population's rows")
        self.delta_column: DeltaColumn = delta_column_from_matrices(
            self.delta_variable, ipcs_x, ipcs_y)
        self.statistics: DeltaStatistics = delta_statistics(
            self.delta_column.values)

    # ------------------------------------------------------------------
    # Analytical model (Section III)

    @property
    def cv(self) -> float:
        """Coefficient of variation of d(w) on this population."""
        return self.statistics.cv

    @property
    def inverse_cv(self) -> float:
        """1/cv, as plotted in the paper's Figs. 4 and 5."""
        return self.statistics.inverse_cv

    def model_confidence(self, sample_size: int) -> float:
        """Degree of confidence from eq. (5) at a given sample size."""
        return confidence_from_cv(self.cv, sample_size)

    def required_sample_size(self) -> int:
        """W = 8 cv^2 (eq. 8)."""
        return required_sample_size(self.cv)

    def y_outperforms_x(self) -> bool:
        """Population-level verdict (sign of the mean of d(w))."""
        return self.statistics.mean > 0.0

    # ------------------------------------------------------------------
    # Empirical confidence (Sections V-VI)

    def estimator(self, draws: int = 1000) -> ConfidenceEstimator:
        return ConfidenceEstimator(self.population, self.delta_column,
                                   draws=draws)

    def empirical_confidence(self, method: SamplingMethod, sample_size: int,
                             draws: int = 1000, seed: int = 0) -> float:
        return self.estimator(draws).confidence(method, sample_size, seed=seed)

    # ------------------------------------------------------------------
    # Guideline (Section VII)

    def guideline(self, stratified_sample_size: int = 30) -> GuidelineDecision:
        return recommend_method(self.cv, stratified_sample_size)

    def __repr__(self) -> str:
        return (f"PolicyComparisonStudy(metric={self.metric.name}, "
                f"1/cv={self.inverse_cv:+.3f}, N={len(self.population)})")
