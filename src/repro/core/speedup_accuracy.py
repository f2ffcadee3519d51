"""Speedup-accuracy evaluation (extension: the paper's open problem).

The paper's conclusion: "the problem of defining workload samples that
provide accurate *speedups* with high probability is still open".  The
machinery to study it is all here, so we implement it: for a sampling
method and sample size, measure the probability that the
sample-estimated speedup

    S_hat = T_Y(sample) / T_X(sample)

falls within a relative tolerance epsilon of the population speedup
S = T_Y / T_X.  Note this is a harder target than the paper's sign
question: a method can identify the winner long before it pins the
speedup down.

Like the confidence estimator, the evaluator is columnar: per-workload
throughputs are two float64 vectors, sampling methods draw row-index
batches, and the ``draws`` speedup estimates of one evaluation point
are a single batched array expression (bit-identical to the historical
per-draw loop, which remains as the fallback for methods without a
row plan).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.columnar import IpcMatrix, WorkloadIndex, throughputs
from repro.core.estimator import checked_draws
from repro.core.metrics import ReferenceIpcs, ThroughputMetric
from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import SamplingMethod, SamplingPlan
from repro.core.workload import Workload

IpcTable = Mapping[Workload, Sequence[float]]


@dataclass(frozen=True)
class SpeedupAccuracy:
    """Result of one (method, sample size) evaluation.

    Attributes:
        method: sampling method name.
        sample_size: W.
        true_speedup: S on the full population.
        hit_rate: fraction of samples with |S_hat - S| / S <= epsilon.
        mean_abs_error: mean relative speedup error over the samples.
    """

    method: str
    sample_size: int
    true_speedup: float
    hit_rate: float
    mean_abs_error: float


class SpeedupAccuracyEvaluator:
    """Monte-Carlo speedup-accuracy measurement.

    Args:
        population: the workload population.
        ipcs_x / ipcs_y: per-workload per-core IPC tables.
        metric: throughput metric whose population speedup is targeted.
        reference: single-thread reference IPCs (WSU/HSU/GMS).
        draws: samples per evaluation point.
    """

    def __init__(self, population: WorkloadPopulation, ipcs_x: IpcTable,
                 ipcs_y: IpcTable, metric: ThroughputMetric,
                 reference: Optional[ReferenceIpcs] = None,
                 draws: int = 500) -> None:
        self.draws = checked_draws(draws)
        self.population = population
        self.metric = metric
        self.index = WorkloadIndex.from_population(population)
        matrix_x = IpcMatrix.from_table(self.index, ipcs_x, label="ipcs_x")
        matrix_y = IpcMatrix.from_table(self.index, ipcs_y, label="ipcs_y")
        self._tx = throughputs(metric, matrix_x, reference)
        self._ty = throughputs(metric, matrix_y, reference)
        population_x = metric.sample_throughput(self._tx.tolist())
        population_y = metric.sample_throughput(self._ty.tolist())
        self.true_speedup = population_y / population_x
        # Keyed by identity but pinning the method object: an id() can
        # be reused once its owner is garbage collected.
        self._plans: Dict[int, tuple] = {}

    def _plan_for(self, method: SamplingMethod) -> Optional[SamplingPlan]:
        key = id(method)
        if key not in self._plans:
            self._plans[key] = (method,
                                method.plan(self.index, self.population))
        return self._plans[key][1]

    def evaluate(self, method: SamplingMethod, sample_size: int,
                 epsilon: float = 0.01, seed: int = 0) -> SpeedupAccuracy:
        """P(relative speedup error <= epsilon) at one sample size."""
        plan = self._plan_for(method)
        if plan is None:
            return self._evaluate_scalar(method, sample_size, epsilon, seed)
        rng = random.Random((seed << 16) ^ sample_size)
        rows, weights = plan.rows_matrix(sample_size, self.draws, rng)
        sample_x = self.metric.sample_throughputs(self._tx[rows], weights)
        sample_y = self.metric.sample_throughputs(self._ty[rows], weights)
        errors = np.abs(sample_y / sample_x - self.true_speedup) \
            / self.true_speedup
        hits = int(np.count_nonzero(errors <= epsilon))
        return SpeedupAccuracy(
            method=method.name, sample_size=sample_size,
            true_speedup=self.true_speedup, hit_rate=hits / self.draws,
            mean_abs_error=float(errors.mean()))

    def _evaluate_scalar(self, method: SamplingMethod, sample_size: int,
                         epsilon: float, seed: int) -> SpeedupAccuracy:
        """The historical per-draw loop (plan-less methods)."""
        rng = random.Random((seed << 16) ^ sample_size)
        tx, ty = self._tx, self._ty
        row_of = self.index.row
        hits = 0
        errors: List[float] = []
        for _ in range(self.draws):
            sample = method.sample(self.population, sample_size, rng)
            rows = [row_of(w) for w in sample.workloads]
            sample_x = self.metric.sample_throughput(
                [tx[r] for r in rows], sample.weights)
            sample_y = self.metric.sample_throughput(
                [ty[r] for r in rows], sample.weights)
            error = abs(sample_y / sample_x - self.true_speedup) \
                / self.true_speedup
            errors.append(error)
            if error <= epsilon:
                hits += 1
        return SpeedupAccuracy(
            method=method.name, sample_size=sample_size,
            true_speedup=self.true_speedup, hit_rate=hits / self.draws,
            mean_abs_error=sum(errors) / len(errors))

    def curve(self, method: SamplingMethod, sample_sizes: Sequence[int],
              epsilon: float = 0.01, seed: int = 0) -> List[SpeedupAccuracy]:
        return [self.evaluate(method, size, epsilon, seed)
                for size in sample_sizes]
