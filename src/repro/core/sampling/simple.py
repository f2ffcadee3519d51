"""Simple random sampling (Section III)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import (
    SamplingMethod,
    SamplingPlan,
    uniform_indices,
)


class SimpleRandomPlan(SamplingPlan):
    """Uniform draws with replacement: one uniform block per batch,
    ``floor(U * N)`` per slot."""

    def __init__(self, population_size: int) -> None:
        self._n = population_size

    def rows_matrix(self, size: int, draws: int,
                    rng: np.random.Generator
                    ) -> Tuple[np.ndarray, np.ndarray]:
        if size < 1:
            raise ValueError("sample size must be >= 1")
        rows = uniform_indices(rng.random((draws, size)), self._n)
        return rows, np.full(size, 1.0 / size)


class SimpleRandomSampling(SamplingMethod):
    """Uniform random selection of workloads, with replacement.

    The paper's baseline: "random sampling ... assumes that all the
    workloads have the same probability of being selected and that the
    same workload might be selected multiple times (though unlikely in
    a small sample)".
    """

    name = "random"

    def plan(self, population: WorkloadPopulation):
        return SimpleRandomPlan(len(population))
