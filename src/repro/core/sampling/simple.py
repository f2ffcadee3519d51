"""Simple random sampling (Section III)."""

from __future__ import annotations

import random
from typing import Tuple

import numpy as np

from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import (
    SamplingMethod,
    SamplingPlan,
    WeightedSample,
)
from repro.core.sampling.mtstream import MTStream


class SimpleRandomPlan(SamplingPlan):
    """Fully vectorized uniform draws with replacement.

    Draw path: **vectorized, always**.  ``sample`` consumes one
    ``_randbelow(N)`` per pick, so a whole batch is ``draws * size``
    consecutive outputs of the generator's word stream -- which
    :class:`MTStream` reads in bulk with exact-position rejection
    sampling, then commits: ``rng`` ends where the ``sample`` loop
    would leave it.  This is the simplest of the replay paths (one
    bound, no schedule), so it needs no scalar fallback of its own; the
    estimator's object path remains the golden-parity reference.
    """

    def __init__(self, population_size: int) -> None:
        self._n = population_size

    def rows_matrix(self, size: int, draws: int,
                    rng: random.Random) -> Tuple[np.ndarray, np.ndarray]:
        if size < 1:
            raise ValueError("sample size must be >= 1")
        stream = MTStream(rng)
        rows = stream.randbelow(self._n, draws * size)
        stream.commit()
        weights = np.full(size, 1.0 / size)
        return rows.reshape(draws, size), weights

    def fast_slots(self, size: int) -> int:
        """One uniform column per pick."""
        if size < 1:
            raise ValueError("sample size must be >= 1")
        return size

    def rows_matrix_fast_block(self, size: int, uniforms: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Fast draws: inverse-CDF picks from one uniform block.

        Not bit-compatible with :meth:`rows_matrix` (see the
        ``fastpath`` module docstring); same uniform-with-replacement
        distribution.
        """
        from repro.core.sampling.fastpath import uniform_indices

        rows = uniform_indices(uniforms, self._n)
        weights = np.full(size, 1.0 / size)
        return rows, weights


class SimpleRandomSampling(SamplingMethod):
    """Uniform random selection of workloads, with replacement.

    The paper's baseline: "random sampling ... assumes that all the
    workloads have the same probability of being selected and that the
    same workload might be selected multiple times (though unlikely in
    a small sample)".
    """

    name = "random"

    def sample(self, population: WorkloadPopulation, size: int,
               rng: random.Random) -> WeightedSample:
        if size < 1:
            raise ValueError("sample size must be >= 1")
        picks = [population[rng.randrange(len(population))]
                 for _ in range(size)]
        return WeightedSample.uniform(picks)

    def plan(self, index, population: WorkloadPopulation):
        if type(self).sample is not SimpleRandomSampling.sample:
            return None     # subclass changed the sampling behaviour
        return SimpleRandomPlan(len(population))
