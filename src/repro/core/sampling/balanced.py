"""Balanced random sampling (Section VI-A).

In the full workload population every benchmark occurs the same number
of times -- consistent with all benchmarks being equally important.
Balanced random sampling preserves that property inside the sample:
across the W workloads (W x K benchmark slots), every benchmark occurs
equally often (up to rounding when B does not divide W*K).
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import (
    SamplingMethod,
    SamplingPlan,
    WeightedSample,
)
from repro.core.workload import Workload


#: The plan replays the shuffle only up to this many benchmark slots
#: per sample: each Fisher-Yates position is one schedule step, so the
#: replay's word-classification work grows with slots^2 per draw batch
#: while the scalar loop grows with slots -- beyond small samples the
#: scalar pool construction wins.
VECTOR_SLOT_LIMIT = 24


class BalancedRandomPlan(SamplingPlan):
    """Balanced draws as row numbers.

    Draw path: **vectorized for small samples, scalar above**.  Pool
    construction runs on integer benchmark codes
    (``random.sample``/``random.shuffle`` consume the generator
    identically regardless of element type): the extra-slot sample and
    the full Fisher-Yates shuffle of every draw are replayed in
    batched NumPy ops through
    :func:`repro.core.sampling.mtstream.replay_schedule` (one swap
    column per shuffle position, vectorized across draws), then the
    whole batch of constructed workloads is mapped to rows in one
    vectorized sort + binary search over the index's packed keys.
    Because every shuffle position is its own ``_randbelow`` bound,
    the replay costs O(slots^2) word classifications per batch; the
    plan therefore keeps the per-draw Python loop
    (:meth:`rows_matrix_scalar`, also the golden-parity reference)
    for samples beyond :data:`VECTOR_SLOT_LIMIT` slots.

    Args:
        index: the row universe (see :meth:`SamplingMethod.plan`).
        population: the exhaustive population being sampled.
    """

    def __init__(self, index, population: WorkloadPopulation) -> None:
        if not population.is_exhaustive:
            raise ValueError(
                "balanced random sampling needs the exhaustive workload "
                "population; this frame is a subsample (paper footnote 6)")
        self._index = index
        self._num_benchmarks = len(population.benchmarks)
        self._cores = population.cores

    def rows_matrix(self, size: int, draws: int,
                    rng: random.Random) -> Tuple[np.ndarray, np.ndarray]:
        from repro.core.sampling.mtstream import (
            apply_shuffle,
            pool_pick,
            replay_schedule,
            sample_uses_pool,
        )

        if size < 1:
            raise ValueError("sample size must be >= 1")
        if size * self._cores > VECTOR_SLOT_LIMIT:
            return self.rows_matrix_scalar(size, draws, rng)
        b, cores = self._num_benchmarks, self._cores
        slots = size * cores
        base, extra = divmod(slots, b)
        ops = ([("sample", b, extra)] if extra else []) \
            + [("shuffle", slots, 0)]
        matrices = replay_schedule(rng, ops, draws)
        pools = np.empty((draws, slots), dtype=np.int64)
        pools[:, :base * b] = np.repeat(np.arange(b, dtype=np.int64), base)
        if extra:
            drawn = matrices[0]
            # Over range(b) the selection-set j-indices are the codes
            # themselves; the pool path permutes them first.
            pools[:, base * b:] = (
                pool_pick(np.arange(b, dtype=np.int64), drawn)
                if sample_uses_pool(b, extra) else drawn)
        apply_shuffle(pools, matrices[-1])
        codes = np.sort(pools.reshape(draws * size, cores), axis=1)
        rows = self._index.rows_from_codes(codes).reshape(draws, size)
        weights = np.full(size, 1.0 / size)
        return rows, weights

    def rows_matrix_scalar(self, size: int, draws: int,
                           rng: random.Random
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """The historical per-draw loop (reference and fallback)."""
        if size < 1:
            raise ValueError("sample size must be >= 1")
        b, cores = self._num_benchmarks, self._cores
        slots = size * cores
        base, extra = divmod(slots, b)
        template = [code for code in range(b) for _ in range(base)]
        pools = np.empty((draws, slots), dtype=np.int64)
        benchmarks = range(b)
        for d in range(draws):
            pool = list(template)
            if extra:
                pool.extend(rng.sample(benchmarks, extra))
            rng.shuffle(pool)
            pools[d] = pool
        codes = np.sort(pools.reshape(draws * size, cores), axis=1)
        rows = self._index.rows_from_codes(codes).reshape(draws, size)
        weights = np.full(size, 1.0 / size)
        return rows, weights


class BalancedRandomSampling(SamplingMethod):
    """Random workloads with equalised per-benchmark occurrence counts.

    Construction: build the multiset of W*K benchmark slots containing
    each benchmark floor(W*K/B) or ceil(W*K/B) times (the extra slots
    going to a random subset of benchmarks), shuffle it, and cut it
    into W workloads of K.  Every benchmark then occurs the same number
    of times over the whole sample while workload composition stays
    random.
    """

    name = "bal-random"

    def sample(self, population: WorkloadPopulation, size: int,
               rng: random.Random) -> WeightedSample:
        """Draw a balanced sample.

        Requires an exhaustive population: the constructed workloads
        are arbitrary combinations, which a sub-sampled frame may not
        contain.  The paper hits the same restriction (footnote 6: its
        balanced-sample construction "works with the full workload
        population").
        """
        if size < 1:
            raise ValueError("sample size must be >= 1")
        if not population.is_exhaustive:
            raise ValueError(
                "balanced random sampling needs the exhaustive workload "
                "population; this frame is a subsample (paper footnote 6)")
        benchmarks = list(population.benchmarks)
        cores = population.cores
        slots = size * cores
        base, extra = divmod(slots, len(benchmarks))
        pool: List[str] = []
        for name in benchmarks:
            pool.extend([name] * base)
        if extra:
            pool.extend(rng.sample(benchmarks, extra))
        rng.shuffle(pool)
        picks = [Workload(pool[i * cores:(i + 1) * cores])
                 for i in range(size)]
        return WeightedSample.uniform(picks)

    def plan(self, index, population: WorkloadPopulation):
        if type(self).sample is not BalancedRandomSampling.sample:
            return None     # subclass changed the sampling behaviour
        return BalancedRandomPlan(index, population)
