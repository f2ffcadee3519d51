"""Balanced random sampling (Section VI-A).

In the full workload population every benchmark occurs the same number
of times -- consistent with all benchmarks being equally important.
Balanced random sampling preserves that property inside the sample:
across the W workloads (W x K benchmark slots), every benchmark occurs
equally often (up to rounding when B does not divide W*K).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.codematrix import rank_codes
from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import (
    SamplingMethod,
    SamplingPlan,
    floyd_distinct,
)


#: Uniforms one chunk of draws takes at most (8 MiB).  A draw's uniform
#: row, its argsort, its pool and the permuted pool live together, so
#: W = 1 000 over 22 benchmarks at 4 cores (4 018 uniforms a draw) at
#: 2 000 draws would hold ≈ 300 MiB as one block; in chunks of 2^20
#: uniforms the same draws peak at ≈ 55 MiB traced.
DRAW_CHUNK_UNIFORMS = 1 << 20


class BalancedRandomPlan(SamplingPlan):
    """Balanced draws as row numbers.

    Each draw's pool of ``size x cores`` benchmark codes holds every
    benchmark ``base`` times plus ``extra`` distinct ones picked by
    :func:`floyd_distinct`; a stable argsort of a uniform key block
    shuffles every pool at once (a uniform random permutation per
    draw), and the whole batch of constructed workloads is mapped to
    rows by their combinadic ranks, in one binary search over the
    index's sorted ranks.  Draws go in chunks of at most
    :data:`DRAW_CHUNK_UNIFORMS` uniforms: ``rng.random`` fills row by
    row and every later step works per draw, so the chunks give the
    rows of one block.

    Args:
        population: the exhaustive population being sampled.
    """

    def __init__(self, population: WorkloadPopulation) -> None:
        if not population.is_exhaustive:
            raise ValueError(
                "balanced random sampling needs the exhaustive workload "
                "population; this frame is a subsample (paper footnote 6)")
        self._index = population.index
        self._num_benchmarks = len(population.benchmarks)
        self._cores = population.cores

    def rows_matrix(self, size: int, draws: int,
                    rng: np.random.Generator
                    ) -> Tuple[np.ndarray, np.ndarray]:
        if size < 1:
            raise ValueError("sample size must be >= 1")
        b, cores = self._num_benchmarks, self._cores
        slots = size * cores
        base, extra = divmod(slots, b)
        chunk = max(1, DRAW_CHUNK_UNIFORMS // (extra + slots))
        rows = np.empty((draws, size), dtype=np.int64)
        for start in range(0, draws, chunk):
            count = min(chunk, draws - start)
            uniforms = rng.random((count, extra + slots))
            pools = np.empty((count, slots), dtype=np.int64)
            pools[:, :base * b] = np.repeat(np.arange(b, dtype=np.int64),
                                            base)
            if extra:
                pools[:, base * b:] = floyd_distinct(uniforms[:, :extra], b)
            order = np.argsort(uniforms[:, extra:], axis=1, kind="stable")
            pools = np.take_along_axis(pools, order, axis=1)
            codes = np.sort(pools.reshape(count * size, cores), axis=1)
            rows[start:start + count] = self._index.rank_rows(
                rank_codes(codes, b, validate=False)).reshape(count, size)
        return rows, np.full(size, 1.0 / size)


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

    def plan(self, population: WorkloadPopulation):
        """A :class:`BalancedRandomPlan` over ``population``.

        Requires an exhaustive population: the constructed workloads
        are arbitrary combinations, which a sub-sampled frame may not
        contain.  The paper hits the same restriction (footnote 6: its
        balanced-sample construction "works with the full workload
        population").
        """
        return BalancedRandomPlan(population)
