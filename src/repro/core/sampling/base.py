"""Sampling method interface, weighted samples and row-index plans.

Every method draws through its :class:`SamplingPlan`:
``method.plan(population)`` binds the method to a population, and
``plan.rows_matrix(size, draws, rng)`` returns ``draws`` samples as one
matrix of *row numbers* -- rows of ``population.index``, the
population's one :class:`~repro.core.columnar.WorkloadIndex` -- plus
their weights.  :meth:`SamplingMethod.sample`
is the object view of a single such draw, as a :class:`WeightedSample`
of :class:`Workload` instances.

Plans draw only from uniform blocks of one seeded
``numpy.random.Generator`` (``rng.random``), through two primitives:

- :func:`uniform_indices` -- ``floor(U * n)`` per slot, with
  replacement (simple random sampling, oversampled strata);
- :func:`floyd_distinct` -- Floyd's distinct-subset algorithm
  (every stratum drawn without replacement, balanced sampling's extra
  slots): one array pass computes every round's candidate for every
  draw, and only the duplicate tests run round by round.

Stratified methods represent their strata as row-index partitions,
fixed at plan-build time; the shared :class:`StratifiedRowPlan` fills
every draw's per-stratum slots from one uniform block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.population import WorkloadPopulation
from repro.core.workload import Workload


def uniform_indices(uniforms: np.ndarray, n: int) -> np.ndarray:
    """Draws with replacement from ``range(n)``: ``floor(U * n)`` per slot."""
    if n < 1:
        raise ValueError("n must be positive")
    picks = (uniforms * n).astype(np.int64)
    # U < 1, but (1 - 2**-53) * n can round up to n at large n; clamp
    # rather than bias the top index away.
    return np.minimum(picks, n - 1)


def floyd_distinct(uniforms: np.ndarray, n: int) -> np.ndarray:
    """Distinct draws from ``range(n)``, one row of picks per draw.

    Floyd's algorithm over ``k = uniforms.shape[1]`` picks (Bentley &
    Floyd, "A sample of brilliance", CACM 30(9), 1987): for
    ``i = n-k .. n-1`` pick ``j = floor(U * (i+1))`` and, if ``j`` was
    already picked in this row, take ``i`` instead.  Every row's ``k``
    picks form a uniformly distributed ``k``-subset of ``range(n)``.
    The *order* of the picks is not uniform (index ``i`` can only enter
    in its own round), which no estimator observes: within a stratum
    every slot carries the same weight.

    Cost: one O(draws x k) pass computes every round's candidate ``j``
    at once; the ``k - 1`` duplicate rounds that follow are O(draws x
    t) each, round ``t`` testing its candidates against the ``t``
    earlier picks held as contiguous round-major rows.  No per-draw
    Python work, and at most two ``(draws, k)`` blocks besides the
    input.
    """
    draws, k = uniforms.shape
    if k > n:
        raise ValueError("cannot draw more distinct picks than the range")
    top = np.arange(n - k, n)
    scaled = np.multiply(uniforms, top + 1)
    # Round-major: round t's picks are the contiguous row picks[t].
    picks = np.empty((k, draws), dtype=np.int64)
    np.copyto(picks, scaled.T, casting="unsafe")
    del scaled
    # U < 1, but U * (i + 1) can round up to i + 1; clamp it to i.
    np.minimum(picks, top[:, None], out=picks)
    for t in range(1, k):
        duplicate = (picks[:t] == picks[t]).any(axis=0)
        np.putmask(picks[t], duplicate, top[t])
    return picks.T


@dataclass(frozen=True)
class WeightedSample:
    """A sample of workloads with estimation weights.

    Attributes:
        workloads: the selected workloads (duplicates allowed -- simple
            random sampling draws with replacement).
        weights: per-workload weights, summing to 1.  Uniform for the
            random methods; equal to (N_h / N) / W_h for a workload of
            stratum h under stratified sampling, which makes a weighted
            mean over the sample equal to the stratified estimator of
            the paper's eq. (9).
    """

    workloads: Sequence[Workload]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.workloads) != len(self.weights):
            raise ValueError("one weight per workload required")
        if not self.workloads:
            raise ValueError("empty sample")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.workloads)

    @staticmethod
    def uniform(workloads: Sequence[Workload]) -> "WeightedSample":
        """A sample where every workload weighs the same."""
        n = len(workloads)
        return WeightedSample(tuple(workloads), tuple([1.0 / n] * n))

    def weighted_mean(self, values: Sequence[float]) -> float:
        """Weighted A-mean of per-workload values (e.g. d(w)).

        For every metric family the decision statistic D of Section III
        is the (weighted) arithmetic mean of the corresponding d(w), so
        this is the one reduction the estimators need.
        """
        if len(values) != len(self.workloads):
            raise ValueError("one value per workload required")
        return sum(v * w for v, w in zip(values, self.weights))


class SamplingPlan:
    """Row-index sampling bound to one population.

    A plan is built once per (method, population) pair and then asked for
    whole batches of samples.  Weights of every built-in method depend
    only on the sample size (never on the draw), so a batch is one
    ``(draws, size)`` row matrix plus one length-``size`` weight
    vector.
    """

    def rows_matrix(self, size: int, draws: int,
                    rng: np.random.Generator
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``draws`` samples of ``size`` row numbers each.

        Args:
            size: W, the sample size.
            draws: number of independent samples.
            rng: the generator whose ``random`` blocks pick the rows.

        Returns:
            ``(rows, weights)``: an int64 ``(draws, size)`` matrix and
            the shared float64 weight vector (summing to 1).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StratifiedRowPlan(SamplingPlan):
    """Shared plan for stratified methods: strata as row partitions.

    One ``(draws, size)`` uniform block fills every stratum's slots:
    :func:`floyd_distinct` inside a stratum that holds at least as many
    rows as it has slots (without replacement), :func:`uniform_indices`
    in an oversampled one (with replacement).

    Args:
        layout: callable mapping a sample size to the per-stratum
            ``(rows, w_h)`` assignment, where ``rows`` is the stratum's
            row numbers and ``w_h`` its slot count.  Strata with
            ``w_h == 0`` must be omitted.
        total: N, the frame size the stratum weights N_h / N refer to.
    """

    def __init__(self,
                 layout: Callable[[int], List[Tuple[Sequence[int], int]]],
                 total: int) -> None:
        self._layout = layout
        self._total = total
        self._cache: Dict[int, tuple] = {}

    def _layout_for(self, size: int):
        """``(strata, weights)`` for ``size``: each stratum's int64 row
        array with its slot count, and the per-slot weight vector."""
        cached = self._cache.get(size)
        if cached is None:
            strata = [(np.asarray(rows, dtype=np.int64), w_h)
                      for rows, w_h in self._layout(size)]
            # Per-pick weights (N_h / N) / W_h, renormalised left to
            # right: strata without slots drop out of the estimate.
            weights: List[float] = []
            for rows, w_h in strata:
                weights.extend([(len(rows) / self._total) / w_h] * w_h)
            scale = sum(weights)
            cached = (strata, np.array([w / scale for w in weights],
                                       dtype=np.float64))
            self._cache[size] = cached
        return cached

    def rows_matrix(self, size: int, draws: int,
                    rng: np.random.Generator
                    ) -> Tuple[np.ndarray, np.ndarray]:
        strata, weights = self._layout_for(size)
        uniforms = rng.random((draws, len(weights)))
        out = np.empty((draws, len(weights)), dtype=np.int64)
        column = 0
        for rows, w_h in strata:
            span = uniforms[:, column:column + w_h]
            n_h = len(rows)
            picks = (floyd_distinct(span, n_h) if w_h <= n_h
                     else uniform_indices(span, n_h))
            out[:, column:column + w_h] = rows[picks]
            column += w_h
        return out, weights


class SamplingMethod:
    """Interface: draw weighted workload samples from a population.

    A method supplies :meth:`plan`; :meth:`sample` is one draw of it.
    """

    #: Display name, matching the labels of the paper's Fig. 6.
    name = "?"

    def sample(self, population: WorkloadPopulation, size: int,
               rng: np.random.Generator) -> WeightedSample:
        """Draw one sample of ``size`` workloads.

        Row 0 of a one-draw :meth:`SamplingPlan.rows_matrix` batch over
        ``population.index``: the same workloads and weights the
        estimators reduce.

        Args:
            population: the workload population (or the large
                approximate-simulation sample standing in for it).
            size: W, the number of workloads to select.
            rng: source of randomness; passing the same seeded
                generator reproduces the same sample.
        """
        rows, weights = self.plan(population).rows_matrix(size, 1, rng)
        return WeightedSample(
            tuple(population[row] for row in rows[0].tolist()),
            tuple(weights.tolist()))

    def plan(self, population: WorkloadPopulation) -> SamplingPlan:
        """A row-index plan for this method over ``population``.

        Args:
            population: the population being sampled; the plan emits
                rows of its :attr:`~WorkloadPopulation.index`.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
