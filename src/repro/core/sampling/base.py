"""Sampling method interface, weighted samples and row-index plans.

Two ways to draw a sample:

- :meth:`SamplingMethod.sample` -- the historical object path: a
  :class:`WeightedSample` of :class:`Workload` instances.
- :meth:`SamplingMethod.plan` -- the columnar path: a
  :class:`SamplingPlan` bound to a
  :class:`~repro.core.columnar.WorkloadIndex` that draws *row numbers*
  for many samples at once.  Plans consume the ``random.Random`` stream
  exactly like ``sample`` does, so for the same seeded generator both
  paths select the same workloads, in the same order, with the same
  weights -- the estimator's vectorized results are bit-identical to
  the scalar loop.

Stratified methods represent their strata as row-index partitions: one
list of row numbers per stratum, fixed at plan-build time.  The shared
:class:`StratifiedRowPlan` replays the per-stratum ``rng.sample`` /
``rng.randrange`` consumption of *all* draws in batched NumPy ops (see
:mod:`repro.core.sampling.mtstream`); every plan keeps its historical
per-draw Python loop as ``rows_matrix_scalar`` -- the reference the
golden parity tests compare against and the fallback for frames the
replay cannot address.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.population import WorkloadPopulation
from repro.core.workload import Workload


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
    """Row-index sampling bound to one workload index.

    A plan is built once per (method, index) pair and then asked for
    whole batches of samples.  Weights of every built-in method depend
    only on the sample size (never on the draw), so a batch is one
    ``(draws, size)`` row matrix plus one length-``size`` weight
    vector.
    """

    def rows_matrix(self, size: int, draws: int,
                    rng: random.Random) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``draws`` samples of ``size`` row numbers each.

        Consumes ``rng`` exactly like ``draws`` sequential calls of the
        method's :meth:`SamplingMethod.sample` would.

        Returns:
            ``(rows, weights)``: an int64 ``(draws, size)`` matrix and
            the shared float64 weight vector (summing to 1).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StratifiedRowPlan(SamplingPlan):
    """Shared plan for stratified methods: strata as row partitions.

    Draw path: **vectorized**.  The per-draw ``rng.sample`` (without
    replacement inside a stratum) and ``rng.randrange`` (with
    replacement when a stratum is oversampled) consumption is replayed
    through :func:`repro.core.sampling.mtstream.replay_schedule`, so
    all ``draws x strata x size`` row indices come out of batched
    NumPy gathers over one read-ahead word buffer -- bit-identical to
    the scalar loop, including the final ``rng`` state.  The
    historical per-draw loop remains as :meth:`rows_matrix_scalar`: it
    is the reference the golden parity tests compare against, and the
    automatic fallback for frames too large for the 32-bit word-stream
    replay (strata beyond 2**32 rows).

    Args:
        layout: callable mapping a sample size to the per-stratum
            ``(rows, w_h)`` assignment, where ``rows`` is the stratum's
            row-number list (population order or d(w) order -- whatever
            the method's ``sample`` uses) and ``w_h`` its slot count.
            Strata with ``w_h == 0`` must be omitted.
        total: N, the frame size the stratum weights N_h / N refer to.
    """

    def __init__(self,
                 layout: Callable[[int], List[Tuple[List[int], int]]],
                 total: int) -> None:
        self._layout = layout
        self._total = total
        self._cache: Dict[int, tuple] = {}

    def _layout_for(self, size: int):
        cached = self._cache.get(size)
        if cached is None:
            chosen = self._layout(size)
            # Exactly the legacy weight arithmetic: per-pick weights
            # (N_h / N) / W_h, renormalised left to right.
            weights: List[float] = []
            for rows, w_h in chosen:
                weight = (len(rows) / self._total) / w_h
                weights.extend([weight] * w_h)
            scale = sum(weights)
            weights = [w / scale for w in weights]
            # The replay schedule and row arrays mirror the scalar
            # loop: one sample() per stratum when drawing without
            # replacement, one randrange() run when oversampled.
            ops = []
            arrays = []
            for rows, w_h in chosen:
                n_h = len(rows)
                ops.append(("sample" if w_h <= n_h else "randbelow",
                            n_h, w_h))
                arrays.append(np.asarray(rows, dtype=np.int64))
            replayable = all(n.bit_length() <= 32 for _, n, _ in ops)
            cached = (chosen, np.array(weights, dtype=np.float64),
                      ops, arrays, replayable)
            self._cache[size] = cached
        return cached

    def rows_matrix(self, size: int, draws: int,
                    rng: random.Random) -> Tuple[np.ndarray, np.ndarray]:
        from repro.core.sampling.mtstream import (
            pool_pick,
            replay_schedule,
            sample_uses_pool,
        )

        chosen, weights, ops, arrays, replayable = self._layout_for(size)
        if not replayable:
            return self.rows_matrix_scalar(size, draws, rng)
        matrices = replay_schedule(rng, ops, draws)
        out = np.empty((draws, len(weights)), dtype=np.int64)
        column = 0
        for (kind, n_h, w_h), rows, drawn in zip(ops, arrays, matrices):
            if kind == "sample" and sample_uses_pool(n_h, w_h):
                # Pool-path indices mutate the pool as they go; replay
                # the Fisher-Yates value shuffle across all draws.
                out[:, column:column + w_h] = pool_pick(rows, drawn)
            else:
                # Selection-set / randrange indices address the stratum
                # directly.
                out[:, column:column + w_h] = rows[drawn]
            column += w_h
        return out, weights

    def rows_matrix_scalar(self, size: int, draws: int,
                           rng: random.Random
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """The historical per-draw loop (reference and fallback)."""
        chosen, weights = self._layout_for(size)[:2]
        slots = len(weights)
        out = np.empty((draws, slots), dtype=np.int64)
        for d in range(draws):
            column = 0
            for rows, w_h in chosen:
                n_h = len(rows)
                # Without replacement inside a stratum when possible
                # (the same branch the object path takes).
                if w_h <= n_h:
                    picks = rng.sample(rows, w_h)
                else:
                    picks = [rows[rng.randrange(n_h)] for _ in range(w_h)]
                out[d, column:column + w_h] = picks
                column += w_h
        return out, weights


class SamplingMethod:
    """Interface: draw a weighted workload sample from a population."""

    #: Display name, matching the labels of the paper's Fig. 6.
    name = "?"

    def sample(self, population: WorkloadPopulation, size: int,
               rng: random.Random) -> WeightedSample:
        """Draw a sample of ``size`` workloads.

        Args:
            population: the workload population (or the large
                approximate-simulation sample standing in for it).
            size: W, the number of workloads to select.
            rng: source of randomness; passing the same seeded RNG
                reproduces the same sample.
        """
        raise NotImplementedError

    def plan(self, index, population: WorkloadPopulation
             ) -> Optional[SamplingPlan]:
        """A row-index plan for this method over ``index``.

        Returns ``None`` when the method has no columnar path (the
        estimator then falls back to the scalar loop, which works for
        any :meth:`sample` implementation).

        Args:
            index: the :class:`~repro.core.columnar.WorkloadIndex`
                whose rows the plan must emit (its order must match the
                population's).
            population: the population ``sample`` would receive.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
