"""Empirical degree-of-confidence estimation (Sections V and VI).

The paper validates its analytical model and compares sampling methods
by *measuring* the degree of confidence: draw many samples (1000 or
10000), and count the fraction on which microarchitecture Y appears
better than X.  :class:`ConfidenceEstimator` reproduces that
experiment from a d(w) table.

The estimator is columnar: d(w) lives in one float64 vector (a
:class:`~repro.core.columnar.DeltaColumn`), every sampling method
contributes a row-index :class:`~repro.core.sampling.base.SamplingPlan`,
and all ``draws`` weighted means of a (method, size) point are computed
as one batched array operation.  Each point draws from its own
generator, seeded by (seed, sample size) in :func:`_draw_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.columnar import DeltaLike, as_delta_column
from repro.core.metrics import _row_dot
from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import SamplingMethod, SamplingPlan


def checked_draws(draws: int) -> int:
    """``draws`` itself, or a ValueError naming it when it is < 1.

    Every confidence and hit rate is a count over ``draws`` samples.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1 (got {draws})")
    return draws


def _draw_rows(plan: SamplingPlan, size: int, draws: int, seed: int):
    """One (size, seed) row batch, from that point's own generator.

    The only place a draw generator is made:
    ``np.random.default_rng([seed % 2**64, size])``.  Seeding with the
    pair gives every (seed, size) point its own stream, so batched
    curves equal per-point calls; ``% 2**64`` keeps negative seeds
    legal.
    """
    rng = np.random.default_rng([seed % 2**64, size])
    return plan.rows_matrix(size, draws, rng)


def _win_counts(gathered: np.ndarray, batches) -> List[np.ndarray]:
    """Per size in ``batches``: how many draws have D > 0.

    ``gathered`` holds every size's gathered d(w) side by side along
    axis 1, ``(draws, sum sizes)`` or ``(draws, sum sizes, P)``.
    :func:`_row_dot` is bit-identical to
    :meth:`~repro.core.sampling.base.WeightedSample.weighted_mean`
    applied per row (left-to-right product accumulation) and broadcasts
    over a trailing pair axis, so each (draw, pair) accumulates in the
    same order as the 2-D path.
    """
    wins = []
    column = 0
    for rows, weights in batches:
        span = gathered[:, column:column + rows.shape[1]]
        column += rows.shape[1]
        wins.append(np.count_nonzero(_row_dot(span, weights) > 0.0, axis=0))
    return wins


@dataclass(frozen=True)
class ConfidenceCurve:
    """Empirical confidence as a function of sample size."""

    method: str
    sample_sizes: Sequence[int]
    confidence: Sequence[float]

    def as_dict(self) -> Dict[int, float]:
        return dict(zip(self.sample_sizes, self.confidence))


class ConfidenceEstimator:
    """Monte-Carlo measurement of the degree of confidence.

    Args:
        population: the workload population being sampled.
        delta: d(w) for every workload in the population -- a legacy
            ``Mapping[Workload, float]``, a
            :class:`~repro.core.columnar.DeltaColumn`, or a float
            vector aligned with the population's order.  The decision
            statistic for every metric family is the weighted mean of
            d(w) over the sample (Section III), so the estimator only
            needs this table.
        draws: number of independent samples per (method, size) point;
            the paper uses 1000 (model validation) to 10000 (Fig. 6).
    """

    def __init__(self, population: WorkloadPopulation, delta: DeltaLike,
                 draws: int = 1000) -> None:
        self.draws = checked_draws(draws)
        self.population = population
        self.index = population.index
        # A column must hold the population's rows; mapping input is
        # validated with one set difference, reporting every missing
        # workload (not an O(N) membership scan).
        self.column = as_delta_column(self.index, delta)
        # Keyed by identity but pinning the method object: an id() can
        # be reused once its owner is garbage collected.
        self._plans: Dict[int, tuple] = {}

    def _plan_for(self, method: SamplingMethod) -> SamplingPlan:
        key = id(method)
        if key not in self._plans:
            self._plans[key] = (method, method.plan(self.population))
        return self._plans[key][1]

    def confidence(self, method: SamplingMethod, sample_size: int,
                   seed: int = 0) -> float:
        """Fraction of samples on which Y outperforms X (D > 0)."""
        return self.curve(method, (sample_size,), seed=seed).confidence[0]

    def curve(self, method: SamplingMethod, sample_sizes: Sequence[int],
              seed: int = 0) -> ConfidenceCurve:
        """Empirical confidence at each sample size (a Fig. 6 series).

        The whole curve shares one plan and one gather: the per-size
        row matrices (each from its own (seed, size) generator, so a
        point equals :meth:`confidence` at that size) are concatenated
        column-wise, d(w) is gathered from the delta column once, and
        each point reduces its own column span.
        """
        if not sample_sizes:
            return ConfidenceCurve(method.name, (), ())
        plan = self._plan_for(method)
        batches = [_draw_rows(plan, size, self.draws, seed)
                   for size in sample_sizes]
        gathered = self.column.values[
            np.concatenate([rows for rows, _ in batches], axis=1)]
        values = tuple(int(wins) / self.draws
                       for wins in _win_counts(gathered, batches))
        return ConfidenceCurve(method.name, tuple(sample_sizes), values)


class PairedConfidenceEstimator:
    """Confidence for many policy pairs, one gather over a shared index.

    The paper's Fig. 6 measures four policy pairs with the same
    sampling methods over the same population: for any method whose
    draws do not depend on d(w) (simple random, balanced random,
    benchmark stratification), the row matrices of every pair are
    *identical* -- only the gathered d(w) values differ.  This
    estimator stacks the pairs' delta columns into one N x P matrix,
    draws each (method, size) row batch once, gathers once, and reduces
    every pair from the same gathered block.

    Results are bit-identical per pair to running a separate
    :class:`ConfidenceEstimator`: the RNG streams are those of the
    single-pair paths, and the per-pair weighted means accumulate in
    the same left-to-right column order (the trailing pair axis only
    broadcasts the element-wise steps).

    Args:
        population: the shared workload population.
        deltas: per-pair d(w) tables (any :data:`DeltaLike`), keyed by
            the caller's pair labels; all must align with the
            population's row order.
        draws: Monte-Carlo resamples per (method, size) point.
    """

    def __init__(self, population: WorkloadPopulation,
                 deltas: "Dict[object, DeltaLike]",
                 draws: int = 1000) -> None:
        if not deltas:
            raise ValueError("no delta columns given")
        self.draws = checked_draws(draws)
        self.population = population
        self.index = population.index
        self.columns = {key: as_delta_column(self.index, delta)
                        for key, delta in deltas.items()}
        #: N x P, one pair per column, in ``deltas`` insertion order.
        self.stacked = np.column_stack(
            [column.values for column in self.columns.values()])
        self._plans: Dict[int, tuple] = {}

    def _plan_for(self, method: SamplingMethod) -> SamplingPlan:
        key = id(method)
        if key not in self._plans:
            self._plans[key] = (method, method.plan(self.population))
        return self._plans[key][1]

    def confidence(self, method: SamplingMethod, sample_size: int,
                   seed: int = 0) -> Dict[object, float]:
        """One (method, size) point for every pair, one gather."""
        curves = self.curve(method, [sample_size], seed=seed)
        return {key: curve.confidence[0] for key, curve in curves.items()}

    def curve(self, method: SamplingMethod, sample_sizes: Sequence[int],
              seed: int = 0) -> Dict[object, ConfidenceCurve]:
        """A whole Fig. 6 curve per pair from one row batch per size.

        The per-size row matrices come from the single-pair path's
        (seed, size) generators, so every returned curve equals the
        one :meth:`ConfidenceEstimator.curve` would produce for that
        pair alone.
        """
        wins_per_size: List[np.ndarray] = []
        if sample_sizes:
            plan = self._plan_for(method)
            batches = [_draw_rows(plan, size, self.draws, seed)
                       for size in sample_sizes]
            # One gather for all sizes and all pairs: (draws, sum W, P).
            gathered = self.stacked[
                np.concatenate([rows for rows, _ in batches], axis=1)]
            wins_per_size = _win_counts(gathered, batches)
        return {key: ConfidenceCurve(
                    method.name, tuple(sample_sizes),
                    tuple(int(wins[p]) / self.draws
                          for wins in wins_per_size))
                for p, key in enumerate(self.columns)}

    def pair_curves(self, methods: "Dict[object, SamplingMethod]",
                    sample_sizes: Sequence[int],
                    seed: int = 0) -> Dict[object, ConfidenceCurve]:
        """Curves for *pair-dependent* methods, one pair at a time.

        Workload stratification's strata derive from each pair's own
        d(w), so every pair has its own method instance and its own
        rows, and nothing is left to share but the population: each
        pair's curve is that pair's own :meth:`ConfidenceEstimator.curve`
        (its (seed, size) generators, its gather).

        Args:
            methods: one sampling method per pair, keyed exactly like
                the constructor's ``deltas``.
            sample_sizes: the curve's sample sizes.
            seed: base seed, as in :meth:`curve`.
        """
        if set(methods) != set(self.columns):
            raise ValueError("need exactly one sampling method per pair")
        return {key: ConfidenceEstimator(
                    self.population, column, self.draws).curve(
                        methods[key], sample_sizes, seed=seed)
                for key, column in self.columns.items()}
