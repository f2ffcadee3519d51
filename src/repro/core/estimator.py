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
as one batched array operation.  Results are bit-identical to the
historical pure-Python loop, which is kept as
:meth:`ConfidenceEstimator.confidence_scalar` -- both the reference
implementation for the golden parity tests and the fallback for
third-party sampling methods without a plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.columnar import (
    DeltaColumn,
    DeltaLike,
    WorkloadIndex,
    as_delta_column,
)
from repro.core.metrics import _row_dot
from repro.core.population import WorkloadPopulation
from repro.core.sampling.base import (
    SamplingMethod,
    SamplingPlan,
    has_fast_block,
    has_fast_path,
)
from repro.core.sampling.fastpath import fast_generator
from repro.core.workload import Workload


def checked_draws(draws: int) -> int:
    """``draws`` itself, or a ValueError naming it when it is < 1.

    Every confidence and hit rate is a count over ``draws`` samples.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1 (got {draws})")
    return draws


def _population_index(population: WorkloadPopulation) -> WorkloadIndex:
    """The population's memoised index (zero-copy over its code matrix)."""
    index = getattr(population, "index", None)
    if isinstance(index, WorkloadIndex):
        return index
    return WorkloadIndex.from_population(population)


def _draw_rows(plan: SamplingPlan, size: int, draws: int, seed: int,
               fast_sampling: bool):
    """One (size, seed) row batch: fast path when opted in + supported.

    Both the MT stream (``random.Random((seed << 16) ^ size)``) and the
    fast generator are derived fresh per point, so batched curves equal
    per-point calls on either path.
    """
    if fast_sampling and has_fast_path(plan):
        return plan.rows_matrix_fast(size, draws, fast_generator(seed, size))
    rng = random.Random((seed << 16) ^ size)
    return plan.rows_matrix(size, draws, rng)


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
        fast_sampling: opt into the fast, non-bit-compatible draw path
            (:mod:`repro.core.sampling.fastpath`) for methods whose
            plans support it; methods without a fast path -- and the
            scalar fallback -- keep the bit-compatible MT streams.
            Defaults to off: the MT replay stays the parity oracle.
    """

    def __init__(self, population: WorkloadPopulation, delta: DeltaLike,
                 draws: int = 1000, fast_sampling: bool = False) -> None:
        self.draws = checked_draws(draws)
        self.population = population
        if isinstance(delta, DeltaColumn):
            if not delta.index.same_rows(_population_index(population)):
                raise ValueError(
                    "delta column indexed by different workloads than "
                    "the population")
            self.index = delta.index
        else:
            self.index = _population_index(population)
        # Mapping input is validated with one set difference, reporting
        # every missing workload (not an O(N) membership scan).
        self.column = as_delta_column(self.index, delta)
        self.fast_sampling = fast_sampling
        self._delta_mapping: Optional[Dict[Workload, float]] = None
        # Keyed by identity but pinning the method object: an id() can
        # be reused once its owner is garbage collected.
        self._plans: Dict[int, tuple] = {}

    @property
    def delta(self) -> Dict[Workload, float]:
        """The d(w) table as a dict (legacy view, built on demand)."""
        if self._delta_mapping is None:
            self._delta_mapping = self.column.as_mapping()
        return self._delta_mapping

    def _plan_for(self, method: SamplingMethod) -> Optional[SamplingPlan]:
        key = id(method)
        if key not in self._plans:
            self._plans[key] = (method,
                                method.plan(self.index, self.population))
        return self._plans[key][1]

    def confidence(self, method: SamplingMethod, sample_size: int,
                   seed: int = 0) -> float:
        """Fraction of samples on which Y outperforms X (D > 0)."""
        plan = self._plan_for(method)
        if plan is None:            # method without a columnar path
            return self.confidence_scalar(method, sample_size, seed=seed)
        rows, weights = _draw_rows(plan, sample_size, self.draws, seed,
                                   self.fast_sampling)
        # _row_dot is bit-identical to WeightedSample.weighted_mean
        # applied per row (left-to-right product accumulation).
        means = _row_dot(self.column.values[rows], weights)
        wins = int(np.count_nonzero(means > 0.0))
        return wins / self.draws

    def confidence_scalar(self, method: SamplingMethod, sample_size: int,
                          seed: int = 0) -> float:
        """The historical per-draw loop (reference implementation).

        Kept for sampling methods that only implement ``sample`` and as
        the golden baseline the vectorized path is tested against.
        """
        rng = random.Random((seed << 16) ^ sample_size)
        delta = self.delta
        wins = 0
        for _ in range(self.draws):
            sample = method.sample(self.population, sample_size, rng)
            values = [delta[w] for w in sample.workloads]
            if sample.weighted_mean(values) > 0.0:
                wins += 1
        return wins / self.draws

    def curve(self, method: SamplingMethod, sample_sizes: Sequence[int],
              seed: int = 0) -> ConfidenceCurve:
        """Empirical confidence at each sample size (a Fig. 6 series).

        The whole curve shares one plan and one gather: the per-size
        row matrices (drawn with exactly the per-point RNG streams, so
        results stay bit-identical to calling :meth:`confidence` per
        size) are concatenated column-wise, d(w) is gathered from the
        delta column once, and each point reduces its own column span.
        Methods without a columnar plan fall back to the per-point
        scalar loop.
        """
        plan = self._plan_for(method)
        if plan is None or not sample_sizes:
            values = [self.confidence(method, size, seed=seed)
                      for size in sample_sizes]
            return ConfidenceCurve(method.name, tuple(sample_sizes),
                                   tuple(values))
        batches = [_draw_rows(plan, size, self.draws, seed,
                              self.fast_sampling)
                   for size in sample_sizes]
        gathered = self.column.values[
            np.concatenate([rows for rows, _ in batches], axis=1)]
        values = []
        column = 0
        for rows, weights in batches:
            span = gathered[:, column:column + rows.shape[1]]
            column += rows.shape[1]
            means = _row_dot(span, weights)
            values.append(int(np.count_nonzero(means > 0.0)) / self.draws)
        return ConfidenceCurve(method.name, tuple(sample_sizes), tuple(values))


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
        fast_sampling: opt into the fast, non-bit-compatible draw path
            (same contract as :class:`ConfidenceEstimator`).
    """

    def __init__(self, population: WorkloadPopulation,
                 deltas: "Dict[object, DeltaLike]",
                 draws: int = 1000, fast_sampling: bool = False) -> None:
        if not deltas:
            raise ValueError("no delta columns given")
        self.draws = checked_draws(draws)
        self.population = population
        self.index = _population_index(population)
        self.columns = {key: as_delta_column(self.index, delta)
                        for key, delta in deltas.items()}
        #: N x P, one pair per column, in ``deltas`` insertion order.
        self.stacked = np.column_stack(
            [column.values for column in self.columns.values()])
        self.fast_sampling = fast_sampling
        self._plans: Dict[int, tuple] = {}

    def _plan_for(self, method: SamplingMethod) -> Optional[SamplingPlan]:
        key = id(method)
        if key not in self._plans:
            self._plans[key] = (method,
                                method.plan(self.index, self.population))
        return self._plans[key][1]

    def _scalar_curves(self, method: SamplingMethod,
                       sample_sizes: Sequence[int],
                       seed: int) -> Dict[object, ConfidenceCurve]:
        """Per-pair fallback for methods without a columnar plan."""
        out = {}
        for key, column in self.columns.items():
            estimator = ConfidenceEstimator(
                self.population, column, draws=self.draws,
                fast_sampling=self.fast_sampling)
            out[key] = estimator.curve(method, sample_sizes, seed=seed)
        return out

    def confidence(self, method: SamplingMethod, sample_size: int,
                   seed: int = 0) -> Dict[object, float]:
        """One (method, size) point for every pair, one gather."""
        curves = self.curve(method, [sample_size], seed=seed)
        return {key: curve.confidence[0] for key, curve in curves.items()}

    def curve(self, method: SamplingMethod, sample_sizes: Sequence[int],
              seed: int = 0) -> Dict[object, ConfidenceCurve]:
        """A whole Fig. 6 curve per pair from one row batch per size.

        The per-size row matrices use exactly the per-pair RNG streams
        (``(seed << 16) ^ size``), so every returned curve equals the
        one :meth:`ConfidenceEstimator.curve` would produce for that
        pair alone.
        """
        plan = self._plan_for(method)
        if plan is None or not sample_sizes:
            return self._scalar_curves(method, sample_sizes, seed)
        batches = [_draw_rows(plan, size, self.draws, seed,
                              self.fast_sampling)
                   for size in sample_sizes]
        # One gather for all sizes and all pairs: (draws, sum sizes, P).
        gathered = self.stacked[
            np.concatenate([rows for rows, _ in batches], axis=1)]
        wins_per_pair: List[np.ndarray] = []
        column = 0
        for rows, weights in batches:
            span = gathered[:, column:column + rows.shape[1], :]
            column += rows.shape[1]
            # _row_dot broadcasts over the trailing pair axis: the
            # accumulation order per (draw, pair) matches the 2-D path.
            means = _row_dot(span, weights)
            wins_per_pair.append(np.count_nonzero(means > 0.0, axis=0))
        out = {}
        for p, key in enumerate(self.columns):
            values = tuple(int(wins[p]) / self.draws
                           for wins in wins_per_pair)
            out[key] = ConfidenceCurve(method.name, tuple(sample_sizes),
                                       values)
        return out

    def _draw_pair_rows(self, plans: "Dict[object, SamplingPlan]",
                        keys: List[object], size: int, seed: int):
        """One (size, seed) row batch per pair, stacked when fast.

        On the fast path all pairs draw from ONE ``(draws, sum slots)``
        uniform block of a single generator, each pair consuming its
        own column span.  Deriving a fresh ``fast_generator(seed,
        size)`` per pair instead would hand every pair the *identical*
        uniform block -- perfectly correlated draws masquerading as
        independent Monte-Carlo experiments -- and pay P generator
        round trips.  The default MT path is untouched: each pair keeps
        its own bit-compatible stream.
        """
        if self.fast_sampling and \
                all(has_fast_block(plans[key]) for key in keys):
            widths = [plans[key].fast_slots(size) for key in keys]
            block = fast_generator(seed, size).random(
                (self.draws, sum(widths)))
            drawn = []
            column = 0
            for key, width in zip(keys, widths):
                drawn.append(plans[key].rows_matrix_fast_block(
                    size, block[:, column:column + width]))
                column += width
            return drawn
        return [_draw_rows(plans[key], size, self.draws, seed,
                           self.fast_sampling) for key in keys]

    def _fallback_pair_curves(self, methods: "Dict[object, SamplingMethod]",
                              sample_sizes: Sequence[int],
                              seed: int) -> Dict[object, ConfidenceCurve]:
        """Per-pair loop: the reference `pair_curves` batches against."""
        out = {}
        for key, column in self.columns.items():
            estimator = ConfidenceEstimator(
                self.population, column, draws=self.draws,
                fast_sampling=self.fast_sampling)
            out[key] = estimator.curve(methods[key], sample_sizes, seed=seed)
        return out

    def pair_curves(self, methods: "Dict[object, SamplingMethod]",
                    sample_sizes: Sequence[int],
                    seed: int = 0) -> Dict[object, ConfidenceCurve]:
        """Curves for *pair-dependent* methods, batched across pairs.

        :meth:`curve` exploits that pair-independent methods share one
        row matrix across pairs.  Workload stratification does not: its
        strata derive from each pair's own d(w), so every pair has its
        own method instance and its own rows.  This path still shares
        the work that *can* be shared -- the d(w) gather and the
        weighted-mean reduction run once over a ``(draws, W, P)`` block
        instead of P separate 2-D passes.

        On the default MT path, per-pair results are bit-identical to
        running that pair's method through a separate
        :class:`ConfidenceEstimator`: each (pair, size) point draws
        from its own fresh RNG stream exactly as the single-pair path
        does, and the reduction's element-wise accumulation order is
        unchanged (the trailing pair axis only broadcasts).  With
        ``fast_sampling=True`` the pairs instead share ONE stacked
        uniform block per size (see :meth:`_draw_pair_rows`), so their
        draws are decorrelated -- per-pair results then agree with the
        single-pair fast path at distribution level, not bit for bit.
        Pairs whose plans emit ragged widths for a size -- impossible
        for the built-in methods, which always emit exactly ``size``
        slots -- fall back to the per-pair loop, as do methods without
        a columnar plan.

        Args:
            methods: one sampling method per pair, keyed exactly like
                the constructor's ``deltas``.
            sample_sizes: the curve's sample sizes.
            seed: base seed, as in :meth:`curve`.
        """
        if set(methods) != set(self.columns):
            raise ValueError("need exactly one sampling method per pair")
        plans = {key: methods[key].plan(self.index, self.population)
                 for key in self.columns}
        if not sample_sizes or any(p is None for p in plans.values()):
            return self._fallback_pair_curves(methods, sample_sizes, seed)
        keys = list(self.columns)
        batches = []        # per size: (draws, W, P) rows, (W, P) weights
        for size in sample_sizes:
            drawn = self._draw_pair_rows(plans, keys, size, seed)
            if len({rows.shape[1] for rows, _ in drawn}) != 1:
                return self._fallback_pair_curves(methods, sample_sizes,
                                                  seed)
            batches.append((np.stack([rows for rows, _ in drawn], axis=2),
                            np.stack([w for _, w in drawn], axis=1)))
        # One gather for all sizes: stacked[rows[d, s, p], p].
        pair_axis = np.arange(len(keys))
        gathered = self.stacked[
            np.concatenate([rows for rows, _ in batches], axis=1),
            pair_axis]
        wins_per_pair = []
        column = 0
        for rows, weights in batches:
            span = gathered[:, column:column + rows.shape[1], :]
            column += rows.shape[1]
            means = _row_dot(span, weights)
            wins_per_pair.append(np.count_nonzero(means > 0.0, axis=0))
        out = {}
        for p, key in enumerate(keys):
            values = tuple(int(wins[p]) / self.draws
                           for wins in wins_per_pair)
            out[key] = ConfidenceCurve(methods[key].name,
                                       tuple(sample_sizes), values)
        return out
