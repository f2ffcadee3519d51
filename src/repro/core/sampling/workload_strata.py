"""Workload stratification (Section VI-B-2).

The paper's key proposal: use a fast approximate simulator to measure
d(w) for *every* workload of a large sample, then build strata directly
from those values:

1. measure d(w) for every workload;
2. sort workloads by d(w);
3. walk in ascending order, accumulating a stratum;
4. when the stratum has at least W_T workloads and its standard
   deviation exceeds T_SD, close it and start a new one.

The strata are contiguous d(w) ranges, internally homogeneous, so a
small per-stratum sample gives a precise stratified estimate.  The
paper stresses the resulting sample is valid only for the specific
(X, Y, metric) pair whose d(w) built the strata -- which this class
enforces by construction, being built *from* a d(w) table.

Draws go through the shared :class:`StratifiedRowPlan`: the
bit-compatible MT replay by default, or -- because the strata are
plain row partitions -- the opt-in fast path
(:mod:`~repro.core.sampling.fastpath`, ``fast_sampling=True``) that
fills all strata from one uniform block, which is what breaks the
replay's serial-scan floor on large frames.
"""

from __future__ import annotations

import math
import random
from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.core.population import WorkloadPopulation
from repro.core.sampling.allocation import largest_remainder_allocation
from repro.core.sampling.base import (
    SamplingMethod,
    StratifiedRowPlan,
    WeightedSample,
)
from repro.core.workload import Workload

#: Paper defaults for the stratification parameters (Section VI-B-2).
#: The paper uses an absolute T_SD = 0.001 for its d(w) value scale; we
#: default to an *adaptive* threshold (a fraction of the population's
#: d(w) standard deviation) so the algorithm transfers across metrics
#: and machines whose d(w) live on different scales.
DEFAULT_MIN_STRATUM = 50
DEFAULT_SD_THRESHOLD = 0.001
ADAPTIVE_SD_FRACTION = 0.05


def _adaptive_threshold(values: List[float]) -> float:
    """T_SD adapted to the population's d(w) standard deviation."""
    mean = sum(values) / len(values)
    population_std = math.sqrt(
        sum((v - mean) ** 2 for v in values) / len(values))
    return ADAPTIVE_SD_FRACTION * population_std


def _variance_limit(sd_threshold: float) -> float:
    """The largest double whose ``math.sqrt`` is <= ``sd_threshold``.

    ``math.sqrt`` is correctly rounded and monotone, so for every
    variance ``v >= 0``: ``math.sqrt(v) > sd_threshold`` exactly when
    ``v > _variance_limit(sd_threshold)`` -- the stratum cut without a
    square root per row.  A NaN threshold cuts nothing (NaN compares
    false either way), +inf cuts nothing, and a negative one (-inf
    included) cuts wherever the standard deviation is a number.
    """
    if math.isnan(sd_threshold) or sd_threshold == math.inf:
        return sd_threshold
    if sd_threshold < 0.0:
        return -math.inf
    limit = sd_threshold * sd_threshold
    while math.sqrt(limit) > sd_threshold:
        limit = math.nextafter(limit, 0.0)
    while math.sqrt(math.nextafter(limit, math.inf)) <= sd_threshold:
        limit = math.nextafter(limit, math.inf)
    return limit


def _stratum_ranges(ordered_values: List[float], min_stratum: int,
                    sd_threshold: float) -> List[range]:
    """Cut ascending d(w) values into strata; [start, stop) ranges.

    The single Welford scan behind both the mapping-based and the
    columnar stratum builders (so they are bit-identical).  A stratum
    closes once it holds ``min_stratum`` values and its standard
    deviation exceeds ``sd_threshold``, tested on the variance against
    :func:`_variance_limit` (the same decision, row for row).
    """
    limit = _variance_limit(sd_threshold)
    ranges: List[range] = []
    start = 0
    # Incremental mean/variance (Welford) for the open stratum.
    mean = 0.0
    m2 = 0.0
    for i, value in enumerate(ordered_values):
        n = i - start + 1
        diff = value - mean
        mean += diff / n
        m2 += diff * (value - mean)
        if n >= min_stratum and m2 / n > limit:
            ranges.append(range(start, i + 1))
            start = i + 1
            mean = 0.0
            m2 = 0.0
    if start < len(ordered_values):
        ranges.append(range(start, len(ordered_values)))
    return ranges


def build_workload_strata(delta: Mapping[Workload, float],
                          min_stratum: int = DEFAULT_MIN_STRATUM,
                          sd_threshold: Optional[float] = None,
                          ) -> List[List[Workload]]:
    """Cut the d(w)-sorted workload list into strata (paper algorithm).

    Args:
        delta: d(w) for every workload of the large sample.
        min_stratum: W_T, the minimum stratum size.
        sd_threshold: T_SD, the standard-deviation threshold that
            triggers a new stratum.  ``None`` (default) adapts it to
            ``ADAPTIVE_SD_FRACTION`` of the population's d(w) standard
            deviation, which matches the paper's intent (internally
            homogeneous strata) regardless of the metric's value scale.

    Returns:
        The strata as lists of workloads, in ascending d(w) order.
    """
    if not delta:
        raise ValueError("empty d(w) table")
    if min_stratum < 1:
        raise ValueError("min_stratum must be >= 1")
    if sd_threshold is None:
        sd_threshold = _adaptive_threshold(list(delta.values()))
    ordered = sorted(delta, key=lambda w: delta[w])
    ranges = _stratum_ranges([delta[w] for w in ordered],
                             min_stratum, sd_threshold)
    return [[ordered[i] for i in span] for span in ranges]


def _merged_groups(sizes: List[int], total: int,
                   size: int) -> List[List[int]]:
    """Stratum numbers forming each of at most ``size`` sampling groups.

    When the requested sample is smaller than the number of strata,
    dropping strata would bias the estimate (the tails of the d(w)
    distribution live in small strata).  Since strata are contiguous
    d(w) ranges, merging *adjacent* strata preserves homogeneity as
    well as possible while guaranteeing every group one slot.
    """
    if size >= len(sizes):
        return [[number] for number in range(len(sizes))]
    merged: List[List[int]] = []
    target = total / size
    current: List[int] = []
    count = 0
    for number, stratum_size in enumerate(sizes):
        current.append(number)
        count += stratum_size
        if count >= target and len(merged) < size - 1:
            merged.append(current)
            current = []
            count = 0
    if current:
        merged.append(current)
    return merged


class WorkloadStratification(SamplingMethod):
    """Stratified sampling over d(w)-derived workload strata.

    Args:
        delta: d(w) for every workload of the population / large sample
            (measured with the approximate simulator).
        min_stratum: W_T (default 50, the paper's value).
        sd_threshold: T_SD (None = adaptive; see
            :func:`build_workload_strata`).
    """

    name = "workload-strata"

    def __init__(self, delta: Mapping[Workload, float],
                 min_stratum: int = DEFAULT_MIN_STRATUM,
                 sd_threshold: Optional[float] = None) -> None:
        self._strata: Optional[List[List[Workload]]] = \
            build_workload_strata(delta, min_stratum, sd_threshold)
        #: Columnar instances: each stratum's row numbers in ``_index``.
        self._rows: Optional[List[np.ndarray]] = None
        self._index = None
        self._total = sum(len(s) for s in self._strata)

    @classmethod
    def from_column(cls, delta, min_stratum: int = DEFAULT_MIN_STRATUM,
                    sd_threshold: Optional[float] = None
                    ) -> "WorkloadStratification":
        """Build the strata from a columnar d(w) vector.

        Identical strata to the mapping constructor (same stable sort,
        same Welford scan), kept as the row numbers of the column's
        index: no workload is built unless the scalar :meth:`sample`
        path or :attr:`strata` asks for one.  The natural companion of
        :class:`repro.core.columnar.DeltaColumn`.

        Args:
            delta: a :class:`~repro.core.columnar.DeltaColumn`.
            min_stratum: W_T (default 50, the paper's value).
            sd_threshold: T_SD (None = adaptive).
        """
        if len(delta) == 0:
            raise ValueError("empty d(w) table")
        if min_stratum < 1:
            raise ValueError("min_stratum must be >= 1")
        values = delta.values
        if sd_threshold is None:
            sd_threshold = _adaptive_threshold(values.tolist())
        order = np.argsort(values, kind="stable")
        ranges = _stratum_ranges(values[order].tolist(),
                                 min_stratum, sd_threshold)
        instance = cls.__new__(cls)
        instance._strata = None
        instance._rows = [order[span.start:span.stop] for span in ranges]
        instance._index = delta.index
        instance._total = len(order)
        return instance

    @property
    def strata(self) -> List[List[Workload]]:
        """The strata as workload lists, in ascending d(w) order."""
        if self._strata is None:
            workloads = self._index.workloads
            self._strata = [[workloads[row] for row in rows.tolist()]
                            for rows in self._rows]
        return self._strata

    @property
    def num_strata(self) -> int:
        return len(self._rows if self._rows is not None else self._strata)

    def _strata_for_size(self, size: int) -> List[List[Workload]]:
        """The strata, merged down to at most ``size`` groups (see
        :func:`_merged_groups`)."""
        strata = self.strata
        groups = _merged_groups([len(s) for s in strata], self._total, size)
        if len(groups) == len(strata):
            return strata
        return [[workload for number in group for workload in strata[number]]
                for group in groups]

    def sample(self, population: WorkloadPopulation, size: int,
               rng: random.Random) -> WeightedSample:
        """Draw W workloads across the strata (proportional allocation).

        ``population`` is accepted for interface compatibility; the
        strata themselves define the sampling frame (they were built
        from the population's d(w) table).
        """
        if size < 1:
            raise ValueError("sample size must be >= 1")
        strata = self._strata_for_size(size)
        sizes = [len(s) for s in strata]
        # Every stratum gets one guaranteed slot (omitting a stratum
        # biases the estimate -- the d(w) tails live in small strata);
        # the remaining slots are distributed proportionally to size.
        extra = largest_remainder_allocation(
            [float(s) for s in sizes], size - len(strata))
        allocation = [1 + e for e in extra]
        workloads: List[Workload] = []
        weights: List[float] = []
        for stratum, n_h, w_h in zip(strata, sizes, allocation):
            if w_h == 0:
                continue
            weight = (n_h / self._total) / w_h
            # Without replacement inside a stratum when possible.
            if w_h <= n_h:
                picks = rng.sample(stratum, w_h)
            else:
                picks = [stratum[rng.randrange(n_h)] for _ in range(w_h)]
            for workload in picks:
                workloads.append(workload)
                weights.append(weight)
        scale = sum(weights)
        weights = [w / scale for w in weights]
        return WeightedSample(tuple(workloads), tuple(weights))

    def _row_strata(self, index) -> List[np.ndarray]:
        """Each stratum's row numbers in ``index``."""
        if self._rows is not None and index.same_rows(self._index):
            return self._rows
        return [index.rows(stratum) for stratum in self.strata]

    def plan(self, index, population: WorkloadPopulation):
        """Row-partition plan over the d(w)-derived strata.

        Merging for small sample sizes and slot allocation follow
        :meth:`sample` exactly; the strata become row-number lists and
        the returned :class:`StratifiedRowPlan` replays every draw's
        per-stratum ``rng.sample`` picks in batched NumPy ops (scalar
        reference kept as ``rows_matrix_scalar``; see its docstring).
        Strata built :meth:`from_column` over ``index`` are row numbers
        already and need no workload lookup.
        """
        if type(self).sample is not WorkloadStratification.sample:
            return None     # subclass changed the sampling behaviour
        rows = self._row_strata(index)
        sizes = [len(stratum) for stratum in rows]

        def layout(size: int) -> List[Tuple[List[int], int]]:
            if size < 1:
                raise ValueError("sample size must be >= 1")
            groups = _merged_groups(sizes, self._total, size)
            extra = largest_remainder_allocation(
                [float(sum(sizes[n] for n in group)) for group in groups],
                size - len(groups))
            # Every stratum keeps its one guaranteed slot, so no
            # stratum ever has zero picks here.
            return [(np.concatenate([rows[n] for n in group]).tolist(),
                     1 + e) for group, e in zip(groups, extra)]

        return StratifiedRowPlan(layout, self._total)
