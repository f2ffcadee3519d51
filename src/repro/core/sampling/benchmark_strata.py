"""Benchmark stratification (Section VI-B-1).

Common practice defines workloads from benchmark *classes* (e.g. the
Table IV MPKI classes).  The paper formalises it: with M classes, a
workload's stratum is the M-tuple (c_1, ..., c_M) of per-class
occurrence counts, sum(c_i) = K.  This yields L = C(M + K - 1, K)
strata of size

    N_h = prod_i C(b_i + c_i - 1, c_i)

where b_i is the number of benchmarks in class C_i.  Sampling draws
W_h workloads uniformly from each stratum (proportional allocation
here) and estimates throughput with the weighted mean of eq. (9).

Draws go through the shared :class:`StratifiedRowPlan`: the
bit-compatible MT replay by default, or the opt-in non-bit-compatible
fast path (:mod:`~repro.core.sampling.fastpath`) when the estimator
was built with ``fast_sampling=True``.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.population import WorkloadPopulation
from repro.core.sampling.allocation import largest_remainder_allocation
from repro.core.sampling.base import (
    SamplingMethod,
    StratifiedRowPlan,
    WeightedSample,
)
from repro.core.workload import Workload

#: A stratum signature: per-class occurrence counts, in class order.
StratumKey = Tuple[int, ...]


def stratum_size(class_sizes: Sequence[int], counts: StratumKey) -> int:
    """N_h: number of workloads with the given per-class counts."""
    if len(class_sizes) != len(counts):
        raise ValueError("one count per class required")
    size = 1
    for b, c in zip(class_sizes, counts):
        size *= math.comb(b + c - 1, c)
    return size


def benchmark_strata(class_names: Sequence[str], class_sizes: Sequence[int],
                     cores: int) -> Dict[StratumKey, int]:
    """All strata and their sizes for a classification.

    Returns a mapping from the (c_1, ..., c_M) tuple to N_h.  For the
    paper's 3 MPKI classes and 4 cores this yields the 15 strata listed
    in Section VI-B-1 ((004), (013), ..., (400)).
    """
    strata: Dict[StratumKey, int] = {}
    m = len(class_names)
    for split in itertools.combinations(range(cores + m - 1), m - 1):
        counts = []
        previous = -1
        for cut in split:
            counts.append(cut - previous - 1)
            previous = cut
        counts.append(cores + m - 2 - previous)
        key = tuple(counts)
        strata[key] = stratum_size(class_sizes, key)
    return strata


class BenchmarkStratification(SamplingMethod):
    """Stratified sampling over benchmark-class composition strata.

    Args:
        classes: mapping from benchmark name to class label (e.g. the
            Table IV MPKI classification).  Benchmarks of the target
            population that are missing from the mapping raise at
            sampling time.
    """

    name = "bench-strata"

    def __init__(self, classes: Mapping[str, str]) -> None:
        self.classes = dict(classes)

    def _class_members(self, population: WorkloadPopulation) -> Dict[str, List[str]]:
        members: Dict[str, List[str]] = {}
        for benchmark in population.benchmarks:
            try:
                label = self.classes[benchmark]
            except KeyError:
                raise ValueError(
                    f"benchmark {benchmark!r} has no class label") from None
            members.setdefault(label, []).append(benchmark)
        return members

    def stratum_key(self, workload: Workload,
                    labels: Sequence[str]) -> StratumKey:
        """Per-class occurrence counts of one workload."""
        counts = {label: 0 for label in labels}
        for benchmark in workload:
            counts[self.classes[benchmark]] += 1
        return tuple(counts[label] for label in labels)

    def sample(self, population: WorkloadPopulation, size: int,
               rng: random.Random) -> WeightedSample:
        """Draw W workloads, stratified by class composition.

        The strata partition the *population members*, so the method
        also works on non-exhaustive frames (e.g. the 250 detailed-
        simulated workloads of the paper's Fig. 7); on an exhaustive
        population the stratum sizes coincide with the analytical
        N_h = prod C(b_i + c_i - 1, c_i).
        """
        if size < 1:
            raise ValueError("sample size must be >= 1")
        members = self._class_members(population)
        labels = sorted(members)
        strata: Dict[StratumKey, List[Workload]] = {}
        for workload in population:
            strata.setdefault(
                self.stratum_key(workload, labels), []).append(workload)
        keys = sorted(strata)
        sizes = [len(strata[k]) for k in keys]
        total = sum(sizes)
        allocation = largest_remainder_allocation(
            [float(s) for s in sizes], size)
        workloads: List[Workload] = []
        weights: List[float] = []
        for key, n_h, w_h in zip(keys, sizes, allocation):
            if w_h == 0:
                continue
            weight = (n_h / total) / w_h
            if w_h <= n_h:
                picks = rng.sample(strata[key], w_h)
            else:
                picks = [strata[key][rng.randrange(n_h)] for _ in range(w_h)]
            for workload in picks:
                workloads.append(workload)
                weights.append(weight)
        # Renormalise: strata that received zero slots (only possible
        # when W < L) drop out of the estimate.
        scale = sum(weights)
        weights = [w / scale for w in weights]
        return WeightedSample(tuple(workloads), tuple(weights))

    def plan(self, index, population: WorkloadPopulation):
        """Row-partition plan: class-composition strata built once.

        The object path re-derives the strata on *every* draw (an O(N)
        scan); the plan pays that once, and the returned
        :class:`StratifiedRowPlan` replays the per-stratum random
        picks of all draws in batched NumPy ops (see its docstring for
        the vectorized-vs-scalar path contract).
        """
        if type(self).sample is not BenchmarkStratification.sample:
            return None     # subclass changed the sampling behaviour
        members = self._class_members(population)
        labels = sorted(members)
        strata: Dict[StratumKey, List[int]] = {}
        for row, workload in enumerate(index.workloads):
            strata.setdefault(
                self.stratum_key(workload, labels), []).append(row)
        keys = sorted(strata)
        rows = [strata[k] for k in keys]
        total = sum(len(r) for r in rows)

        def layout(size: int) -> List[Tuple[List[int], int]]:
            if size < 1:
                raise ValueError("sample size must be >= 1")
            allocation = largest_remainder_allocation(
                [float(len(r)) for r in rows], size)
            return [(r, w_h) for r, w_h in zip(rows, allocation) if w_h]

        return StratifiedRowPlan(layout, total)
