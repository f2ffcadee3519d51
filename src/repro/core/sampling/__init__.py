"""Workload sampling methods (Sections III and VI of the paper).

Four methods are compared in the paper, all available here behind the
:class:`SamplingMethod` interface:

- :class:`SimpleRandomSampling` -- uniform draws with replacement
  (Section III);
- :class:`BalancedRandomSampling` -- every benchmark occurs equally
  often across the sample (Section VI-A);
- :class:`BenchmarkStratification` -- strata from per-class occurrence
  counts, e.g. the Table IV MPKI classes (Section VI-B-1);
- :class:`WorkloadStratification` -- strata cut from the sorted d(w)
  values measured with a fast approximate simulator (Section VI-B-2).

Every method supplies a :class:`SamplingPlan`
(``method.plan(population)``) that draws whole batches of *row
numbers* of ``population.index`` with their weights; stratified
estimates of throughput use the weighted means of eq. (9) via those
weights.
``method.sample(population, size, rng)`` is one draw of the plan, as a
:class:`WeightedSample` of workloads.

Draws: every plan turns uniform blocks of one seeded
``numpy.random.Generator`` into rows -- ``floor(U * N)`` with
replacement (:func:`~repro.core.sampling.base.uniform_indices`),
Floyd's algorithm without replacement
(:func:`~repro.core.sampling.base.floyd_distinct`: one pass for every
round's candidate, then a duplicate test per round), and for balanced
sampling a stable argsort of uniform keys as each draw's shuffle,
drawn in chunks along the draw axis (see the README's "Draws"
section).  The estimators seed one generator per (seed, sample size)
point.
"""

from repro.core.sampling.base import (
    SamplingMethod,
    SamplingPlan,
    StratifiedRowPlan,
    WeightedSample,
)
from repro.core.sampling.simple import SimpleRandomSampling
from repro.core.sampling.balanced import BalancedRandomSampling
from repro.core.sampling.allocation import (
    largest_remainder_allocation,
    neyman_allocation,
)
from repro.core.sampling.benchmark_strata import (
    BenchmarkStratification,
    benchmark_strata,
    stratum_size,
)
from repro.core.sampling.workload_strata import (
    WorkloadStratification,
    build_workload_strata,
)

#: Display names used across experiments, in the paper's Fig. 6 order.
SAMPLING_METHODS = ("random", "bal-random", "bench-strata", "workload-strata")

__all__ = [
    "SamplingMethod",
    "SamplingPlan",
    "StratifiedRowPlan",
    "WeightedSample",
    "SimpleRandomSampling",
    "BalancedRandomSampling",
    "BenchmarkStratification",
    "WorkloadStratification",
    "benchmark_strata",
    "stratum_size",
    "build_workload_strata",
    "largest_remainder_allocation",
    "neyman_allocation",
    "SAMPLING_METHODS",
]
