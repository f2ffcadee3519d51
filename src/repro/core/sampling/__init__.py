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

Every method returns a :class:`WeightedSample`; stratified estimates of
throughput use the weighted means of eq. (9) via the sample's weights.
For the columnar estimator, each method also offers a
:class:`SamplingPlan` (``method.plan(index, population)``) that draws
whole batches of *row numbers* -- bit-identical to ``sample`` for the
same seeded generator.

Draw paths, per plan (see the README's "Sampling internals" section):

- :class:`SimpleRandomSampling` -- fully vectorized: uniform draws are
  consecutive ``_randbelow`` outputs, read in bulk off the generator's
  word stream (:class:`~repro.core.sampling.mtstream.MTStream`), which
  then advances the generator past exactly the words they consumed.
- :class:`BenchmarkStratification` / :class:`WorkloadStratification`
  -- fully vectorized via the shared :class:`StratifiedRowPlan`: the
  per-stratum ``random.sample``/``randrange`` calls are replayed by
  :func:`~repro.core.sampling.mtstream.replay_schedule` (both CPython
  sample algorithms, the ``setsize`` crossover included); the scalar
  per-draw loop survives as ``rows_matrix_scalar``, the golden-parity
  reference and automatic fallback.
- :class:`BalancedRandomSampling` -- vectorized for small samples
  (every Fisher-Yates shuffle position is its own replay step, so the
  replay scales with slots^2 and samples beyond ``VECTOR_SLOT_LIMIT``
  slots take the scalar pool loop); row mapping is always vectorized.

Third-party :class:`SamplingMethod` subclasses that only implement
``sample`` transparently fall back to the estimator's scalar loop.
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
