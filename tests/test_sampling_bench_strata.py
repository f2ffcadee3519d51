"""Benchmark stratification: strata structure of Section VI-B-1."""

import math

import numpy as np
import pytest

from repro.core.population import population_size
from repro.core.sampling import BenchmarkStratification
from repro.core.sampling.benchmark_strata import benchmark_strata, stratum_size


def test_paper_example_fifteen_strata():
    """3 MPKI classes on 4 cores -> C(3+4-1, 4) = 15 strata."""
    strata = benchmark_strata(["low", "med", "high"], [11, 5, 6], 4)
    assert len(strata) == 15
    assert (0, 0, 4) in strata
    assert (4, 0, 0) in strata
    assert (1, 1, 2) in strata


def test_strata_partition_the_population():
    """Sum of N_h over strata equals the population size."""
    class_sizes = [11, 5, 6]
    strata = benchmark_strata(["l", "m", "h"], class_sizes, 4)
    assert sum(strata.values()) == population_size(22, 4)


def test_stratum_size_formula():
    """N_h = prod C(b_i + c_i - 1, c_i)."""
    assert stratum_size([11, 5, 6], (2, 1, 1)) == \
        math.comb(12, 2) * math.comb(5, 1) * math.comb(6, 1)
    assert stratum_size([11, 5, 6], (0, 0, 4)) == math.comb(9, 4)


def test_counts_must_align_with_classes():
    with pytest.raises(ValueError):
        stratum_size([3, 3], (1, 1, 1))


def test_sampled_workloads_match_their_stratum(small_population):
    classes = {name: ("high" if name in ("mcf", "libquantum") else "low")
               for name in small_population.benchmarks}
    sampler = BenchmarkStratification(classes)
    sample = sampler.sample(small_population, 21, np.random.default_rng(0))
    high = {"mcf", "libquantum"}
    # Reconstruct observed strata and check all three compositions occur.
    compositions = {tuple(sorted(b in high for b in w))
                    for w in sample.workloads}
    assert len(compositions) == 3   # low-low, low-high, high-high


def test_missing_class_label_raises(small_population):
    sampler = BenchmarkStratification({"mcf": "high"})
    with pytest.raises(ValueError):
        sampler.sample(small_population, 5, np.random.default_rng(0))


def test_unbiased_weighted_mean_of_constant(small_population):
    """Weighted mean of a constant function must be that constant."""
    classes = {name: ("high" if name in ("mcf", "libquantum") else "low")
               for name in small_population.benchmarks}
    sampler = BenchmarkStratification(classes)
    sample = sampler.sample(small_population, 15, np.random.default_rng(5))
    assert sample.weighted_mean([3.0] * len(sample)) == pytest.approx(3.0)
