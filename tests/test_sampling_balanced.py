"""Balanced random sampling: the Section VI-A occurrence guarantee."""

from collections import Counter

import numpy as np
import pytest

from repro.core.sampling import BalancedRandomSampling


def _occurrences(sample):
    counts = Counter()
    for workload in sample.workloads:
        counts.update(workload)
    return counts


def test_equal_occurrences_when_divisible(small_population):
    """W*K divisible by B: every benchmark occurs exactly W*K/B times."""
    b = len(small_population.benchmarks)      # 6 benchmarks, K = 2
    sampler = BalancedRandomSampling()
    sample = sampler.sample(small_population, 9, np.random.default_rng(0))  # 18 slots
    counts = _occurrences(sample)
    assert set(counts.values()) == {18 // b}
    assert set(counts) == set(small_population.benchmarks)


def test_near_equal_occurrences_otherwise(small_population):
    """Non-divisible case: occurrence counts differ by at most one."""
    sampler = BalancedRandomSampling()
    sample = sampler.sample(small_population, 10, np.random.default_rng(1))  # 20 slots
    counts = _occurrences(sample)
    values = set(counts.values())
    assert max(values) - min(values) <= 1


def test_balance_holds_for_four_cores(four_core_population):
    sampler = BalancedRandomSampling()
    sample = sampler.sample(four_core_population, 15, np.random.default_rng(2))  # 60/5
    counts = _occurrences(sample)
    assert set(counts.values()) == {12}


def test_samples_vary_across_draws(small_population):
    sampler = BalancedRandomSampling()
    rng = np.random.default_rng(3)
    a = sampler.sample(small_population, 10, rng)
    b = sampler.sample(small_population, 10, rng)
    assert list(a.workloads) != list(b.workloads)


def test_uniform_weights(small_population):
    sampler = BalancedRandomSampling()
    sample = sampler.sample(small_population, 5, np.random.default_rng(4))
    assert all(w == pytest.approx(0.2) for w in sample.weights)
