"""Sampling methods: interface invariants shared by all four."""

import numpy as np
import pytest

from repro.core.sampling import (
    BalancedRandomSampling,
    BenchmarkStratification,
    SimpleRandomSampling,
    WeightedSample,
    WorkloadStratification,
)
from repro.core.workload import Workload


def _all_methods(population):
    classes = {name: ("high" if name in ("mcf", "libquantum") else "low")
               for name in population.benchmarks}
    delta = {w: i * 0.01 - 0.05 for i, w in enumerate(population)}
    return [
        SimpleRandomSampling(),
        BalancedRandomSampling(),
        BenchmarkStratification(classes),
        WorkloadStratification(delta, min_stratum=3),
    ]


def test_weights_sum_to_one(small_population):
    rng = np.random.default_rng(0)
    for method in _all_methods(small_population):
        sample = method.sample(small_population, 12, rng)
        assert sum(sample.weights) == pytest.approx(1.0), method.name


def test_sample_size_respected(small_population):
    rng = np.random.default_rng(1)
    for method in _all_methods(small_population):
        for size in (1, 5, 12, 30):
            sample = method.sample(small_population, size, rng)
            assert len(sample) == size, (method.name, size)


def test_workloads_have_population_arity(small_population):
    rng = np.random.default_rng(2)
    for method in _all_methods(small_population):
        sample = method.sample(small_population, 8, rng)
        for workload in sample.workloads:
            assert workload.k == small_population.cores
            assert set(workload) <= set(small_population.benchmarks)


def test_rejects_empty_sample(small_population):
    rng = np.random.default_rng(3)
    for method in _all_methods(small_population):
        with pytest.raises(ValueError):
            method.sample(small_population, 0, rng)


def test_seeded_sampling_is_reproducible(small_population):
    for method in _all_methods(small_population):
        a = method.sample(small_population, 10, np.random.default_rng(42))
        b = method.sample(small_population, 10, np.random.default_rng(42))
        assert list(a.workloads) == list(b.workloads), method.name


def test_weighted_sample_validation():
    w = Workload(["a", "b"])
    with pytest.raises(ValueError):
        WeightedSample([w], [0.5])          # weights must sum to 1
    with pytest.raises(ValueError):
        WeightedSample([w], [0.5, 0.5])     # one weight per workload
    with pytest.raises(ValueError):
        WeightedSample([], [])


def test_weighted_mean():
    sample = WeightedSample(
        (Workload(["a"]), Workload(["b"])), (0.25, 0.75))
    assert sample.weighted_mean([4.0, 0.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sample.weighted_mean([1.0])


def test_uniform_constructor():
    sample = WeightedSample.uniform([Workload(["a"]), Workload(["b"])])
    assert sample.weights == (0.5, 0.5)
