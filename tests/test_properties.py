"""Property-based tests (hypothesis) on core invariants."""

import math
import random
import sys

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core.confidence import confidence_from_cv, required_sample_size
from repro.core.delta import delta_statistics
from repro.core.metrics import HSU, IPCT
from repro.core.population import WorkloadPopulation, population_size
from repro.core.sampling import (
    BalancedRandomSampling,
    SimpleRandomSampling,
    WorkloadStratification,
)
from repro.core.sampling.allocation import largest_remainder_allocation
from repro.core.workload import Workload
from repro.mem.cache import Cache, CacheConfig
from repro.mem.replacement import make_policy

names = st.sampled_from(["a", "b", "c", "d", "e"])


@given(st.lists(names, min_size=1, max_size=8))
def test_workload_canonicalisation(benchmarks):
    w = Workload(benchmarks)
    shuffled = list(benchmarks)
    random.Random(0).shuffle(shuffled)
    assert Workload(shuffled) == w
    assert w.benchmarks == tuple(sorted(benchmarks))
    assert Workload.from_key(w.key()) == w


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=5))
def test_population_size_matches_enumeration(b, k):
    pop = WorkloadPopulation([f"x{i}" for i in range(b)], k)
    assert len(pop) == population_size(b, k)
    occurrences = pop.benchmark_occurrences()
    assert len(set(occurrences.values())) == 1


@given(st.lists(st.floats(min_value=0.05, max_value=10.0),
                min_size=1, max_size=20))
def test_hmean_never_exceeds_amean(values):
    amean = IPCT.sample_throughput(values)
    hmean = HSU.sample_throughput(values)
    assert hmean <= amean + 1e-9


def _stays_normal(values):
    """True when no value, mean or squared deviation that
    ``delta_statistics`` computes from ``values`` is subnormal or
    underflows to zero."""
    mean = sum(values) / len(values)
    return all(x == 0.0 or abs(x) >= sys.float_info.min
               for x in [*values, mean]) \
        and all(d == 0.0 or d * d >= sys.float_info.min
                for d in (v - mean for v in values))


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2,
                max_size=50),
       st.floats(min_value=0.1, max_value=3.0))
def test_delta_statistics_scale_invariance(values, scale):
    """cv is invariant under positive scaling of d(w)."""
    base = delta_statistics(values)
    # A mean at cancellation scale (|sum| ~ eps * sum|v|) is pure
    # rounding noise; cv is then meaningless and not scale-stable.
    assume(abs(base.mean) > 1e-9 * max(abs(v) for v in values))
    scaled_values = [v * scale for v in values]
    # Scaling that underflows a value (or a squared deviation) loses
    # precision or flushes it to zero, so the property cannot hold;
    # test_delta_statistics_underflow_follows_the_zero_convention pins
    # what happens instead.
    assume(_stays_normal(values) and _stays_normal(scaled_values))
    scaled = delta_statistics(scaled_values)
    if not math.isinf(base.cv):
        assert scaled.cv == __import__("pytest").approx(base.cv, rel=1e-6)


def test_delta_statistics_underflow_follows_the_zero_convention():
    """Scaling the smallest subnormal d(w) by 0.5 rounds it to exact
    zeros: the statistics then follow the d == 0 convention (mean 0, cv
    inf, 1/cv 0) instead of scaling."""
    values = [5e-324, 5e-324]
    assert delta_statistics(values).cv == 0.0
    scaled = delta_statistics([v * 0.5 for v in values])
    assert scaled.mean == 0.0
    assert math.isinf(scaled.cv)
    assert scaled.inverse_cv == 0.0


@given(st.floats(min_value=0.05, max_value=50.0),
       st.integers(min_value=1, max_value=2000))
def test_confidence_bounds(cv, w):
    conf = confidence_from_cv(cv, w)
    assert 0.5 <= conf <= 1.0
    assert confidence_from_cv(-cv, w) == __import__("pytest").approx(
        1.0 - conf, abs=1e-9)


@given(st.floats(min_value=0.05, max_value=20.0))
def test_required_size_saturates_model(cv):
    w = required_sample_size(cv)
    assert confidence_from_cv(cv, w) >= 0.997


@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1,
                max_size=12),
       st.integers(min_value=0, max_value=100))
def test_allocation_conserves_total(shares, total):
    counts = largest_remainder_allocation(shares, total)
    assert sum(counts) == total
    assert all(c >= 0 for c in counts)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=9999))
def test_sampling_methods_weight_invariant(size, seed):
    population = WorkloadPopulation(["a", "b", "c", "d"], 2)
    rng = np.random.default_rng(seed)
    for method in (SimpleRandomSampling(), BalancedRandomSampling()):
        sample = method.sample(population, size, rng)
        assert len(sample) == size
        assert abs(sum(sample.weights) - 1.0) < 1e-9
        constant = sample.weighted_mean([7.5] * size)
        assert abs(constant - 7.5) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=9999))
def test_workload_stratification_unbiased_on_constants(size, seed):
    population = WorkloadPopulation(["a", "b", "c", "d", "e"], 2)
    rng = np.random.default_rng(seed)
    delta = {w: (i % 7) - 3.0 for i, w in enumerate(population)}
    method = WorkloadStratification(delta, min_stratum=3)
    sample = method.sample(population, size, rng)
    assert len(sample) == size
    assert abs(sum(sample.weights) - 1.0) < 1e-9
    assert abs(sample.weighted_mean([2.0] * size) - 2.0) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                max_size=300),
       st.sampled_from(["LRU", "FIFO", "RND", "DIP", "DRRIP", "NRU"]))
def test_cache_never_loses_track(line_indices, policy):
    """After any access sequence: the last line accessed is resident,
    and the number of resident lines never exceeds capacity."""
    config = CacheConfig(name="L", size_bytes=2048, ways=2)
    cache = Cache(config, make_policy(policy, config.num_sets, 2, seed=1))
    now = 0
    for index in line_indices:
        address = index * 64
        cache.access(address, now)
        now += 10
        assert cache.contains(address)
    assert cache.resident_lines() <= config.num_sets * config.ways
    total = cache.stats.demand_hits + cache.stats.demand_misses
    assert total == len(line_indices)
