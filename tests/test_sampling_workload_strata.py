"""Workload stratification: the Section VI-B-2 algorithm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.population import WorkloadPopulation
from repro.core.sampling import WorkloadStratification, build_workload_strata
from repro.core.sampling.workload_strata import (
    _stratum_ranges,
    _variance_limit,
)


def _delta_for(population, spread=1.0):
    """A deterministic, heterogeneous d(w) table."""
    return {w: spread * ((i * 7) % 13 - 6) / 13.0
            for i, w in enumerate(population)}


def test_strata_are_contiguous_in_delta(small_population):
    delta = _delta_for(small_population)
    strata = build_workload_strata(delta, min_stratum=4)
    previous_max = None
    for stratum in strata:
        values = sorted(delta[w] for w in stratum)
        if previous_max is not None:
            assert values[0] >= previous_max
        previous_max = values[-1]


def test_strata_partition_population(small_population):
    delta = _delta_for(small_population)
    strata = build_workload_strata(delta, min_stratum=4)
    flattened = [w for stratum in strata for w in stratum]
    assert sorted(flattened) == sorted(small_population)


def test_min_stratum_respected(small_population):
    delta = _delta_for(small_population)
    strata = build_workload_strata(delta, min_stratum=5)
    # All strata but possibly the last satisfy the minimum size.
    for stratum in strata[:-1]:
        assert len(stratum) >= 5


def test_constant_delta_yields_single_stratum(small_population):
    delta = {w: 0.5 for w in small_population}
    strata = build_workload_strata(delta, min_stratum=3)
    assert len(strata) == 1


def test_tighter_threshold_more_strata(small_population):
    delta = _delta_for(small_population)
    few = build_workload_strata(delta, min_stratum=2, sd_threshold=10.0)
    many = build_workload_strata(delta, min_stratum=2, sd_threshold=1e-6)
    assert len(many) >= len(few)


def test_empty_delta_rejected():
    with pytest.raises(ValueError):
        build_workload_strata({})


def test_bad_min_stratum_rejected(small_population):
    with pytest.raises(ValueError):
        build_workload_strata(_delta_for(small_population), min_stratum=0)


def test_sampling_covers_all_strata_when_possible(small_population):
    delta = _delta_for(small_population)
    sampler = WorkloadStratification(delta, min_stratum=4)
    size = max(sampler.num_strata, 6)
    sample = sampler.sample(small_population, size, np.random.default_rng(0))
    sampled = set(sample.workloads)
    for stratum in sampler.strata:
        assert sampled & set(stratum), "a stratum was left unsampled"


def test_small_samples_merge_strata_without_bias(small_population):
    """W < L must not drop d(w) tails (merged, not omitted)."""
    delta = _delta_for(small_population)
    sampler = WorkloadStratification(delta, min_stratum=2,
                                     sd_threshold=1e-9)
    assert sampler.num_strata > 3
    sample = sampler.sample(small_population, 3, np.random.default_rng(1))
    assert len(sample) == 3
    assert sum(sample.weights) == pytest.approx(1.0)
    # The weighted mean of a constant stays unbiased under merging.
    assert sample.weighted_mean([2.5] * 3) == pytest.approx(2.5)


def test_stratified_estimate_beats_random_on_structured_delta():
    """The point of the method: lower estimator variance than random.

    Build a population whose d(w) has two well-separated modes; the
    stratified estimator of the mean should have far smaller variance
    than simple random sampling at equal W.
    """
    from repro.core.sampling import SimpleRandomSampling

    names = [f"b{i}" for i in range(8)]
    population = WorkloadPopulation(names, 2)   # 36 workloads
    delta = {w: (1.0 if i % 2 else -0.8) + 0.01 * i
             for i, w in enumerate(population)}
    strat = WorkloadStratification(delta, min_stratum=3)
    simple = SimpleRandomSampling()
    rng = np.random.default_rng(2)

    def estimates(method, draws=300, size=8):
        values = []
        for _ in range(draws):
            sample = method.sample(population, size, rng)
            values.append(sample.weighted_mean(
                [delta[w] for w in sample.workloads]))
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, var

    _, var_strat = estimates(strat)
    _, var_simple = estimates(simple)
    assert var_strat < var_simple / 2


# ----------------------------------------------------------------------
# The stratum scan tests the variance, not the standard deviation


def _reference_ranges(ordered_values, min_stratum, sd_threshold):
    """The scan with a square root per row: the decision to reproduce."""
    ranges = []
    start = 0
    mean = 0.0
    m2 = 0.0
    for i, value in enumerate(ordered_values):
        n = i - start + 1
        diff = value - mean
        mean += diff / n
        m2 += diff * (value - mean)
        std = math.sqrt(m2 / n)
        if n >= min_stratum and std > sd_threshold:
            ranges.append(range(start, i + 1))
            start = i + 1
            mean = 0.0
            m2 = 0.0
    if start < len(ordered_values):
        ranges.append(range(start, len(ordered_values)))
    return ranges


def _unbroken_stds(ordered_values):
    """Every row's running standard deviation of one uncut scan."""
    stds = []
    mean = 0.0
    m2 = 0.0
    for n, value in enumerate(ordered_values, start=1):
        diff = value - mean
        mean += diff / n
        m2 += diff * (value - mean)
        stds.append(math.sqrt(m2 / n))
    return stds


_COLUMNS = st.one_of(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
    st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
             min_size=1, max_size=300),
    st.lists(st.integers(-300, 300).map(lambda k: k / 100.0),
             min_size=1, max_size=300),
)

_SPECIAL_THRESHOLDS = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0,
                       5e-324, 1e-200, 1e200)


@settings(max_examples=300, deadline=None)
@given(values=_COLUMNS, data=st.data())
def test_variance_scan_matches_the_square_root_scan(values, data):
    values = sorted(values)
    min_stratum = data.draw(st.sampled_from(
        [1, 2, 50, max(1, len(values) // 40)]))
    stds = _unbroken_stds(values)
    # Thresholds on the exact boundary (a standard deviation the scan
    # computes) and one ULP either side are where a rounding slip shows.
    boundary = data.draw(st.sampled_from(stds))
    threshold = data.draw(st.one_of(
        st.sampled_from(_SPECIAL_THRESHOLDS),
        st.floats(0.0, 1e3),
        st.sampled_from([boundary, math.nextafter(boundary, -math.inf),
                         math.nextafter(boundary, math.inf)])))
    assert (_stratum_ranges(values, min_stratum, threshold)
            == _reference_ranges(values, min_stratum, threshold))


@settings(max_examples=300, deadline=None)
@given(threshold=st.floats(0.0, allow_infinity=False))
def test_variance_limit_is_the_largest_variance_at_or_under_it(threshold):
    limit = _variance_limit(threshold)
    assert math.sqrt(limit) <= threshold
    assert math.sqrt(math.nextafter(limit, math.inf)) > threshold


def test_variance_limit_special_thresholds():
    assert math.isnan(_variance_limit(math.nan))
    assert _variance_limit(math.inf) == math.inf
    assert _variance_limit(-math.inf) == -math.inf
    assert _variance_limit(-1.0) == -math.inf
    assert _variance_limit(-0.0) == 0.0
    assert _variance_limit(1e200) == math.nextafter(math.inf, 0.0)
