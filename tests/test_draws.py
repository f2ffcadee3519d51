"""The draw path: one seeded NumPy generator per (seed, sample size) point.

Plans turn ``Generator.random`` blocks into rows, so they are checked
at the distribution level, never bit for bit against another stream:

- structure is exact -- per-stratum slot counts and weights equal the
  layout (and the weights of the per-draw oracle below), and no draw
  repeats a row inside a stratum drawn without replacement;
- per-row inclusion frequencies lie within 6 sigma of their exact
  expectation over 20 000 draws;
- per-draw weighted means agree with the per-draw oracle (a
  two-sample Kolmogorov-Smirnov test at 1 500 draws).

Two rewrites are checked pick for pick on the same uniforms instead:
``floyd_distinct`` against its per-round loop (``_floyd_reference``),
and balanced sampling's draw-axis chunks against one block.

The oracle is the methods' historical per-draw ``sample()`` loops on
``random.Random``: ``randrange`` for simple random sampling,
``random.sample`` per stratum, and a ``shuffle`` of the balanced pool.

The stream itself is pinned once (``test_the_draw_stream_is_pinned``),
so a NumPy release that moves it fails one named test instead of every
golden.
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bench.spec import benchmark_names
from repro.core.columnar import DeltaColumn
from repro.core.estimator import ConfidenceEstimator, _draw_rows
from repro.core.metrics import _row_dot
from repro.core.population import WorkloadPopulation
from repro.core.sampling import (
    BalancedRandomSampling,
    BenchmarkStratification,
    SamplingPlan,
    SimpleRandomSampling,
    WeightedSample,
    WorkloadStratification,
    largest_remainder_allocation,
)
from repro.core.sampling import balanced
from repro.core.sampling.base import floyd_distinct, uniform_indices
from repro.core.sampling.workload_strata import _merged_groups
from repro.core.workload import Workload
from repro.serve.protocol import MAX_DRAWN_ROWS, MAX_SAMPLE_SIZE

DRAWS = 1500
INCLUSION_DRAWS = 20000


def _delta(population, offset=0.25, seed=9):
    rng = random.Random(seed)
    return {w: rng.gauss(offset, 1.0) for w in population}


def _classes(population):
    labels = ("low", "mid", "high")
    return {b: labels[i % 3] for i, b in enumerate(population.benchmarks)}


def _methods(population, delta):
    return [SimpleRandomSampling(), BalancedRandomSampling(),
            BenchmarkStratification(_classes(population)),
            WorkloadStratification(delta, min_stratum=5)]


# ----------------------------------------------------------------------
# The per-draw oracle: one draw at a time on ``random.Random``


def _stratified_draw(strata, size_of_frame, allocation, rng):
    """Per stratum, ``random.sample`` when it holds enough workloads,
    ``randrange`` picks otherwise; weights (N_h / N) / W_h renormalised
    left to right."""
    workloads, weights = [], []
    for stratum, w_h in zip(strata, allocation):
        if w_h == 0:
            continue
        n_h = len(stratum)
        if w_h <= n_h:
            picks = rng.sample(stratum, w_h)
        else:
            picks = [stratum[rng.randrange(n_h)] for _ in range(w_h)]
        workloads.extend(picks)
        weights.extend([(n_h / size_of_frame) / w_h] * w_h)
    scale = sum(weights)
    return WeightedSample(tuple(workloads),
                          tuple(w / scale for w in weights))


def _bench_strata(method, population):
    labels = sorted(set(method.classes[b] for b in population.benchmarks))
    strata = {}
    for workload in population:
        strata.setdefault(method.stratum_key(workload, labels),
                          []).append(workload)
    return [strata[key] for key in sorted(strata)]


def oracle_sample(method, population, size, rng):
    """One draw of ``method`` the historical way."""
    if isinstance(method, SimpleRandomSampling):
        return WeightedSample.uniform(
            [population[rng.randrange(len(population))]
             for _ in range(size)])
    if isinstance(method, BalancedRandomSampling):
        benchmarks = list(population.benchmarks)
        cores = population.cores
        base, extra = divmod(size * cores, len(benchmarks))
        pool = [name for name in benchmarks for _ in range(base)]
        if extra:
            pool.extend(rng.sample(benchmarks, extra))
        rng.shuffle(pool)
        return WeightedSample.uniform(
            [Workload(pool[i * cores:(i + 1) * cores])
             for i in range(size)])
    if isinstance(method, BenchmarkStratification):
        strata = _bench_strata(method, population)
        allocation = largest_remainder_allocation(
            [float(len(s)) for s in strata], size)
        return _stratified_draw(strata, len(population), allocation, rng)
    strata = method.strata
    total = sum(len(s) for s in strata)
    groups = _merged_groups([len(s) for s in strata], total, size)
    merged = [[w for number in group for w in strata[number]]
              for group in groups]
    extra = largest_remainder_allocation(
        [float(len(s)) for s in merged], size - len(merged))
    return _stratified_draw(merged, total, [1 + e for e in extra], rng)


# ----------------------------------------------------------------------
# Primitives


def test_uniform_indices_bounds_and_frequencies():
    picks = uniform_indices(np.random.default_rng(4).random((2000, 8)), 13)
    assert picks.min() >= 0 and picks.max() < 13
    counts = np.bincount(picks.ravel(), minlength=13)
    sigma = math.sqrt(picks.size * (1 / 13) * (12 / 13))
    assert np.all(np.abs(counts - picks.size / 13) < 6 * sigma)


def test_uniform_indices_clamps_unit_uniform():
    almost_one = np.array([[1.0 - 2 ** -53]])
    n = 2 ** 40                 # large enough that u * n rounds to n
    assert uniform_indices(almost_one, n)[0, 0] == n - 1


def test_floyd_distinct_is_distinct_and_in_range():
    gen = np.random.default_rng(7)
    for n, k in ((10, 3), (10, 10), (40, 12), (5, 1)):
        picks = floyd_distinct(gen.random((500, k)), n)
        assert picks.min() >= 0 and picks.max() < n
        for row in picks:
            assert len(set(row.tolist())) == k


def test_floyd_distinct_draws_uniform_subsets():
    """Every k-subset of range(n) appears with equal frequency."""
    n, k, rounds = 5, 2, 30000
    picks = np.sort(floyd_distinct(
        np.random.default_rng(21).random((rounds, k)), n), axis=1)
    counts = np.bincount(picks[:, 0] * n + picks[:, 1], minlength=n * n)
    subsets = counts[counts > 0]
    assert len(subsets) == math.comb(n, k)
    p = 1 / math.comb(n, k)
    sigma = math.sqrt(rounds * p * (1 - p))
    assert np.all(np.abs(subsets - rounds * p) < 6 * sigma)


def test_floyd_distinct_rejects_oversized_k():
    with pytest.raises(ValueError):
        floyd_distinct(np.zeros((1, 4)), 3)


def _floyd_reference(uniforms, n):
    """Floyd's algorithm one round at a time, each round's candidate
    computed and tested in its own pass, with the kernel's arithmetic."""
    k = uniforms.shape[1]
    picks = np.empty(uniforms.shape, dtype=np.int64)
    for t, i in enumerate(range(n - k, n)):
        j = np.minimum((uniforms[:, t] * (i + 1)).astype(np.int64), i)
        duplicate = (picks[:, :t] == j[:, None]).any(axis=1)
        picks[:, t] = np.where(duplicate, i, j)
    return picks


def _floyd_cases():
    """k in {1, 2, n - 1, n} for n from 1 to 10 660 (the FULL 4-core
    frame's largest stratum), draws in {1, 7, 1 000}; cases whose
    draws x k^2 duplicate tests exceed 10^9 (1 000 draws of 10 659 or
    10 660 picks) are left out."""
    for n in (1, 2, 3, 17, 316, 10660):
        for k in sorted({1, 2, n - 1, n} & set(range(n + 1))):
            for draws in (1, 7, 1000):
                if draws * k * k <= 1e9:
                    yield n, k, draws


@pytest.mark.parametrize("n, k, draws", list(_floyd_cases()))
def test_floyd_distinct_equals_the_per_round_reference(n, k, draws):
    uniforms = np.random.default_rng([n, k, draws]).random((draws, k))
    assert np.array_equal(floyd_distinct(uniforms, n),
                          _floyd_reference(uniforms, n))


def test_floyd_distinct_reads_a_column_slice_like_a_block():
    """A stratified plan hands each stratum a strided column span."""
    block = np.random.default_rng(3).random((1000, 120))
    span = block[:, 37:115]
    assert not span.flags.c_contiguous
    picks = floyd_distinct(span, 10506)
    assert np.array_equal(picks, _floyd_reference(span, 10506))
    assert np.array_equal(picks,
                          floyd_distinct(np.ascontiguousarray(span), 10506))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_floyd_distinct_equals_the_reference_on_any_uniforms(data):
    n = data.draw(st.integers(1, 2 ** 40), label="n")
    k = data.draw(st.integers(0, min(n, 24)), label="k")
    draws = data.draw(st.integers(0, 12), label="draws")
    uniforms = data.draw(hnp.arrays(
        np.float64, (draws, k),
        elements=st.floats(0.0, 1.0, exclude_max=True)), label="uniforms")
    assert np.array_equal(floyd_distinct(uniforms, n),
                          _floyd_reference(uniforms, n))


# ----------------------------------------------------------------------
# One generator per (seed, size) point


class _Recorder(SamplingPlan):
    """A plan that records the first uniforms of the generator it gets."""

    def rows_matrix(self, size, draws, rng):
        self.uniforms = rng.random(3).tolist()
        return np.zeros((draws, size), dtype=np.int64), np.full(size,
                                                                1 / size)


def _first_uniforms(seed, size):
    plan = _Recorder()
    _draw_rows(plan, size, 1, seed)
    return [u.hex() for u in plan.uniforms]


def test_the_draw_stream_is_pinned():
    """The generator's first uniforms, at two (seed, size) points."""
    assert _first_uniforms(0, 30) == [
        "0x1.0e9d84e57285cp-3", "0x1.8f01f3132bf05p-1",
        "0x1.619108297ba7ap-2"]
    assert _first_uniforms(-3, 100) == [
        "0x1.629e7890e099dp-1", "0x1.1f49a51d82278p-1",
        "0x1.917b50b7a5b7ep-1"]


def test_points_never_share_a_stream():
    # (seed << 16) ^ size gave seed 0 at W 65 537 seed 1 at W 1's stream.
    assert _first_uniforms(0, 65537) != _first_uniforms(1, 1)
    assert _first_uniforms(-1, 5) != _first_uniforms(2 ** 64 - 2, 5)
    assert _first_uniforms(-1, 5) == _first_uniforms(2 ** 64 - 1, 5)


# ----------------------------------------------------------------------
# Structure: exact layouts


def test_stratified_slots_and_weights_equal_the_layout(small_population):
    delta = _delta(small_population)
    for method in _methods(small_population, delta)[2:]:
        plan = method.plan(small_population)
        for size in (2, 6, 15, 40):
            strata, layout_weights = plan._layout_for(size)
            rows, weights = plan.rows_matrix(size, 300,
                                             np.random.default_rng(size))
            assert rows.shape == (300, size)
            assert np.array_equal(weights, layout_weights)
            oracle = oracle_sample(method, small_population, size,
                                   random.Random(size))
            assert weights.tolist() == list(oracle.weights), method.name
            column = 0
            for stratum_rows, w_h in strata:
                span = rows[:, column:column + w_h]
                assert np.isin(span, stratum_rows).all()
                if w_h <= len(stratum_rows):
                    # Without replacement: no row twice in one draw.
                    ordered = np.sort(span, axis=1)
                    assert (np.diff(ordered, axis=1) != 0).all()
                column += w_h
            assert column == size


def test_balanced_draws_equalize_benchmark_occurrences(
        four_core_population):
    """Per draw, every benchmark fills base or base + 1 slots, up to
    64 slots a draw."""
    population = four_core_population
    plan = BalancedRandomSampling().plan(population)
    b = len(population.benchmarks)
    for size in (3, 10, 16):
        slots = size * population.cores
        rows, weights = plan.rows_matrix(size, 400,
                                         np.random.default_rng(5))
        assert rows.shape == (400, size)
        assert np.array_equal(weights, np.full(size, 1.0 / size))
        codes = population.index.codes[rows].reshape(400, slots)
        base, extra = divmod(slots, b)
        for draw in codes:
            occurrences = np.bincount(draw, minlength=b)
            assert occurrences.min() >= base
            assert occurrences.max() <= base + 1
            assert int((occurrences == base + 1).sum()) == extra


#: Rows of the first two balanced draws at seed 0, per (population, W):
#: the 5-benchmark 4-core fixture (a whole number of pools, no extra
#: slots) and the 22-benchmark one (Floyd's extra slots in every draw).
BALANCED_ROWS = {
    ("five", 5): [[41, 2, 26, 42, 68], [23, 52, 47, 29, 6]],
    ("five", 30): [
        [26, 63, 39, 49, 28, 50, 41, 43, 47, 59, 34, 29, 7, 47, 48, 43, 17,
         7, 15, 13, 33, 33, 6, 21, 4, 29, 25, 51, 32, 20],
        [11, 29, 63, 41, 21, 32, 42, 50, 12, 29, 6, 47, 29, 41, 37, 12, 26,
         23, 20, 39, 63, 63, 49, 3, 7, 49, 49, 24, 6, 49]],
    ("suite", 5): [[1043, 10721, 10004, 3491, 4390],
                   [11028, 7220, 8064, 2280, 11601]],
    ("suite", 30): [
        [5026, 10966, 4889, 6902, 3535, 10708, 6883, 5568, 7510, 9238,
         12500, 11481, 9109, 8312, 11743, 7005, 1922, 4084, 2314, 1079,
         1999, 3697, 2581, 6151, 347, 10427, 3285, 6518, 1836, 4594],
        [1248, 12426, 10504, 5377, 3216, 12367, 11364, 2746, 5308, 12055,
         1622, 2883, 4609, 9202, 2484, 7454, 8175, 4490, 1257, 6137, 3164,
         10194, 10823, 6406, 283, 10089, 8055, 5143, 545, 7213]],
}


@pytest.mark.parametrize("frame,size", sorted(BALANCED_ROWS))
def test_balanced_draw_rows_are_pinned(four_core_population, frame, size):
    """A constructed workload's row is found by its rank: the same rows
    the draws have always had."""
    population = (four_core_population if frame == "five"
                  else WorkloadPopulation(benchmark_names(), 4))
    rows, weights = _draw_rows(BalancedRandomSampling().plan(population),
                               size, 2, 0)
    assert rows.tolist() == BALANCED_ROWS[frame, size]
    assert np.array_equal(weights, np.full(size, 1.0 / size))


@pytest.mark.parametrize("chunk_uniforms", [1, 3 * 28])
def test_balanced_chunks_continue_one_stream(four_core_population,
                                             monkeypatch, chunk_uniforms):
    """Draw-axis chunks (one draw each, or three with an uneven last
    chunk) give the rows of one uniform block."""
    population = four_core_population
    plan = BalancedRandomSampling().plan(population)
    size, draws = 6, 10
    slots = size * population.cores
    # 24 slots over 5 benchmarks: 4 extra, so every chunk runs Floyd.
    assert divmod(slots, len(population.benchmarks))[1] + slots == 28
    assert draws * 28 <= balanced.DRAW_CHUNK_UNIFORMS
    expected, _ = plan.rows_matrix(size, draws, np.random.default_rng(8))
    monkeypatch.setattr(balanced, "DRAW_CHUNK_UNIFORMS", chunk_uniforms)
    rows, _ = plan.rows_matrix(size, draws, np.random.default_rng(8))
    assert np.array_equal(rows, expected)


def test_one_draw_sample_is_row_zero_of_the_plan(small_population):
    delta = _delta(small_population)
    index = small_population.index
    for method in _methods(small_population, delta):
        sample = method.sample(small_population, 7,
                               np.random.default_rng(11))
        rows, weights = method.plan(small_population).rows_matrix(
            7, 1, np.random.default_rng(11))
        assert list(sample.workloads) == [index.workloads[r]
                                          for r in rows[0]]
        assert list(sample.weights) == weights.tolist()


# ----------------------------------------------------------------------
# Distribution: inclusion frequencies and the per-draw oracle


def _balanced_expectation(population, size):
    """E[occurrences of each row in one balanced draw], exactly."""
    b, cores = len(population.benchmarks), population.cores
    slots = size * cores
    base, extra = divmod(slots, b)
    subsets = list(itertools.combinations(range(b), extra))
    expected = np.zeros(len(population))
    for row, codes in enumerate(population.index.codes.tolist()):
        multiplicity = np.bincount(codes, minlength=b)
        total = 0
        for subset in subsets:
            pool = np.full(b, base)
            pool[list(subset)] += 1
            total += math.prod(math.comb(int(c), int(m))
                               for c, m in zip(pool, multiplicity))
        # One workload of the draw is this multiset with probability
        # prod C(c_b, m_b) / C(slots, cores); a draw cuts size of them.
        expected[row] = size * total / len(subsets) / math.comb(slots, cores)
    return expected


def _expected_inclusions(method, plan, population, size):
    if isinstance(method, SimpleRandomSampling):
        return np.full(len(population), size / len(population))
    if isinstance(method, BalancedRandomSampling):
        return _balanced_expectation(population, size)
    expected = np.zeros(len(population))
    for rows, w_h in plan._layout_for(size)[0]:
        expected[rows] = w_h / len(rows)
    return expected


@pytest.mark.parametrize("size", [3, 8, 30])
def test_inclusion_frequencies_within_six_sigma(small_population, size):
    delta = _delta(small_population)
    n = len(small_population)
    for method in _methods(small_population, delta):
        plan = method.plan(small_population)
        rows, _ = plan.rows_matrix(size, INCLUSION_DRAWS,
                                   np.random.default_rng(size + 1))
        per_draw = np.zeros((INCLUSION_DRAWS, n))
        np.add.at(per_draw, (np.arange(INCLUSION_DRAWS)[:, None], rows), 1)
        expected = _expected_inclusions(method, plan, small_population,
                                        size)
        assert expected.sum() == pytest.approx(size)
        observed = per_draw.sum(axis=0)
        # The per-draw count's variance, estimated from the draws.
        sigma = np.sqrt(INCLUSION_DRAWS * per_draw.var(axis=0))
        never = expected == 0
        assert (observed[never] == 0).all(), method.name
        # A row every draw includes has no variance and no deviation.
        deviation = np.abs(observed - INCLUSION_DRAWS * expected)[~never]
        assert (deviation <= 6 * sigma[~never]).all(), method.name


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.mark.parametrize("size", [4, 6, 12])
def test_weighted_means_agree_with_the_per_draw_oracle(small_population,
                                                       size):
    """KS at alpha = 0.001 between the plan's and the oracle's draws."""
    delta = _delta(small_population)
    values = np.array([delta[w] for w in small_population.index.workloads])
    critical = 1.95 * math.sqrt(2.0 / DRAWS)
    for method in _methods(small_population, delta):
        plan = method.plan(small_population)
        rows, weights = _draw_rows(plan, size, DRAWS, 3)
        planned = _row_dot(values[rows], weights)
        rng = random.Random(3)
        looped = []
        for _ in range(DRAWS):
            sample = oracle_sample(method, small_population, size, rng)
            looped.append(sample.weighted_mean(
                [delta[w] for w in sample.workloads]))
        assert _ks_statistic(planned, np.array(looped)) < critical, \
            method.name


# ----------------------------------------------------------------------
# A request at the served bounds


def test_a_request_at_the_served_bounds_stays_under_128_mib():
    """W = MAX_SAMPLE_SIZE at MAX_DRAWN_ROWS drawn rows on a 4-core
    frame of 22 benchmarks (12 650 rows), strata cut by the session's
    own W_T rule (frame / 40 = 316)."""
    population = WorkloadPopulation(benchmark_names(), 4)
    assert len(population) == 12650
    delta = DeltaColumn(population.index, np.random.default_rng(
        31).normal(0.0, 1.0, len(population)))
    draws = MAX_DRAWN_ROWS // MAX_SAMPLE_SIZE
    estimator = ConfidenceEstimator(population, delta, draws=draws)
    stratifier = WorkloadStratification.from_column(delta, min_stratum=316)
    assert stratifier.num_strata > 10
    tracemalloc.start()
    try:
        for method in (SimpleRandomSampling(), stratifier):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            curve = estimator.curve(method, (MAX_SAMPLE_SIZE,), seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < 128 << 20, (method.name, peak)
            assert 0.0 <= curve.confidence[0] <= 1.0
    finally:
        tracemalloc.stop()


def test_balanced_sampling_at_the_served_bounds_stays_under_128_mib():
    """Balanced draws at W = MAX_SAMPLE_SIZE and MAX_DRAWN_ROWS drawn
    rows on the exhaustive 22-benchmark 4-core frame: 4 018 uniforms a
    draw, so the draws go in chunks of 260 (held as one block they
    peaked at ≈ 305 MiB traced)."""
    population = WorkloadPopulation(benchmark_names(), 4)
    delta = DeltaColumn(population.index, np.random.default_rng(
        31).normal(0.0, 1.0, len(population)))
    draws = MAX_DRAWN_ROWS // MAX_SAMPLE_SIZE
    estimator = ConfidenceEstimator(population, delta, draws=draws)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve = estimator.curve(BalancedRandomSampling(), (MAX_SAMPLE_SIZE,),
                                seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20, peak
    assert 0.0 <= curve.confidence[0] <= 1.0
