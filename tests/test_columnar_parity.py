"""Golden scalar <-> columnar parity: bit-for-bit, same seeds.

The columnar layer promises that vectorizing never changes a result:
same d(w) values, same throughputs, and -- over the rows a plan draws
-- the same Monte-Carlo confidence and speedup accuracy as reducing
each draw on its own, for every metric family (A/H/G means) and every
sampling method.  These tests compare the array paths against
pure-Python per-item loops with ``==`` -- no tolerances.
"""

import random

import numpy as np
import pytest

from repro.bench.spec import benchmark_names
from repro.core.columnar import (
    DeltaColumn,
    IpcMatrix,
    delta_column_from_matrices,
    throughputs,
)
from repro.core.delta import DeltaVariable, delta_statistics
from repro.core.estimator import ConfidenceEstimator, _draw_rows
from repro.core.metrics import GMS, HSU, IPCT, WSU
from repro.core.population import WorkloadPopulation
from repro.core.sampling import (
    BalancedRandomSampling,
    BenchmarkStratification,
    SimpleRandomSampling,
    WeightedSample,
    WorkloadStratification,
)
from repro.core.speedup_accuracy import SpeedupAccuracyEvaluator

from tests.conftest import ipc_matrix

ALL_METRICS = (IPCT, WSU, HSU, GMS)


@pytest.fixture(scope="module")
def population():
    """Three cores over 8 benchmarks: C(10, 3) = 120 workloads."""
    return WorkloadPopulation(benchmark_names()[:8], 3)


@pytest.fixture(scope="module")
def tables(population):
    rng = random.Random(17)
    x = {w: [0.4 + rng.random() for _ in range(w.k)] for w in population}
    y = {w: [0.4 + rng.random() for _ in range(w.k)] for w in population}
    reference = {b: 0.7 + rng.random() for b in population.benchmarks}
    return x, y, reference


@pytest.fixture(scope="module")
def index(population):
    return population.index


def _column(variable, index, x, y):
    """d(w) over ``index`` through the matrix path."""
    return delta_column_from_matrices(variable, ipc_matrix(index, x),
                                      ipc_matrix(index, y))


def _classes(population):
    labels = ("low", "mid", "high")
    return {b: labels[i % 3] for i, b in enumerate(population.benchmarks)}


def _methods(population, delta_mapping):
    return [
        SimpleRandomSampling(),
        BalancedRandomSampling(),
        BenchmarkStratification(_classes(population)),
        WorkloadStratification(delta_mapping, min_stratum=8),
    ]


def _samples(method, population, size, draws, seed):
    """The estimators' draws for one point, one WeightedSample each."""
    rows, weights = _draw_rows(method.plan(population), size, draws, seed)
    workloads = population.workloads
    return [WeightedSample(tuple(workloads[row] for row in draw),
                           tuple(weights.tolist()))
            for draw in rows.tolist()]


def _per_draw_confidence(estimator, method, size, seed):
    """The confidence as a per-draw loop over the same samples."""
    delta = estimator.column.as_mapping()
    wins = 0
    for sample in _samples(method, estimator.population,
                           size, estimator.draws, seed):
        if sample.weighted_mean([delta[w] for w in sample.workloads]) > 0.0:
            wins += 1
    return wins / estimator.draws


# ----------------------------------------------------------------------
# Metric / delta parity

@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
def test_throughputs_bit_identical(metric, population, tables, index):
    x, _, reference = tables
    matrix = ipc_matrix(index, x)
    vector = throughputs(metric, matrix, reference)
    for i, w in enumerate(index.workloads):
        scalar = metric.workload_throughput(x[w], w.benchmarks, reference)
        assert vector[i] == scalar


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
def test_delta_column_bit_identical(metric, population, tables, index):
    x, y, reference = tables
    variable = DeltaVariable(metric, reference)
    legacy = variable.table(list(population), x, y)
    column = _column(variable, index, x, y)
    for i, w in enumerate(index.workloads):
        assert column.values[i] == legacy[w]


@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("weighted", (False, True))
def test_sample_throughputs_bit_identical(metric, weighted, tables):
    rng = random.Random(23)
    batch = np.array([[0.3 + rng.random() for _ in range(9)]
                      for _ in range(40)])
    if weighted:
        raw = [rng.random() for _ in range(9)]
        total = sum(raw)
        weights = [v / total for v in raw]
        rows = metric.sample_throughputs(batch, np.array(weights))
    else:
        weights = None
        rows = metric.sample_throughputs(batch)
    for i, row in enumerate(batch.tolist()):
        assert rows[i] == metric.sample_throughput(row, weights)


def test_delta_statistics_array_close(tables, population, index):
    x, y, reference = tables
    variable = DeltaVariable(WSU, reference)
    column = _column(variable, index, x, y)
    scalar = delta_statistics(list(variable.table(list(population),
                                                  x, y).values()))
    vector = delta_statistics(column.values)
    assert vector.mean == pytest.approx(scalar.mean, rel=1e-12)
    assert vector.std == pytest.approx(scalar.std, rel=1e-12)


# ----------------------------------------------------------------------
# Estimator parity: every metric family x every sampling method

@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
def test_confidence_bit_identical_per_metric(metric, population, tables,
                                             index):
    x, y, reference = tables
    variable = DeltaVariable(metric, reference)
    column = _column(variable, index, x, y)
    estimator = ConfidenceEstimator(population, column, draws=150)
    mapping = column.as_mapping()
    for method in _methods(population, mapping):
        for size in (5, 17, 40):
            fast = estimator.confidence(method, size, seed=3)
            slow = _per_draw_confidence(estimator, method, size, seed=3)
            assert fast == slow, (metric.name, method.name, size)


@pytest.mark.parametrize("seed", (0, 1, 11))
def test_confidence_bit_identical_across_seeds(seed, population, index):
    rng = random.Random(5)
    delta = {w: rng.gauss(0.05, 1.0) for w in population}
    estimator = ConfidenceEstimator(population, delta, draws=200)
    for method in _methods(population, delta):
        for size in (3, 30, 75):
            assert estimator.confidence(method, size, seed=seed) == \
                _per_draw_confidence(estimator, method, size, seed=seed)


def test_curve_bit_identical(population, index):
    rng = random.Random(8)
    delta = {w: rng.gauss(0.1, 0.8) for w in population}
    estimator = ConfidenceEstimator(population, delta, draws=120)
    method = WorkloadStratification(delta, min_stratum=6)
    sizes = (4, 12, 36)
    fast = estimator.curve(method, sizes, seed=2)
    slow = tuple(_per_draw_confidence(estimator, method, s, seed=2)
                 for s in sizes)
    assert fast.confidence == slow


def test_plan_cache_not_confused_by_id_reuse(population, index):
    """A new method at a recycled id() must not get the old plan."""
    rng = random.Random(4)
    delta = {w: rng.gauss(0.2, 1.0) for w in population}
    estimator = ConfidenceEstimator(population, delta, draws=100)
    classes_a = _classes(population)
    labels = sorted(set(classes_a.values()))
    # A second classification with a very different shape.
    classes_b = {b: labels[0] if i else labels[1]
                 for i, b in enumerate(population.benchmarks)}
    expected = []
    for classes in (classes_a, classes_b):
        method = BenchmarkStratification(classes)
        fresh = ConfidenceEstimator(population, delta, draws=100)
        expected.append(fresh.confidence(method, 12, seed=5))
        del method                 # frees the id for reuse
    got = []
    for classes in (classes_a, classes_b):
        method = BenchmarkStratification(classes)
        got.append(estimator.confidence(method, 12, seed=5))
        del method
    assert got == expected


def test_sample_sizes_exceeding_strata_counts(population, index):
    """w_h > n_h picks (with replacement inside a stratum) also agree."""
    rng = random.Random(13)
    delta = {w: rng.gauss(0.0, 1.0) for w in population}
    estimator = ConfidenceEstimator(population, delta, draws=80)
    method = WorkloadStratification(delta, min_stratum=60)  # few strata
    size = len(population) + 30      # forces replacement in some strata
    assert estimator.confidence(method, size, seed=1) == \
        _per_draw_confidence(estimator, method, size, seed=1)


# ----------------------------------------------------------------------
# Stratification parity

def test_from_column_builds_identical_strata(population, tables, index):
    x, y, reference = tables
    variable = DeltaVariable(IPCT, reference)
    mapping = variable.table(list(population), x, y)
    column = _column(variable, index, x, y)
    legacy = WorkloadStratification(mapping, min_stratum=7)
    columnar = WorkloadStratification.from_column(column, min_stratum=7)
    assert columnar.strata == legacy.strata
    assert columnar.num_strata == legacy.num_strata


# ----------------------------------------------------------------------
# Speedup-accuracy parity

@pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
def test_speedup_accuracy_bit_identical(metric, population, tables, index):
    x, y, reference = tables
    evaluator = SpeedupAccuracyEvaluator(
        population, ipc_matrix(index, x), ipc_matrix(index, y), metric,
        reference, draws=120)
    rng = random.Random(2)
    delta = {w: rng.gauss(0.0, 1.0) for w in population}
    tx = {w: metric.workload_throughput(x[w], w.benchmarks, reference)
          for w in population}
    ty = {w: metric.workload_throughput(y[w], w.benchmarks, reference)
          for w in population}
    true_speedup = (metric.sample_throughput([ty[w] for w in population])
                    / metric.sample_throughput([tx[w] for w in population]))
    for method in _methods(population, delta):
        fast = evaluator.evaluate(method, 14, epsilon=0.02, seed=4)
        errors = []
        for sample in _samples(method, population, 14, 120, 4):
            sample_x = metric.sample_throughput(
                [tx[w] for w in sample.workloads], sample.weights)
            sample_y = metric.sample_throughput(
                [ty[w] for w in sample.workloads], sample.weights)
            errors.append(abs(sample_y / sample_x - true_speedup)
                          / true_speedup)
        assert fast.true_speedup == true_speedup
        assert fast.hit_rate == sum(e <= 0.02 for e in errors) / 120, \
            method.name
        assert fast.mean_abs_error == pytest.approx(
            sum(errors) / len(errors), rel=1e-12)


# ----------------------------------------------------------------------
# Validation behaviour

def test_missing_workloads_all_reported(population, index):
    delta = {w: 1.0 for w in list(population)[:-7]}
    with pytest.raises(ValueError, match="7 workloads lack"):
        ConfidenceEstimator(population, delta)


def test_mismatched_column_rejected(population, index):
    other = WorkloadPopulation(population.benchmarks[:5], 3)
    column = DeltaColumn(other.index,
                         np.zeros(len(other)))
    with pytest.raises(ValueError, match="different workloads"):
        ConfidenceEstimator(population, column)


def test_ipc_matrix_validates_shape(population, index):
    with pytest.raises(ValueError, match="expected a 120 x 3 matrix"):
        IpcMatrix(index, np.ones((len(index), 2)))     # wrong core count
    with pytest.raises(ValueError, match="expected a 120 x 3 matrix"):
        IpcMatrix(index, np.ones((len(index) - 7, 3)))  # missing rows
