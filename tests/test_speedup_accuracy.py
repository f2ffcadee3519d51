"""Speedup-accuracy evaluation (extension)."""

import random

import pytest

from repro.core.metrics import IPCT
from repro.core.sampling import SimpleRandomSampling, WorkloadStratification
from repro.core.speedup_accuracy import SpeedupAccuracyEvaluator

from tests.conftest import ipc_matrix


def _tables(population, ratio=1.10, noise=0.02, seed=0):
    rng = random.Random(seed)
    x, y = {}, {}
    for w in population:
        base = [0.8 + 0.4 * rng.random() for _ in range(w.k)]
        x[w] = base
        y[w] = [b * (ratio + rng.gauss(0, noise)) for b in base]
    return ipc_matrix(population.index, x), ipc_matrix(population.index, y)


def test_true_speedup_matches_construction(small_population):
    x, y = _tables(small_population, ratio=1.10, noise=0.0)
    evaluator = SpeedupAccuracyEvaluator(small_population, x, y, IPCT,
                                         draws=50)
    assert evaluator.true_speedup == pytest.approx(1.10, abs=0.01)


def test_hit_rate_improves_with_sample_size(small_population):
    x, y = _tables(small_population, noise=0.05)
    evaluator = SpeedupAccuracyEvaluator(small_population, x, y, IPCT,
                                         draws=300)
    method = SimpleRandomSampling()
    small = evaluator.evaluate(method, 3, epsilon=0.02, seed=1)
    large = evaluator.evaluate(method, 18, epsilon=0.02, seed=1)
    assert large.hit_rate >= small.hit_rate
    assert large.mean_abs_error <= small.mean_abs_error + 1e-9


def test_full_population_sample_is_exact(small_population):
    """Sampling the entire population must nail the speedup."""
    x, y = _tables(small_population, noise=0.05)
    evaluator = SpeedupAccuracyEvaluator(small_population, x, y, IPCT,
                                         draws=100)

    class Everything(SimpleRandomSampling):
        name = "all"

        def sample(self, population, size, rng):
            from repro.core.sampling.base import WeightedSample
            return WeightedSample.uniform(list(population))

    result = evaluator.evaluate(Everything(), len(small_population),
                                epsilon=1e-9)
    assert result.hit_rate == 1.0


def test_stratification_reduces_speedup_error(small_population):
    """The extension's finding: d(w)-strata help the magnitude too."""
    x, y = _tables(small_population, noise=0.08, seed=2)
    evaluator = SpeedupAccuracyEvaluator(small_population, x, y, IPCT,
                                         draws=400)
    from repro.core.columnar import delta_column_from_matrices
    from repro.core.delta import DeltaVariable

    delta = delta_column_from_matrices(DeltaVariable(IPCT), x, y)
    strat = WorkloadStratification.from_column(delta, min_stratum=3)
    random_error = evaluator.evaluate(
        SimpleRandomSampling(), 8, epsilon=0.01, seed=3).mean_abs_error
    strat_error = evaluator.evaluate(
        strat, 8, epsilon=0.01, seed=3).mean_abs_error
    assert strat_error <= random_error * 1.05


def test_curve_lengths(small_population):
    x, y = _tables(small_population)
    evaluator = SpeedupAccuracyEvaluator(small_population, x, y, IPCT,
                                         draws=50)
    points = evaluator.curve(SimpleRandomSampling(), (2, 4, 8))
    assert [p.sample_size for p in points] == [2, 4, 8]
