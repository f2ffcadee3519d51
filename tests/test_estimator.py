"""Empirical confidence estimation."""

import random

import pytest

from repro.core.confidence import confidence_from_cv
from repro.core.delta import delta_statistics
from repro.core.estimator import ConfidenceEstimator
from repro.core.sampling import SimpleRandomSampling


def _delta(population, offset):
    rng = random.Random(9)
    return {w: rng.gauss(offset, 1.0) for w in population}


def test_certain_win_gives_full_confidence(small_population):
    delta = {w: 1.0 + 0.01 * i for i, w in enumerate(small_population)}
    estimator = ConfidenceEstimator(small_population, delta, draws=100)
    conf = estimator.confidence(SimpleRandomSampling(), 5)
    assert conf == 1.0


def test_certain_loss_gives_zero_confidence(small_population):
    delta = {w: -1.0 for w in small_population}
    estimator = ConfidenceEstimator(small_population, delta, draws=100)
    assert estimator.confidence(SimpleRandomSampling(), 5) == 0.0


def test_confidence_increases_with_sample_size(small_population):
    delta = _delta(small_population, offset=0.4)
    estimator = ConfidenceEstimator(small_population, delta, draws=400)
    small = estimator.confidence(SimpleRandomSampling(), 2, seed=1)
    large = estimator.confidence(SimpleRandomSampling(), 40, seed=1)
    assert large >= small


def test_matches_analytical_model(small_population):
    """Empirical and eq. (5) confidence agree on a random-ish delta."""
    delta = _delta(small_population, offset=0.3)
    stats = delta_statistics(list(delta.values()))
    estimator = ConfidenceEstimator(small_population, delta, draws=2000)
    for w in (4, 16):
        measured = estimator.confidence(SimpleRandomSampling(), w, seed=3)
        model = confidence_from_cv(stats.cv, w)
        assert measured == pytest.approx(model, abs=0.06)


def test_curve_shape(small_population):
    delta = _delta(small_population, offset=0.5)
    estimator = ConfidenceEstimator(small_population, delta, draws=200)
    curve = estimator.curve(SimpleRandomSampling(), (2, 8, 32))
    assert curve.sample_sizes == (2, 8, 32)
    assert len(curve.confidence) == 3
    assert curve.as_dict()[32] >= curve.as_dict()[2]


def test_missing_delta_rejected(small_population):
    delta = {w: 1.0 for w in list(small_population)[:-1]}
    with pytest.raises(ValueError):
        ConfidenceEstimator(small_population, delta)


def test_reproducible_for_fixed_seed(small_population):
    delta = _delta(small_population, offset=0.2)
    estimator = ConfidenceEstimator(small_population, delta, draws=150)
    a = estimator.confidence(SimpleRandomSampling(), 6, seed=11)
    b = estimator.confidence(SimpleRandomSampling(), 6, seed=11)
    assert a == b


def test_curve_bit_identical_to_per_point(small_population):
    """The batched curve must equal per-size confidence() exactly."""
    from repro.core.sampling import WorkloadStratification

    delta = _delta(small_population, offset=0.2)
    estimator = ConfidenceEstimator(small_population, delta, draws=300)
    sizes = (2, 5, 10, 15)
    for method in (SimpleRandomSampling(),
                   WorkloadStratification(delta, min_stratum=5)):
        curve = estimator.curve(method, sizes, seed=3)
        per_point = [estimator.confidence(method, size, seed=3)
                     for size in sizes]
        assert list(curve.confidence) == per_point


def test_curve_falls_back_without_plan(small_population):
    """Methods with only a sample() still get a correct curve."""

    class SampleOnly(SimpleRandomSampling):
        def plan(self, index, population):
            return None

    delta = _delta(small_population, offset=0.2)
    estimator = ConfidenceEstimator(small_population, delta, draws=200)
    method = SampleOnly()
    curve = estimator.curve(method, (3, 6), seed=1)
    expected = [estimator.confidence(method, size, seed=1)
                for size in (3, 6)]
    assert list(curve.confidence) == expected


def test_curve_empty_sizes(small_population):
    delta = _delta(small_population, offset=0.2)
    estimator = ConfidenceEstimator(small_population, delta, draws=50)
    curve = estimator.curve(SimpleRandomSampling(), ())
    assert curve.sample_sizes == () and curve.confidence == ()


# ----------------------------------------------------------------------
# Batching policy pairs over one shared index


def _pair_deltas(population, pairs=4, seed=0):
    import numpy as np

    from repro.core.columnar import DeltaColumn

    rng = np.random.default_rng(seed)
    return {f"pair{p}": DeltaColumn(
                population.index, rng.normal(0.02, 1.0, len(population)))
            for p in range(pairs)}


def test_paired_estimator_bit_identical_per_pair(small_population):
    from repro.core.estimator import PairedConfidenceEstimator
    from repro.core.sampling import (
        BalancedRandomSampling,
        BenchmarkStratification,
    )

    deltas = _pair_deltas(small_population)
    paired = PairedConfidenceEstimator(small_population, deltas, draws=200)
    labels = ("low", "mid", "high")
    classes = {b: labels[i % 3]
               for i, b in enumerate(small_population.benchmarks)}
    sizes = [4, 8, 12]
    for method in (SimpleRandomSampling(), BalancedRandomSampling(),
                   BenchmarkStratification(classes)):
        grouped = paired.curve(method, sizes, seed=5)
        for key, delta in deltas.items():
            single = ConfidenceEstimator(small_population, delta,
                                         draws=200)
            assert (grouped[key].confidence
                    == single.curve(method, sizes, seed=5).confidence)


def test_paired_estimator_single_point(small_population):
    from repro.core.estimator import PairedConfidenceEstimator

    deltas = _pair_deltas(small_population, pairs=2)
    paired = PairedConfidenceEstimator(small_population, deltas, draws=100)
    method = SimpleRandomSampling()
    point = paired.confidence(method, 6, seed=3)
    for key, delta in deltas.items():
        single = ConfidenceEstimator(small_population, delta, draws=100)
        assert point[key] == single.confidence(method, 6, seed=3)


def test_paired_estimator_scalar_fallback(small_population):
    from repro.core.estimator import PairedConfidenceEstimator

    class PlanlessRandom(SimpleRandomSampling):
        def sample(self, population, size, rng):
            return super().sample(population, size, rng)

    deltas = _pair_deltas(small_population, pairs=2)
    paired = PairedConfidenceEstimator(small_population, deltas, draws=50)
    method = PlanlessRandom()
    grouped = paired.curve(method, [5], seed=1)
    for key, delta in deltas.items():
        single = ConfidenceEstimator(small_population, delta, draws=50)
        assert (grouped[key].confidence
                == single.curve(method, [5], seed=1).confidence)


def test_pair_curves_bit_identical_per_pair(small_population):
    """fig6's pair-batched workload-strata equals the per-pair loop."""
    from repro.core.estimator import PairedConfidenceEstimator
    from repro.core.sampling import WorkloadStratification

    deltas = _pair_deltas(small_population)
    paired = PairedConfidenceEstimator(small_population, deltas, draws=200)
    methods = {key: WorkloadStratification.from_column(delta, min_stratum=5)
               for key, delta in deltas.items()}
    sizes = [4, 8, 12]
    grouped = paired.pair_curves(methods, sizes, seed=5)
    for key, delta in deltas.items():
        single = ConfidenceEstimator(small_population, delta, draws=200)
        expected = single.curve(methods[key], sizes, seed=5)
        assert grouped[key].confidence == expected.confidence
        assert grouped[key].method == methods[key].name


def test_pair_curves_requires_method_per_pair(small_population):
    from repro.core.estimator import PairedConfidenceEstimator

    deltas = _pair_deltas(small_population, pairs=2)
    paired = PairedConfidenceEstimator(small_population, deltas, draws=50)
    with pytest.raises(ValueError):
        paired.pair_curves({"pair0": SimpleRandomSampling()}, [5])


def test_pair_curves_planless_fallback(small_population):
    from repro.core.estimator import PairedConfidenceEstimator

    class SampleOnly(SimpleRandomSampling):
        def plan(self, index, population):
            return None

    deltas = _pair_deltas(small_population, pairs=2)
    paired = PairedConfidenceEstimator(small_population, deltas, draws=50)
    methods = {key: SampleOnly() for key in deltas}
    grouped = paired.pair_curves(methods, [5], seed=1)
    for key, delta in deltas.items():
        single = ConfidenceEstimator(small_population, delta, draws=50)
        assert (grouped[key].confidence
                == single.curve(methods[key], [5], seed=1).confidence)


def test_paired_estimator_rejects_empty():
    from repro.core.estimator import PairedConfidenceEstimator
    from repro.core.population import WorkloadPopulation

    population = WorkloadPopulation(["a", "b"], 2)
    with pytest.raises(ValueError):
        PairedConfidenceEstimator(population, {}, draws=10)



@pytest.mark.parametrize("draws", [0, -3])
@pytest.mark.parametrize("kind", ["confidence", "paired", "speedup"])
def test_draws_below_one_rejected(small_population, kind, draws):
    from repro.core.estimator import PairedConfidenceEstimator
    from repro.core.metrics import IPCT
    from repro.core.speedup_accuracy import SpeedupAccuracyEvaluator

    delta = _delta(small_population, 0.0)
    ipcs = {w: [1.0] * w.k for w in small_population}
    build = {
        "confidence": lambda: ConfidenceEstimator(
            small_population, delta, draws=draws),
        "paired": lambda: PairedConfidenceEstimator(
            small_population, {"pair": delta}, draws=draws),
        "speedup": lambda: SpeedupAccuracyEvaluator(
            small_population, ipcs, ipcs, IPCT, draws=draws),
    }[kind]
    # Every confidence / hit rate divides by draws.
    with pytest.raises(ValueError, match="draws must be >= 1"):
        build()
