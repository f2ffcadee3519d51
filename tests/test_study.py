"""PolicyComparisonStudy orchestration."""

import random

import pytest

from repro.core.metrics import IPCT, WSU
from repro.core.planner import Recommendation
from repro.core.sampling import SimpleRandomSampling
from repro.core.study import PolicyComparisonStudy

from tests.conftest import ipc_matrix


def _tables(population, gap, noise=0.05, seed=0):
    """Synthetic IPC matrices where Y beats X by `gap` on average."""
    rng = random.Random(seed)
    x, y = {}, {}
    for w in population:
        base = [1.0 + 0.3 * rng.random() for _ in range(w.k)]
        x[w] = base
        y[w] = [b + gap + rng.gauss(0, noise) for b in base]
    return ipc_matrix(population.index, x), ipc_matrix(population.index, y)


def test_clear_winner_detected(small_population):
    x, y = _tables(small_population, gap=0.3, noise=0.02)
    study = PolicyComparisonStudy(small_population, x, y, IPCT)
    assert study.y_outperforms_x()
    assert study.inverse_cv > 1.0
    assert study.required_sample_size() <= 10
    assert study.model_confidence(20) > 0.99


def test_close_pair_needs_large_sample(small_population):
    x, y = _tables(small_population, gap=0.005, noise=0.08)
    study = PolicyComparisonStudy(small_population, x, y, IPCT)
    assert abs(study.inverse_cv) < 0.5
    assert study.required_sample_size() > 30


def test_direction_flips_with_tables(small_population):
    x, y = _tables(small_population, gap=0.2, noise=0.01)
    forward = PolicyComparisonStudy(small_population, x, y, IPCT)
    backward = PolicyComparisonStudy(small_population, y, x, IPCT)
    assert forward.y_outperforms_x()
    assert not backward.y_outperforms_x()
    assert forward.inverse_cv == pytest.approx(-backward.inverse_cv, rel=0.2)


def test_guideline_routes(small_population):
    clear_x, clear_y = _tables(small_population, gap=0.5, noise=0.01)
    clear = PolicyComparisonStudy(small_population, clear_x, clear_y, IPCT)
    assert clear.guideline().recommendation is Recommendation.BALANCED_RANDOM

    mid_x, mid_y = _tables(small_population, gap=0.03, noise=0.1)
    mid = PolicyComparisonStudy(small_population, mid_x, mid_y, IPCT)
    assert mid.guideline().recommendation in (
        Recommendation.WORKLOAD_STRATIFICATION, Recommendation.EQUIVALENT)


def test_empirical_confidence_tracks_model(small_population):
    x, y = _tables(small_population, gap=0.08, noise=0.12, seed=3)
    study = PolicyComparisonStudy(small_population, x, y, IPCT)
    empirical = study.empirical_confidence(SimpleRandomSampling(), 10,
                                           draws=800)
    model = study.model_confidence(10)
    assert empirical == pytest.approx(model, abs=0.1)


def test_wsu_requires_reference(small_population):
    x, y = _tables(small_population, gap=0.1)
    with pytest.raises((ValueError, TypeError)):
        PolicyComparisonStudy(small_population, x, y, WSU).statistics


def test_matrices_must_cover_the_population(small_population,
                                            four_core_population):
    x, y = _tables(four_core_population, gap=0.1)
    with pytest.raises(ValueError, match="population's rows"):
        PolicyComparisonStudy(small_population, x, y, IPCT)


def test_wsu_with_reference(small_population):
    x, y = _tables(small_population, gap=0.1, noise=0.01)
    reference = {name: 1.0 for name in small_population.benchmarks}
    study = PolicyComparisonStudy(small_population, x, y, WSU, reference)
    assert study.y_outperforms_x()
