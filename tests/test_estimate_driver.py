"""The end-to-end full-scale driver: Session.estimate_full_scale.

Smoke-scale integration over every matrix-native layer: code-matrix
population (rank-sampled 8-core frame), the batch engine's N x P x K
panel dispatch, the model store (a warm second session must train
nothing and reproduce the cold numbers exactly), the d(w) column and
the vectorized stratified confidence estimation.
"""

import pytest

from repro.api import Session


BENCHMARKS = ("bzip2", "gcc", "libquantum", "mcf", "namd", "povray")


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("estimate")
    return base / "cache", base / "models"


def _session(dirs, jobs=1):
    cache, models = dirs
    return Session("small", seed=0, jobs=jobs, cache_dir=cache,
                   model_store_dir=models, benchmarks=list(BENCHMARKS))


@pytest.fixture(scope="module")
def cold(dirs):
    session = _session(dirs)
    return session.estimate_full_scale(
        "LRU", "DIP", cores=8, sample=300, draws=100,
        sample_sizes=(5, 20))


def test_cold_run_shape(cold):
    assert cold.cores == 8
    assert cold.population_size == 300
    assert cold.sampled
    # C(6 + 8 - 1, 8) distinct 8-core workloads over 6 benchmarks.
    assert cold.true_population_size == 1287
    assert cold.draws == 100
    assert set(cold.confidence) == {"random", "workload-strata"}
    for series in cold.confidence.values():
        assert len(series) == 2
        assert all(0.0 <= value <= 1.0 for value in series)
    # The cold store starts empty: training must actually happen.
    assert cold.training_runs > 0
    assert set(cold.timings) == {"population", "panels", "delta",
                                 "confidence"}
    assert all(lines is not None for lines in cold.rows())


def test_warm_store_trains_nothing_and_reproduces(dirs, cold):
    # A fresh session against the same store: every BADCO model,
    # calibration anchor and probe is served from disk.
    warm = _session(dirs).estimate_full_scale(
        "LRU", "DIP", cores=8, sample=300, draws=100,
        sample_sizes=(5, 20))
    assert warm.training_runs == 0
    assert warm.inverse_cv == cold.inverse_cv
    assert warm.confidence == cold.confidence
    assert warm.num_strata == cold.num_strata


@pytest.mark.parametrize("cache", ["fresh", "reopened"])
def test_warm_estimate_loads_no_node_model_and_builds_no_workload(
        dirs, cold, tmp_path, monkeypatch, cache):
    """The warm analytic path is matrix-native end to end.

    A new session against a warm store reads stored vectors instead of
    deserialising BADCO node models, and scores, caches, reloads and
    stratifies code rows without materialising a single workload --
    whether it writes a fresh campaign cache or reopens one.
    """
    from repro.core.workload import Workload
    from repro.sim.modelstore import ModelStore

    calls = {"load_badco_model": 0, "workloads": 0}
    load_badco_model = ModelStore.load_badco_model
    init = Workload.__init__
    from_sorted = Workload.from_sorted.__func__

    def count_load(self, *args, **kwargs):
        calls["load_badco_model"] += 1
        return load_badco_model(self, *args, **kwargs)

    def count_init(self, *args, **kwargs):
        calls["workloads"] += 1
        init(self, *args, **kwargs)

    def count_from_sorted(cls, *args, **kwargs):
        calls["workloads"] += 1
        return from_sorted(cls, *args, **kwargs)

    cache_dir = dirs[0] if cache == "reopened" else tmp_path / "cache"
    session = _session((cache_dir, dirs[1]))
    monkeypatch.setattr(ModelStore, "load_badco_model", count_load)
    monkeypatch.setattr(Workload, "__init__", count_init)
    monkeypatch.setattr(Workload, "from_sorted",
                        classmethod(count_from_sorted))
    warm = session.estimate_full_scale(
        "LRU", "DIP", cores=8, sample=300, draws=100,
        sample_sizes=(5, 20))
    assert calls == {"load_badco_model": 0, "workloads": 0}
    assert warm.training_runs == 0
    assert warm.confidence == cold.confidence
    assert warm.inverse_cv == cold.inverse_cv


def test_jobs_invariance(dirs, cold):
    parallel = _session(dirs, jobs=2).estimate_full_scale(
        "LRU", "DIP", cores=8, sample=300, draws=100,
        sample_sizes=(5, 20))
    assert parallel.confidence == cold.confidence
    assert parallel.inverse_cv == cold.inverse_cv


def test_two_core_frame_is_exhaustive_with_signal(dirs):
    estimate = _session(dirs).estimate_full_scale(
        "LRU", "RND", cores=2, draws=100, sample_sizes=(5, 15))
    assert not estimate.sampled
    assert estimate.population_size == estimate.true_population_size == 21
    # The 2-core uncore is small enough for real contention: the
    # analytic d(w) separates LRU from random replacement.
    assert estimate.inverse_cv != 0.0


def test_unknown_policy_rejected(dirs):
    with pytest.raises(ValueError):
        _session(dirs).estimate_full_scale("LRU", "NOPE", cores=2)
