"""The end-to-end full-scale driver: Session.estimate_full_scale.

Smoke-scale integration over every matrix-native layer: code-matrix
population (rank-sampled 8-core frame), the batch engine's N x P x K
panel dispatch, the model store (a warm second session must train
nothing and reproduce the cold numbers exactly), the d(w) column and
the vectorized stratified confidence estimation.
"""

import dataclasses
import os
import sys
import threading

import pytest

from repro.api import Session
from repro.api import session as session_module


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


# ---- the d(w) memo and the strata it keeps ---------------------------

#: A live 2-core frame (21 rows): FIFO/DRRIP's d(w) has 1/cv ≈ 0.59,
#: and its one default stratum (W_T = 50) splits in three at W_T = 3.
LIVE = dict(cores=2, draws=100, sample_sizes=(5, 10))


def _answer(estimate):
    fields = dataclasses.asdict(estimate)
    fields.pop("timings")
    fields.pop("training_runs")
    return fields


def test_warm_estimates_reuse_their_strata(dirs, strata_cuts):
    session = _session(dirs)
    first = session.estimate_full_scale("FIFO", "DRRIP", **LIVE)
    second = session.estimate_full_scale("FIFO", "DRRIP", **LIVE)
    assert len(strata_cuts) == 1
    (entry,) = session._delta_memo.values()
    assert entry.strata == (50, strata_cuts[0])
    fresh = _session(dirs).estimate_full_scale("FIFO", "DRRIP", **LIVE)
    assert _answer(first) == _answer(second) == _answer(fresh)
    assert 0.0 < first.confidence["workload-strata"][0] < 1.0


def test_another_min_stratum_replaces_the_kept_strata(dirs,
                                                      strata_cuts):
    session = _session(dirs)
    coarse = session.estimate_full_scale("FIFO", "DRRIP", **LIVE)
    fine = session.estimate_full_scale("FIFO", "DRRIP", min_stratum=3,
                                       **LIVE)
    (entry,) = session._delta_memo.values()
    assert entry.strata == (3, strata_cuts[1])
    again = session.estimate_full_scale("FIFO", "DRRIP", min_stratum=3,
                                        **LIVE)
    assert len(strata_cuts) == 2
    assert fine.num_strata == 3 and coarse.num_strata == 1
    assert fine.confidence != coarse.confidence
    fresh = _session(dirs).estimate_full_scale(
        "FIFO", "DRRIP", min_stratum=3, **LIVE)
    assert _answer(fine) == _answer(again) == _answer(fresh)


def test_the_memo_evicts_its_least_recent_column(dirs, monkeypatch):
    monkeypatch.setattr(session_module, "DELTA_MEMO_ENTRIES", 2)
    session = _session(dirs)

    def estimate(metric):
        return session.estimate_full_scale("FIFO", "DRRIP", metric=metric,
                                           **LIVE)

    def warm(metric):
        return session.estimate_is_warm("FIFO", "DRRIP", metric=metric,
                                        **LIVE)

    ipct, wsu = estimate("IPCT"), estimate("WSU")
    assert _answer(estimate("IPCT")) == _answer(ipct)    # refreshes IPCT
    assert warm("WSU")                                    # refreshes nothing
    estimate("HSU")                     # evicts WSU, the least recent
    assert (warm("IPCT"), warm("WSU"), warm("HSU")) == (True, False, True)
    assert _answer(estimate("WSU")) == _answer(wsu)       # evicts IPCT
    assert (warm("IPCT"), warm("WSU"), warm("HSU")) == (False, True, True)
    assert len(session._delta_memo) == 2


def test_concurrent_warm_estimates_equal_the_single_thread_answers(dirs):
    """More threads than CPUs on one warm session, switching every
    microsecond: strata slots replaced under each other's reads (W_T
    50 and 3 on one column) and recency updates racing."""
    session = _session(dirs)
    queries = [(pair, min_stratum)
               for pair in (("FIFO", "DRRIP"), ("DIP", "LRU"))
               for min_stratum in (None, 3)]

    def estimate(query):
        (baseline, candidate), min_stratum = query
        return _answer(session.estimate_full_scale(
            baseline, candidate, min_stratum=min_stratum, **LIVE))

    expected = {query: estimate(query) for query in queries}
    threads = max(4, (os.cpu_count() or 1) + 2)
    rounds = 25
    answers = [[] for _ in range(threads)]

    def work(slot):
        for i in range(rounds):
            query = queries[(slot + i) % len(queries)]
            answers[slot].append((query, estimate(query)))

    workers = [threading.Thread(target=work, args=(slot,))
               for slot in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert [len(done) for done in answers] == [rounds] * threads
    for done in answers:
        for query, answer in done:
            assert answer == expected[query], query
