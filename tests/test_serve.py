"""Estimation as a service: the resident-state serve daemon.

Integration over the serve stack: the newline-framed protocol's
lossless estimate round trip, the byte-budgeted resident panel LRU,
mmap'd npz panel loads, and the daemon itself -- parallel clients must
get answers bit-identical to the one-shot driver, concurrent
overlapping requests must coalesce into fewer grid dispatches than
requests, and identical in-flight requests must share one future.
"""

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Session
from repro.api.session import FullScaleEstimate, TwoStageEstimate
from repro.core.population import WorkloadPopulation
from repro.serve import (
    ReproClient,
    ReproServer,
    ResidentPanelCache,
    ResidentState,
    ServerError,
    protocol,
)
from repro.sim.results import PopulationResults

BENCHMARKS = ("bzip2", "gcc", "libquantum", "mcf", "namd", "povray")
FRAME = dict(cores=8, sample=300, draws=100, sample_sizes=(5, 20))


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A warm model store (one cold one-shot run pays the training)."""
    base = tmp_path_factory.mktemp("serve-store")
    models = base / "models"
    Session("small", seed=0, benchmarks=list(BENCHMARKS),
            cache_dir=base / "cache-prime",
            model_store_dir=models).estimate_full_scale(
        "LRU", "DIP", **FRAME)
    return models


@pytest.fixture(scope="module")
def oneshot(store, tmp_path_factory):
    """The one-shot warm estimate every served answer must reproduce."""
    return Session("small", seed=0, benchmarks=list(BENCHMARKS),
                   cache_dir=tmp_path_factory.mktemp("serve-oneshot"),
                   model_store_dir=store).estimate_full_scale(
        "LRU", "DIP", **FRAME)


@pytest.fixture()
def server(store, tmp_path):
    state = ResidentState(cache_dir=tmp_path / "cache",
                          model_store_dir=store)
    with ReproServer(state, socket_path=tmp_path / "serve.sock",
                     window_seconds=0.05) as running:
        yield running


def _query(**overrides):
    params = dict(baseline="LRU", candidate="DIP", scale="small", seed=0,
                  benchmarks=list(BENCHMARKS), cores=8, sample=300,
                  draws=100, sample_sizes=[5, 20])
    params.update(overrides)
    return params


def _fields(estimate):
    fields = dataclasses.asdict(estimate)
    fields.pop("timings")      # wall clock differs per process, only
    return fields              # the numbers must be identical


# ----------------------------------------------------------------------
# Protocol


def _wire_round_trip(estimate):
    frame = protocol.encode({"id": 1, "ok": True,
                             "result": protocol.estimate_to_wire(estimate)})
    return protocol.estimate_from_wire(
        protocol.decode_line(frame)["result"])


def test_protocol_estimate_round_trip_is_lossless():
    estimate = FullScaleEstimate(
        baseline="LRU", candidate="DIP", metric="WSU", backend="analytic",
        cores=8, population_size=300, true_population_size=1287,
        sampled=True, draws=100, num_strata=7, inverse_cv=-1.0 / 3.0,
        sample_sizes=(5, 20), fast_sampling=False,
        confidence={"random": (0.1 + 0.2, 2.0 / 3.0),
                    "workload-strata": (1e-17, 0.9999999999999999)},
        training_runs=0, timings={"panels": 0.125, "confidence": 1e-9})
    rebuilt = _wire_round_trip(estimate)
    assert isinstance(rebuilt, FullScaleEstimate)
    assert not isinstance(rebuilt, TwoStageEstimate)
    assert rebuilt == estimate


def test_protocol_two_stage_round_trip_keeps_the_subclass():
    estimate = TwoStageEstimate(
        baseline="LRU", candidate="DIP", metric="WSU", backend="analytic",
        cores=8, population_size=300, true_population_size=1287,
        sampled=True, draws=100, num_strata=7, inverse_cv=0.25,
        sample_sizes=(5,), confidence={"random": (0.5,)},
        refine_backend="badco", refine_budget=6, refined=6,
        screen_inverse_cv=0.2, screen_confidence={"random": (0.4,)},
        max_shift=0.5 ** 52, sign_flips=1)
    rebuilt = _wire_round_trip(estimate)
    assert isinstance(rebuilt, TwoStageEstimate)
    assert rebuilt == estimate


def test_canonical_params_ignore_key_order():
    params = _query()
    reordered = dict(reversed(list(params.items())))
    assert (protocol.canonical_params(params)
            == protocol.canonical_params(reordered))


# ----------------------------------------------------------------------
# The resident panel LRU


def _panel(tmp_path, name, policies=("LRU",), seed=0, compressed=False):
    population = WorkloadPopulation(("bzip2", "gcc", "mcf"), 2)
    rng = np.random.default_rng(seed)
    results = PopulationResults(2, "analytic")
    for policy in policies:
        results.record_batch(policy, population,
                             rng.random((len(population), 2)))
    path = tmp_path / f"{name}.npz"
    results.save_npz(path, compressed=compressed)
    return path


def test_panel_lru_hits_and_identity_invalidation(tmp_path):
    cache = ResidentPanelCache()
    path = _panel(tmp_path, "panel")
    first = cache.load(path)
    assert cache.load(path) is first
    assert (cache.hits, cache.misses) == (1, 1)
    # Replacing the file changes its (mtime, size) identity: the stale
    # entry must not be served.
    _panel(tmp_path, "panel", seed=1)
    reloaded = cache.load(path)
    assert reloaded is not first
    assert (cache.hits, cache.misses) == (1, 2)


def test_panel_lru_budget_evicts_least_recently_used(tmp_path):
    paths = [_panel(tmp_path, f"panel{i}", seed=i) for i in range(3)]
    one = PopulationResults.load_npz(paths[0]).nbytes
    cache = ResidentPanelCache(budget_bytes=2 * one)
    for path in paths:
        cache.load(path)
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.total_bytes <= cache.budget_bytes
    # The evicted entry was the least recently used: panel0 misses,
    # panel2 (newest) still hits.
    cache.load(paths[2])
    assert cache.hits == 1
    cache.load(paths[0])
    assert cache.misses == 4
    assert cache.stats()["entries"] == 2


def test_panel_lru_keeps_the_newest_entry_over_budget(tmp_path):
    path = _panel(tmp_path, "huge")
    cache = ResidentPanelCache(budget_bytes=1)
    cache.load(path)
    assert len(cache) == 1     # never thrash the working set to zero
    assert cache.evictions == 0


def test_panel_lru_store_publishes_the_live_object(tmp_path):
    path = _panel(tmp_path, "published")
    results = PopulationResults.load_npz(path)
    cache = ResidentPanelCache()
    cache.store(path, results)
    assert cache.load(path) is results
    assert (cache.hits, cache.misses) == (1, 0)


# ----------------------------------------------------------------------
# mmap'd npz loads


def test_npz_mmap_load_matches_eager_and_shares_pages(tmp_path):
    path = _panel(tmp_path, "mapped", policies=("LRU", "DIP"))
    eager = PopulationResults.load_npz(path)
    mapped = PopulationResults.load_npz(path, mmap_mode="r")
    for policy in ("LRU", "DIP"):
        for (ranks, block), (_, twin) in zip(
                mapped._blocks[policy], eager._blocks[policy]):
            # np.asarray over a memmap keeps the buffer: the block is
            # a plain ndarray view whose base is the file mapping.
            assert isinstance(block.base, np.memmap)
            assert not isinstance(twin.base, np.memmap)
            assert np.array_equal(block, twin)
            assert ranks.dtype == np.int64 and len(ranks) == len(block)
    workload = next(iter(WorkloadPopulation(("bzip2", "gcc", "mcf"), 2)))
    assert mapped.ipcs("LRU", workload) == eager.ipcs("LRU", workload)


def test_compressed_npz_falls_back_to_an_eager_load(tmp_path):
    path = _panel(tmp_path, "deflated", compressed=True)
    eager = PopulationResults.load_npz(path)
    mapped = PopulationResults.load_npz(path, mmap_mode="r")
    for (_, block), (_, twin) in zip(
            mapped._blocks["LRU"], eager._blocks["LRU"]):
        assert not isinstance(block.base, np.memmap)
        assert np.array_equal(block, twin)


# ----------------------------------------------------------------------
# The daemon


def test_served_estimate_is_bit_identical_to_the_oneshot(server, oneshot):
    with ReproClient(server.address) as client:
        served = client.estimate(**_query())
        warm = client.estimate(**_query())
    assert served.training_runs == 0
    assert _fields(served) == _fields(oneshot)
    assert _fields(warm) == _fields(oneshot)


def test_parallel_clients_all_get_the_oneshot_answer(server, oneshot):
    def one(_):
        with ReproClient(server.address) as client:
            return client.estimate(**_query())

    with ThreadPoolExecutor(max_workers=4) as pool:
        estimates = list(pool.map(one, range(4)))
    reference = _fields(oneshot)
    assert all(_fields(estimate) == reference for estimate in estimates)


def test_concurrent_overlapping_requests_coalesce(store, tmp_path,
                                                  monkeypatch):
    from repro.sim.analytic import AnalyticSimulator

    calls = []
    original = AnalyticSimulator.run_batch_grid

    def spy(self, workloads, policies, *args, **kwargs):
        calls.append(tuple(policies))
        return original(self, workloads, policies, *args, **kwargs)

    monkeypatch.setattr(AnalyticSimulator, "run_batch_grid", spy)
    pairs = [("LRU", "NRU"), ("LRU", "SRRIP"), ("NRU", "DIP"),
             ("SRRIP", "SHIP")]
    state = ResidentState(cache_dir=tmp_path / "cache",
                          model_store_dir=store)
    # A long window so every burst member reliably joins one group.
    with ReproServer(state, socket_path=tmp_path / "serve.sock",
                     window_seconds=0.5) as server:
        def one(pair):
            with ReproClient(server.address) as client:
                return client.estimate(**_query(baseline=pair[0],
                                                candidate=pair[1]))

        with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
            estimates = list(pool.map(one, pairs))
        counters = server.scheduler.counters()
    # M overlapping requests, strictly fewer grid dispatches than M.
    assert len(calls) < len(pairs)
    assert counters["requests"] == len(pairs)
    assert counters["dispatch_groups"] < len(pairs)
    assert (counters["coalesced"]
            == len(pairs) - counters["dispatch_groups"])
    for (baseline, candidate), estimate in zip(pairs, estimates):
        assert (estimate.baseline, estimate.candidate) == (baseline,
                                                           candidate)
        assert estimate.training_runs == 0


def test_coalesced_member_with_unknown_policy_fails_alone(store, tmp_path,
                                                         oneshot):
    state = ResidentState(cache_dir=tmp_path / "cache",
                          model_store_dir=store)
    # A long window so the bad request reliably joins the good one.
    with ReproServer(state, socket_path=tmp_path / "serve.sock",
                     window_seconds=0.5) as server:
        good = server.scheduler.submit("estimate", _query())
        unknown = server.scheduler.submit("estimate",
                                          _query(candidate="NOPE"))
        malformed = server.scheduler.submit("estimate", _query(baseline=7))
        with pytest.raises(ValueError, match="NOPE"):
            unknown.result(timeout=300)
        with pytest.raises(AttributeError):
            malformed.result(timeout=300)
        estimate = protocol.estimate_from_wire(good.result(timeout=300))
        counters = server.scheduler.counters()
    assert counters["coalesced"] == 2
    assert _fields(estimate) == _fields(oneshot)


def test_identical_inflight_requests_share_one_future(server):
    params = _query()
    first = server.scheduler.submit("estimate", params)
    second = server.scheduler.submit(
        "estimate", dict(reversed(list(params.items()))))
    assert second is first
    assert server.scheduler.counters()["deduplicated"] == 1
    estimate = protocol.estimate_from_wire(first.result(timeout=300))
    assert estimate.training_runs == 0


def test_resident_panel_cache_serves_sibling_sessions(store, tmp_path):
    state = ResidentState(cache_dir=tmp_path / "cache",
                          model_store_dir=store)
    first = state.session(benchmarks=list(BENCHMARKS)).estimate_full_scale(
        "LRU", "DIP", **FRAME)
    assert state.panel_cache.stats()["entries"] >= 1
    # jobs is excluded from the campaign cache signature, so a sibling
    # session (different session key, same cache key) must be served
    # the published panels without re-simulating.
    second = state.session(benchmarks=list(BENCHMARKS),
                           jobs=0).estimate_full_scale(
        "LRU", "DIP", **FRAME)
    assert state.panel_cache.hits >= 1
    assert second.training_runs == 0
    assert second.confidence == first.confidence
    assert second.inverse_cv == first.inverse_cv


def test_stats_and_ping_over_tcp(store, tmp_path):
    state = ResidentState(cache_dir=tmp_path / "cache",
                          model_store_dir=store)
    with ReproServer(state, port=0) as server:
        host, port = server.address
        with ReproClient(host=host, port=port) as client:
            assert client.ping()
            stats = client.stats()
    assert stats["sessions"] == 0
    assert {"hits", "misses", "evictions"} <= set(stats["panel_cache"])
    assert {"requests", "deduplicated", "dispatch_groups",
            "coalesced"} <= set(stats["scheduler"])


def test_bad_requests_error_without_dropping_the_connection(server):
    with ReproClient(server.address, timeout=5) as client:
        with pytest.raises(ServerError, match="unknown op"):
            client.request("frobnicate")
        with pytest.raises(ServerError, match="NOPE"):
            client.estimate(**_query(candidate="NOPE"))
        # These fail while the estimate is being scheduled (its
        # coalescing key is malformed).  A repeat must fail just as
        # promptly, not wait on a deduplicated future that never
        # resolves.
        for malformed in ({"seed": "x"}, {"scale": "huge"},
                          {"cores": [4]}):
            for _ in range(2):
                started = time.monotonic()
                with pytest.raises(ServerError):
                    client.estimate(**_query(**malformed))
                assert time.monotonic() - started < 2.0
        assert client.ping()   # the connection survived every error


def test_oversized_frame_is_refused_without_stalling_others(server,
                                                            oneshot):
    from repro.serve.server import connect

    limit = protocol.MAX_REQUEST_BYTES
    with connect(server.address, timeout=60) as hostile:
        # The cap's worth of bytes and no newline: its handler is now
        # buffering mid-frame, waiting for one more byte.
        hostile.sendall(b"x" * limit)
        with ReproClient(server.address, timeout=60) as client:
            served = client.estimate(**_query())
        hostile.sendall(b"x")
        with hostile.makefile("rb") as replies:
            reply = protocol.decode_line(replies.readline())
            closed = replies.read() == b""
    assert reply["ok"] is False
    assert f"exceeds {limit} bytes" in reply["error"]
    assert closed
    assert _fields(served) == _fields(oneshot)


def test_shutdown_op_stops_the_daemon(store, tmp_path):
    state = ResidentState(cache_dir=tmp_path / "cache",
                          model_store_dir=store)
    server = ReproServer(state,
                         socket_path=tmp_path / "serve.sock").start()
    with ReproClient(server.address) as client:
        client.shutdown()
    deadline = time.monotonic() + 10
    while server.socket_path.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not server.socket_path.exists()
    server.shutdown()          # idempotent after the client's request


def test_cli_query_ping_and_estimate(server, capsys):
    import json

    from repro.cli import main

    socket_path = str(server.socket_path)
    assert main(["query", "--socket", socket_path, "ping"]) == 0
    assert "pong" in capsys.readouterr().out
    assert main(["query", "--socket", socket_path, "estimate",
                 "--param", "baseline=LRU", "--param", "candidate=DIP",
                 "--param",
                 "benchmarks=" + json.dumps(list(BENCHMARKS)),
                 "--param", "sample=300", "--param", "draws=100",
                 "--param", "sample_sizes=[5, 20]"]) == 0
    assert "DIP vs LRU" in capsys.readouterr().out
