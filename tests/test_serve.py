"""Estimation as a service: the resident-state serve daemon.

Integration over the serve stack: the newline-framed protocol's
lossless estimate round trip, the byte-budgeted resident panel LRU,
CRC-checked npz panel loads, and the daemon itself -- parallel
clients must get answers bit-identical to the one-shot driver,
concurrent overlapping requests must coalesce into fewer grid
dispatches than requests, and identical in-flight requests must share
one future.
"""

import dataclasses
import logging
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Session
from repro.api.session import FullScaleEstimate, TwoStageEstimate
from repro.core.population import WorkloadPopulation
from repro.serve import (
    ReproClient,
    ReproServer,
    RequestScheduler,
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
        sample_sizes=(5, 20),
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


def test_wire_fields_from_another_version_raise_a_named_error():
    wire = protocol.estimate_to_wire(FullScaleEstimate(
        baseline="LRU", candidate="DIP", metric="WSU", backend="analytic",
        cores=8, population_size=300, true_population_size=1287,
        sampled=True, draws=100, num_strata=7, inverse_cv=0.25,
        sample_sizes=(5,)))
    # A daemon that sends a field this client does not know, and one
    # that lacks a field this client expects.
    with pytest.raises(protocol.ProtocolError, match=(
            r"unexpected \['degenerate'\], missing \[\]")):
        protocol.estimate_from_wire({**wire, "degenerate": False})
    del wire["num_strata"]
    with pytest.raises(protocol.ProtocolError, match=(
            r"unexpected \[\], missing \['num_strata'\]")):
        protocol.estimate_from_wire(wire)


def test_canonical_params_ignore_key_order():
    params = _query()
    reordered = dict(reversed(list(params.items())))
    assert (protocol.canonical_params(params)
            == protocol.canonical_params(reordered))


# ----------------------------------------------------------------------
# The resident panel LRU


def _panel(tmp_path, name, policies=("LRU",), seed=0):
    population = WorkloadPopulation(("bzip2", "gcc", "mcf"), 2)
    rng = np.random.default_rng(seed)
    results = PopulationResults(2, "analytic")
    for policy in policies:
        results.record_batch(policy, population,
                             rng.random((len(population), 2)))
    path = tmp_path / f"{name}.npz"
    results.save_npz(path)
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
# Corrupt cache files


def test_bit_flipped_cached_panel_is_recomputed_not_served(store, tmp_path,
                                                           caplog):
    cache = tmp_path / "cache"
    saved = ResidentState(cache_dir=cache, model_store_dir=store).session(
        benchmarks=list(BENCHMARKS)).estimate_full_scale("LRU", "DIP",
                                                         **FRAME)
    (path,) = cache.glob("*.npz")
    # Flip one bit of the first stored IPC: low exponent / top mantissa.
    with np.load(path) as data:
        payload = data["ipcs_0"].tobytes()
    raw = bytearray(path.read_bytes())
    offset = raw.find(payload)
    assert offset > 0
    raw[offset + 6] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(zipfile.BadZipFile, match="CRC"):
        PopulationResults.load_npz(path)
    # A fresh daemon state over the same cache directory.
    state = ResidentState(cache_dir=cache, model_store_dir=store)
    with caplog.at_level(logging.WARNING, logger="repro.api.engine"):
        served = state.session(
            benchmarks=list(BENCHMARKS)).estimate_full_scale(
                "LRU", "DIP", **FRAME)
    assert f"campaign cache {path} is unreadable (BadZipFile" in caplog.text
    assert _fields(served) == _fields(saved)
    # The recomputed panels replaced the corrupt file.
    PopulationResults.load_npz(path)


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
    # The benchmark subset is not part of the campaign cache key, so a
    # sibling session naming the same benchmarks in another order
    # (different session key, same cache key) must be served the
    # published panels without re-simulating.
    second = state.session(
        benchmarks=list(reversed(BENCHMARKS))).estimate_full_scale(
        "LRU", "DIP", **FRAME)
    assert state.panel_cache.hits >= 1
    assert second.training_runs == 0
    assert second.confidence == first.confidence
    assert second.inverse_cv == first.inverse_cv


def test_sibling_sessions_refine_one_shared_campaign_in_turn(store,
                                                             tmp_path):
    """Sessions of one (scale, seed) universe that differ only in their
    benchmark list share live campaigns through the panel cache, so
    their refines must serialise on one lock: two at once must not both
    score the same pending rows (which failed one of them with "rows
    already recorded")."""
    names = ["bzip2", "gcc", "libquantum", "mcf"]
    frame = dict(scale="small", seed=0, cores=2, refine_budget=3)
    state = ResidentState(cache_dir=tmp_path / "cache",
                          model_store_dir=store)
    scheduler = RequestScheduler(state)
    try:
        scheduler.submit("estimate_two_stage",
                         dict(benchmarks=names, **frame)).result(timeout=300)
        futures = [scheduler.submit("estimate_two_stage", dict(
            baseline="LRU", candidate="DRRIP", benchmarks=benchmarks,
            **frame)) for benchmarks in (names, names[::-1])]
        replies = [protocol.estimate_from_wire(future.result(timeout=300))
                   for future in futures]
    finally:
        scheduler.close()
    oneshot = Session("small", seed=0, benchmarks=names,
                      cache_dir=tmp_path / "oneshot",
                      model_store_dir=store).estimate_two_stage(
        "LRU", "DRRIP", cores=2, refine_budget=3)

    def numbers(estimate):
        fields = _fields(estimate)
        # Which session trained or anchored first is a race, not a number.
        fields.pop("training_runs")
        fields.pop("refine_training_runs")
        return fields

    assert numbers(replies[0]) == numbers(replies[1]) == numbers(oneshot)


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


def test_a_removed_session_parameter_fails_alone(server, oneshot,
                                                 monkeypatch):
    from repro.api.engine import Campaign

    def refuse(self, *args, **kwargs):
        raise RuntimeError("the campaign engine started a process pool")

    # A served request never chooses how many processes the engine
    # forks: resident sessions run jobs=1, so the stub never fires.
    monkeypatch.setattr(Campaign, "_pool_map", refuse)
    with ReproClient(server.address, timeout=60) as client:
        for removed in ({"jobs": 2}, {"fast_sampling": False}):
            (name,) = removed
            with pytest.raises(ServerError, match=name):
                client.estimate(**_query(**removed))
            assert client.ping()
        assert _fields(client.estimate(**_query())) == _fields(oneshot)


@pytest.mark.parametrize("op", ["estimate", "estimate_two_stage"])
def test_an_unknown_keyword_is_refused_before_any_simulation(server, op):
    params = _query(cores=4, sample=20, jobs=2)
    if op == "estimate_two_stage":
        params.update(refine_backend="badco", refine_budget=2)
    with ReproClient(server.address, timeout=60) as client:
        with pytest.raises(ServerError, match="'jobs'"):
            client.request(op, **params)
        assert client.ping()
    session = server.state.session(scale="small", seed=0,
                                   benchmarks=list(BENCHMARKS))
    for backend in ("analytic", "badco"):
        assert session.campaign(backend, 4).timing.simulations == 0


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


#: Oversize requests per bound, by the bound's name: the parameter the
#: error reply must name and the params that exceed the bound
#: (``_query`` draws 100 rows at sizes 5 and 20 over a 300-row frame).
OVERSIZE = {
    "MAX_DRAWN_ROWS": [("draws", lambda: {
        "draws": protocol.MAX_DRAWN_ROWS // 25 + 1})],
    "MAX_SAMPLE_SIZES": [("sample_sizes", lambda: {
        "sample_sizes": [5] * (protocol.MAX_SAMPLE_SIZES + 1)})],
    "MAX_SAMPLE_SIZE": [("sample_sizes", lambda: {
        "sample_sizes": [5, protocol.MAX_SAMPLE_SIZE + 1]})],
    "MAX_FRAME_ROWS": [("sample", lambda: {
        "sample": protocol.MAX_FRAME_ROWS + 1})],
    "MAX_REFINE_ROWS": [
        ("refine_budget", lambda: {
            "refine_budget": protocol.MAX_REFINE_ROWS + 1}),
        ("refine_frac", lambda: {"refine_frac": 1.0}),
        # No frame size: the scale's cap (FULL, 8 cores: 10 000 rows).
        ("refine_frac", lambda: {"scale": "full", "sample": None,
                                 "refine_frac": 0.5})],
}


@pytest.mark.parametrize("op", ["estimate", "estimate_two_stage"])
@pytest.mark.parametrize("bound", sorted(OVERSIZE))
def test_oversize_estimate_fails_alone_before_it_is_scheduled(
        server, monkeypatch, bound, op):
    ran = []

    def refuse(self, *args, **kwargs):
        ran.append(kwargs)
        raise RuntimeError("the oversize estimate ran")

    # An oversize estimate must never reach a session; the stubs also
    # make a dropped bound fail fast instead of running the estimate.
    monkeypatch.setattr(Session, "estimate_full_scale", refuse)
    monkeypatch.setattr(Session, "estimate_two_stage", refuse)
    for parameter, oversize in OVERSIZE[bound]:
        params = _query(**oversize())
        if op == "estimate_two_stage" and "refine_frac" not in params:
            params.setdefault("refine_budget", 4)
        with ReproClient(server.address, timeout=60) as client:
            with pytest.raises(ServerError) as error:
                client.request(op, **params)
            assert client.ping()
        message = str(error.value)
        assert parameter in message
        assert f"{bound} ({getattr(protocol, bound)})" in message
    assert server.scheduler.counters()["dispatch_groups"] == 0
    assert ran == []


def test_the_bounds_admit_every_default_request_shape():
    # FULL's default: 10 000 draws x (10, 30, 100) over the 8-core
    # 10 000-row frame, named or left to the scale.
    protocol.check_estimate_bounds({"scale": "full", "cores": 8})
    protocol.check_estimate_bounds({
        "scale": "full", "cores": 8, "sample": 10_000, "draws": 10_000,
        "sample_sizes": [10, 30, 100]})
    for scale in ("small", "medium"):
        protocol.check_estimate_bounds({"scale": scale})
    protocol.check_estimate_bounds({})
    # Every refine budget the repo uses: the tests' 4 and 6, CI's 5,
    # the benchmark's 8 and the e2e bench suite's 40, at FULL scale.
    for budget in (4, 5, 6, 8, 40):
        protocol.check_estimate_bounds({
            "scale": "full", "cores": 8, "refine_budget": budget})
    # A fraction is checked against the frame: its own, else the cap.
    protocol.check_estimate_bounds({"sample": 400, "refine_frac": 0.1})
    protocol.check_estimate_bounds({"scale": "small", "refine_frac": 0.5})
    with pytest.raises(ValueError, match="MAX_REFINE_ROWS"):
        protocol.check_estimate_bounds({"sample": 400, "refine_frac": 0.2})
    # The frame never has more rows than the population: 4 named
    # benchmarks on 2 cores are 10 rows, the 22-benchmark suite's
    # 2-core population 253, so these refine 10 and 25 rows.
    protocol.check_estimate_bounds({
        "cores": 2, "scale": "small",
        "benchmarks": ["bzip2", "gcc", "libquantum", "mcf"],
        "refine_frac": 1.0})
    protocol.check_estimate_bounds({"cores": 2, "sample": 10_000,
                                    "refine_frac": 0.1})
    # One more sample size on the FULL default is over the drawn rows.
    with pytest.raises(ValueError, match="MAX_DRAWN_ROWS"):
        protocol.check_estimate_bounds({
            "scale": "full", "sample_sizes": [10, 30, 100, 100]})


@pytest.mark.parametrize("op, key", [("estimate", "backend"),
                                     ("estimate_two_stage",
                                      "screen_backend")])
def test_event_driven_frame_fails_alone_before_it_is_scheduled(
        server, monkeypatch, op, key):
    """A frame scored on an event-driven simulator is a refine of every
    row, so it is bounded like one; the analytic screen is not."""
    ran = []

    def refuse(self, *args, **kwargs):
        ran.append(kwargs)
        raise RuntimeError("the oversize estimate ran")

    monkeypatch.setattr(Session, "estimate_full_scale", refuse)
    monkeypatch.setattr(Session, "estimate_two_stage", refuse)
    for backend in ("badco", "interval", "detailed"):
        # ``_query``'s frame: 300 of the 1 287 8-core rows.
        params = _query(**{key: backend})
        if op == "estimate_two_stage":
            params["refine_budget"] = 4
        with ReproClient(server.address, timeout=60) as client:
            with pytest.raises(ServerError) as error:
                client.request(op, **params)
            assert client.ping()
        message = str(error.value)
        assert f"{key}={backend!r}" in message
        assert "300-row frame" in message
        assert (f"MAX_REFINE_ROWS ({protocol.MAX_REFINE_ROWS})"
                in message)
    assert server.scheduler.counters()["dispatch_groups"] == 0
    assert ran == []
    # The same frame on the analytic backend passes, and so does an
    # event-driven frame of MAX_REFINE_ROWS rows.
    protocol.check_estimate_bounds(_query(**{key: "analytic"}))
    protocol.check_estimate_bounds(_query(**{
        key: "badco", "sample": protocol.MAX_REFINE_ROWS}))


@pytest.mark.parametrize("op, overrides", [
    ("estimate_two_stage", {"refine_backend": "detailed",
                            "refine_budget": protocol.MAX_REFINE_ROWS}),
    ("estimate", {"backend": "detailed",
                  "sample": protocol.MAX_REFINE_ROWS}),
], ids=["detailed-refine", "detailed-frame"])
def test_a_detailed_row_is_priced_as_what_it_costs(server, monkeypatch, op,
                                                   overrides):
    """A detailed row costs many BADCO rows (``ROW_COST``): a 40-row
    detailed refine, or a detailed estimate over a 40-row frame, fails
    alone before it is scheduled, while a 40-row BADCO refine passes."""
    ran = []

    def refuse(self, *args, **kwargs):
        ran.append(kwargs)
        raise RuntimeError("the oversize estimate ran")

    monkeypatch.setattr(Session, "estimate_full_scale", refuse)
    monkeypatch.setattr(Session, "estimate_two_stage", refuse)
    with ReproClient(server.address, timeout=60) as client:
        with pytest.raises(ServerError) as error:
            client.request(op, **_query(**overrides))
        assert client.ping()
    message = str(error.value)
    assert "'detailed'" in message
    assert f"MAX_REFINE_ROWS ({protocol.MAX_REFINE_ROWS})" in message
    assert server.scheduler.counters()["dispatch_groups"] == 0
    assert ran == []
    assert protocol.ROW_COST["detailed"] > 1
    protocol.check_estimate_bounds(_query(
        refine_backend="badco", refine_budget=protocol.MAX_REFINE_ROWS))
    protocol.check_estimate_bounds(_query(
        refine_backend="detailed",
        refine_budget=protocol.MAX_REFINE_ROWS
        // protocol.ROW_COST["detailed"]))


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
