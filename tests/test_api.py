"""The public API: backend registry, campaign configs, Session, jobs."""

import numpy as np
import pytest

from repro.api import (
    BACKENDS,
    Campaign,
    CampaignConfig,
    Scale,
    Session,
    UnknownBackendError,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.workload import Workload
from repro.sim.badco.multicore import BadcoSimulator
from repro.sim.detailed import DetailedSimulator
from repro.sim.interval.multicore import IntervalSimulator

from tests.conftest import TEST_TRACE_LENGTH

#: Benchmarks for API tests: 4 names -> C(5, 2) = 10 two-core workloads.
API_BENCHMARKS = ["povray", "hmmer", "gcc", "mcf"]


# ----------------------------------------------------------------------
# Backend registry


def test_builtin_backends_registered():
    assert backend_names() == ("analytic", "badco", "detailed", "interval")
    assert get_backend("detailed").name == "detailed"
    assert get_backend("badco").name == "badco"
    assert get_backend("interval").name == "interval"
    assert get_backend("analytic").name == "analytic"


def test_batch_capability_flags():
    from repro.api import backend_supports_batch

    for name in ("analytic", "badco", "interval"):
        assert backend_supports_batch(get_backend(name))
    assert not backend_supports_batch(get_backend("detailed"))


def test_backends_construct_their_simulator_family():
    from repro.sim.analytic import AnalyticSimulator

    classes = {"detailed": DetailedSimulator, "badco": BadcoSimulator,
               "interval": IntervalSimulator, "analytic": AnalyticSimulator}
    for name, cls in classes.items():
        simulator = get_backend(name).make_simulator(
            2, "LRU", TEST_TRACE_LENGTH, 0.25, 0)
        assert isinstance(simulator, cls)
        assert simulator.cores == 2
        assert simulator.policy == "LRU"
        assert simulator.trace_length == TEST_TRACE_LENGTH


def test_unknown_backend_lists_known_names():
    with pytest.raises(UnknownBackendError) as excinfo:
        get_backend("zesto")
    message = str(excinfo.value)
    for name in backend_names():
        assert name in message


def test_register_backend_roundtrip():
    class FakeBackend:
        name = "fake"

        def make_builder(self, trace_length, seed):
            return None

        def make_simulator(self, cores, policy, trace_length,
                           warmup_fraction, seed, builder=None):
            raise NotImplementedError

    backend = FakeBackend()
    try:
        assert register_backend(backend) is backend
        assert get_backend("fake") is backend
        assert "fake" in backend_names()
        with pytest.raises(ValueError):
            register_backend(FakeBackend())        # duplicate name
        replacement = FakeBackend()
        register_backend(replacement, replace=True)
        assert get_backend("fake") is replacement
    finally:
        BACKENDS.pop("fake", None)
    with pytest.raises(UnknownBackendError):
        get_backend("fake")


def test_register_backend_requires_name():
    class Nameless:
        name = ""

    with pytest.raises(ValueError):
        register_backend(Nameless())


# ----------------------------------------------------------------------
# CampaignConfig


def test_cache_key_is_stable_and_excludes_execution_knobs(tmp_path):
    config = CampaignConfig(backend="badco", cores=2, trace_length=6000,
                            seed=0, warmup_fraction=0.25)
    assert config.cache_key == "badco-k2-l6000-s0-w25-v3"
    # jobs and cache_dir are execution knobs, not result identity.
    assert config.replace(jobs=8).cache_key == config.cache_key
    assert config.replace(cache_dir=tmp_path).cache_key == config.cache_key
    # Simulation fields all land in the key.
    assert config.replace(backend="interval").cache_key != config.cache_key
    assert config.replace(cores=4).cache_key != config.cache_key
    assert config.replace(trace_length=3000).cache_key != config.cache_key
    assert config.replace(seed=1).cache_key != config.cache_key
    assert config.replace(warmup_fraction=0.5).cache_key != config.cache_key


def test_signature_exclude_partitions_the_fields(tmp_path):
    """_SIGNATURE_EXCLUDE and the key fields exactly cover the config.

    The static side of this contract is REP003 (cache-key-drift) in
    ``repro.analysis``; this is the dynamic side: every non-excluded
    field changes the cache key when its value changes, and every
    excluded field does not.
    """
    import dataclasses

    names = {field.name for field in dataclasses.fields(CampaignConfig)}
    exclude = CampaignConfig._SIGNATURE_EXCLUDE
    assert exclude <= names, "stale names in _SIGNATURE_EXCLUDE"
    changed = {
        "backend": "interval", "cores": 5, "trace_length": 4321,
        "seed": 99, "warmup_fraction": 0.5, "jobs": 6,
        "cache_dir": tmp_path, "model_store_dir": tmp_path,
    }
    assert set(changed) == names, (
        "new CampaignConfig field: classify it in _SIGNATURE_EXCLUDE "
        "or the cache key, then extend this test's changed-value map")
    base = CampaignConfig()
    for name in sorted(names):
        variant = base.replace(**{name: changed[name]})
        if name in exclude:
            assert variant.cache_key == base.cache_key, name
        else:
            assert variant.cache_key != base.cache_key, name


def test_config_cache_path_is_versioned(tmp_path):
    config = CampaignConfig(backend="detailed", cores=4, trace_length=3000,
                            seed=7, warmup_fraction=0.25, cache_dir=tmp_path)
    assert config.cache_path == tmp_path / "detailed-k4-l3000-s7-w25-v3.npz"
    assert CampaignConfig(backend="detailed", cores=4).cache_path is None


def test_config_is_frozen_and_hashable():
    config = CampaignConfig()
    with pytest.raises(AttributeError):
        config.cores = 4
    assert config == CampaignConfig()
    assert hash(config) == hash(CampaignConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(cores=0)
    with pytest.raises(ValueError):
        CampaignConfig(jobs=-1)
    with pytest.raises(ValueError):
        CampaignConfig(warmup_fraction=1.0)
    with pytest.raises(ValueError):
        CampaignConfig(trace_length=0)


def test_jobs_zero_means_one_worker_per_cpu():
    """The jobs=0 auto knob (and its resolver) across the API layers.

    ``jobs=2`` on a single-core host only pays fork overhead, so the
    config, the batch entry points and the CLI all accept ``jobs=0``
    as "size the pool to the machine".
    """
    import os

    from repro.api.config import resolve_jobs

    expected = max(1, os.cpu_count() or 1)
    assert resolve_jobs(0) == expected
    assert resolve_jobs(3) == 3            # explicit counts are honored
    with pytest.raises(ValueError):
        resolve_jobs(-1)
    assert CampaignConfig(jobs=0).jobs == expected
    # Auto-sized jobs stay an execution knob: same cache identity.
    assert (CampaignConfig(jobs=0).cache_key
            == CampaignConfig(jobs=1).cache_key)


def test_campaign_rejects_unknown_backend():
    with pytest.raises(ValueError):
        Campaign(CampaignConfig(backend="zesto"))


# ----------------------------------------------------------------------
# Session facade


@pytest.fixture(scope="module")
def small_session():
    return Session(Scale.SMALL, seed=0, cache_dir=None,
                   benchmarks=API_BENCHMARKS)


def test_session_accepts_scale_names():
    assert Session("small", cache_dir=None).scale is Scale.SMALL
    with pytest.raises(ValueError):
        Session("enormous", cache_dir=None)


def test_session_memoises_building_blocks(small_session):
    assert small_session.population(2) is small_session.population(2)
    assert small_session.campaign("badco", 2) is \
        small_session.campaign("badco", 2)
    assert small_session.builder("badco") is small_session.builder("badco")
    assert small_session.builder("detailed") is None


def test_session_study_matches_hand_wired_path():
    """The facade and a hand-wired campaign + study agree exactly."""
    from repro.core.metrics import IPCT
    from repro.core.study import PolicyComparisonStudy

    session = Session(Scale.SMALL, seed=0, cache_dir=None,
                      benchmarks=API_BENCHMARKS)
    study = session.study("LRU", "DIP", metric="IPCT", cores=2,
                          backend="badco")

    other = Session(Scale.SMALL, seed=0, cache_dir=None,
                    benchmarks=API_BENCHMARKS)
    campaign = Campaign(other.config("badco", 2))
    campaign.run_grid(other.population(2), ["LRU", "DIP"])
    campaign.reference_ipcs(API_BENCHMARKS)
    results = campaign.results
    hand_wired = PolicyComparisonStudy(
        other.population(2), results.ipc_table("LRU"),
        results.ipc_table("DIP"), IPCT, results.reference)

    assert study.inverse_cv == hand_wired.inverse_cv
    assert study.statistics.mean == hand_wired.statistics.mean
    assert study.delta_column.index.same_rows(hand_wired.delta_column.index)
    assert np.array_equal(study.delta_column.values,
                          hand_wired.delta_column.values)


def test_session_study_rejects_unknown_policy(small_session):
    with pytest.raises(ValueError):
        small_session.study("LRU", "BOGUS", cores=2)


def test_session_results_reuses_campaign(small_session):
    first = small_session.results("badco", 2, policies=["LRU"])
    simulations = small_session.campaign("badco", 2).timing.simulations
    second = small_session.results("badco", 2, policies=["LRU"])
    assert first is second
    assert small_session.campaign("badco", 2).timing.simulations == \
        simulations


# ----------------------------------------------------------------------
# Parallel campaigns


def test_parallel_grid_is_bit_identical_to_serial():
    """jobs=4 must reproduce jobs=1 exactly, at Scale.SMALL sizes."""
    serial = Session(Scale.SMALL, seed=0, jobs=1, cache_dir=None,
                     benchmarks=API_BENCHMARKS)
    parallel = Session(Scale.SMALL, seed=0, jobs=4, cache_dir=None,
                       benchmarks=API_BENCHMARKS)
    policies = ["LRU", "DIP"]
    results_serial = serial.results("badco", 2, policies=policies)
    results_parallel = parallel.results("badco", 2, policies=policies)
    population = serial.population(2)
    for workload in population:
        for policy in policies:
            assert results_serial.ipcs(policy, workload) == \
                results_parallel.ipcs(policy, workload)
    # Bit-identical all the way down to the serialised form.
    assert results_serial.to_json() == results_parallel.to_json()


def test_parallel_grid_memoises_like_serial():
    config = CampaignConfig(backend="badco", cores=2,
                            trace_length=TEST_TRACE_LENGTH, jobs=2)
    campaign = Campaign(config)
    workloads = [Workload(["povray", "hmmer"]), Workload(["povray", "gcc"])]
    campaign.run_grid(workloads, ["LRU"])
    simulations = campaign.timing.simulations
    assert simulations == 2
    campaign.run_grid(workloads, ["LRU"])     # fully memoised: no new work
    assert campaign.timing.simulations == simulations


def test_parallel_interval_backend():
    config = CampaignConfig(backend="interval", cores=2,
                            trace_length=TEST_TRACE_LENGTH, jobs=2)
    results = Campaign(config).run_grid(
        [Workload(["povray", "hmmer"])], ["LRU", "FIFO"])
    assert len(results) == 2
    serial = Campaign(config.replace(jobs=1)).run_grid(
        [Workload(["povray", "hmmer"])], ["LRU", "FIFO"])
    assert results.to_json() == serial.to_json()


def test_simulation_is_reproducible_across_processes():
    """IPCs must not depend on the interpreter's hash salt.

    Guards the campaign cache and the parallel engine: a result
    computed in one process (or loaded from disk) must be exactly
    reproducible in any other.
    """
    import json
    import os
    import subprocess
    import sys

    script = (
        "import json, sys\n"
        "from repro.core.workload import Workload\n"
        "from repro.sim.detailed import DetailedSimulator\n"
        f"sim = DetailedSimulator(cores=2, policy='DIP', "
        f"trace_length={TEST_TRACE_LENGTH}, seed=0)\n"
        "run = sim.run(Workload(['povray', 'mcf']))\n"
        "json.dump(run.ipcs, sys.stdout)\n"
    )
    ipcs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH="src" + os.pathsep +
                   os.environ.get("PYTHONPATH", ""))
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout
        ipcs.append(json.loads(output))
    assert ipcs[0] == ipcs[1]
