"""Standalone anchors: one memoised, stored run behind both backends'
reference IPCs, shared across policies when its LLC never evicts."""

import dataclasses

import pytest

from repro.core.workload import Workload
from repro.mem import replacement
from repro.mem.replacement import POLICY_NAMES
from repro.mem.uncore import uncore_config_for_cores
from repro.sim.analytic import AnalyticModelBuilder
from repro.sim.badco import BadcoModelBuilder, BadcoSimulator
from repro.sim.modelstore import ModelStore

from tests.conftest import TEST_TRACE_LENGTH

TRACE = TEST_TRACE_LENGTH

#: At this trace length mcf and soplex evict LLC lines running alone on
#: the 2-core uncore; nothing evicts alone on the 4-core one.
BENCHMARKS = ("gcc", "libquantum", "mcf", "povray", "soplex")
EVICTING = {2: {"mcf", "soplex"}, 4: set()}

POLICIES = sorted(replacement._REGISTRY)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A store holding the benchmarks' trained node models only."""
    store = ModelStore(tmp_path_factory.mktemp("anchor-models"))
    builder = BadcoModelBuilder(TRACE, 0, store=store)
    for benchmark in BENCHMARKS:
        builder.build(benchmark)
    return store


def _builder(models, benchmarks=BENCHMARKS):
    """A builder holding these node models and no anchor at all."""
    builder = BadcoModelBuilder(TRACE, 0, store=models)
    for benchmark in benchmarks:
        builder.build(benchmark)
    builder.use_store(None)
    return builder


def _hexed(anchor):
    return {name: float.hex(value)
            for name, value in dataclasses.asdict(anchor).items()}


@pytest.fixture(scope="module", params=[2, 4], ids=["2core", "4core"])
def sweep(request, models):
    """One builder asked for every (benchmark, policy) anchor in turn.

    Returns the core count, the builder, the anchors and the anchor
    runs each benchmark cost.
    """
    cores = request.param
    builder = _builder(models)
    anchors, runs = {}, dict.fromkeys(BENCHMARKS, 0)
    for policy in POLICIES:
        config = uncore_config_for_cores(cores, policy)
        for benchmark in BENCHMARKS:
            before = builder.anchor_runs
            anchors[benchmark, policy] = builder.anchor(benchmark, config)
            runs[benchmark] += builder.anchor_runs - before
    return cores, builder, anchors, runs


def test_shared_anchors_equal_fresh_ones_bit_for_bit(sweep, models):
    cores, _, anchors, _ = sweep
    for (benchmark, policy), anchor in anchors.items():
        fresh = _builder(models, (benchmark,))
        alone = fresh.anchor(benchmark,
                             uncore_config_for_cores(cores, policy))
        assert fresh.anchor_runs == 1
        assert _hexed(anchor) == _hexed(alone), (benchmark, policy)


def test_evicting_anchors_are_simulated_once_per_policy(sweep):
    cores, builder, _, runs = sweep
    assert runs == {benchmark: (len(POLICIES)
                                if benchmark in EVICTING[cores] else 1)
                    for benchmark in BENCHMARKS}
    assert builder.anchor_runs == sum(runs.values())


def test_anchor_ipc_is_the_one_core_run_and_the_reference_ipc(sweep):
    cores, builder, anchors, _ = sweep
    runs = builder.anchor_runs
    for (benchmark, policy), anchor in anchors.items():
        config = uncore_config_for_cores(cores, policy)
        one_core = BadcoSimulator(1, policy, builder=builder,
                                  trace_length=TRACE, uncore_config=config)
        ipc = one_core.run(Workload([benchmark])).ipcs[0]
        assert float.hex(ipc) == float.hex(anchor.ipc), (benchmark, policy)
        machine = BadcoSimulator(cores, policy, builder=builder,
                                 trace_length=TRACE)
        assert float.hex(machine.reference_ipc(benchmark)) == float.hex(ipc)
    assert builder.anchor_runs == runs      # references simulate nothing


def test_calibrations_key_on_warmup_and_the_whole_uncore(models):
    """Anchors are memoised per whole uncore configuration, and a
    stored anchor's signature digests the warmup metering as well: the
    literal pins ``WARMUP_FRACTION`` (and every other part) at 0.25, so
    a shift renames every ``calib`` record and fails here first."""
    builder = AnalyticModelBuilder(
        TRACE, 0, badco_builder=_builder(models, ("mcf",)))
    config = uncore_config_for_cores(2, "LRU")
    quarter = builder.calibrate("mcf", config)
    unprefetched = dataclasses.replace(config, stream_prefetcher=False)
    plain = builder.calibrate("mcf", unprefetched)
    assert plain != quarter
    fresh = AnalyticModelBuilder(
        TRACE, 0, badco_builder=_builder(models, ("mcf",)))
    assert fresh.calibrate("mcf", unprefetched) == plain
    assert (BadcoModelBuilder(3000, 0)._calibration_signature(config)
            == "776f6d74e24e93e9")


def test_a_policy_reaches_the_analytic_model_only_through_anchors(
        tmp_path):
    """Preparing every policy's 2-core grid on a fresh store trains
    node models and stores ``calib`` and ``vector`` records, nothing
    else, and every calibration run is a standalone anchor."""
    builder = AnalyticModelBuilder(TRACE, 0, store=ModelStore(tmp_path))
    builder.prepare(BENCHMARKS, POLICY_NAMES, 2)
    kinds = {path.name.split("-")[0] for path in tmp_path.iterdir()
             if not path.name.startswith(".")}
    assert kinds == {"badco", "calib", "vector"}
    assert builder.calibration_runs == builder.badco.anchor_runs > 0
