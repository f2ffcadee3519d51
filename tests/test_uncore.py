"""The shared uncore."""

import gc
import weakref
from unittest import mock

import pytest

from repro.core.workload import Workload
from repro.mem.uncore import (
    Uncore,
    uncore_config_for_cores,
)
from repro.sim.badco import BadcoModelBuilder, BadcoSimulator
from repro.sim.badco import model as badco_model
from repro.sim.badco import multicore as badco_multicore
from repro.sim.interval import IntervalProfileBuilder, IntervalSimulator
from repro.sim.interval import multicore as interval_multicore

from tests.conftest import TEST_TRACE_LENGTH


def test_table_ii_scaled_sizes():
    """1 MB / 2 MB / 4 MB scaled by 16, latencies 5/6/7."""
    for cores, size_kb, latency in ((2, 64, 5), (4, 128, 6), (8, 256, 7)):
        config = uncore_config_for_cores(cores)
        assert config.llc_size == size_kb * 1024
        assert config.llc_latency == latency
        assert config.llc_ways == 16


def test_single_core_uses_reference_uncore():
    assert uncore_config_for_cores(1).llc_size == \
        uncore_config_for_cores(2).llc_size


def test_unknown_core_count_rejected():
    with pytest.raises(ValueError):
        uncore_config_for_cores(3)


def test_with_policy_copies():
    base = uncore_config_for_cores(4, "LRU")
    other = base.with_policy("DRRIP")
    assert other.policy == "DRRIP"
    assert base.policy == "LRU"
    assert other.llc_size == base.llc_size


def test_per_core_address_spaces_do_not_alias():
    """Same virtual line from two cores -> two LLC lines (two misses)."""
    uncore = Uncore(uncore_config_for_cores(2))
    uncore.port(0)(0x1000_0000, 0)
    uncore.port(1)(0x1000_0000, 1000)
    assert uncore.llc_demand_misses == 2


def test_same_core_hits_its_own_line():
    uncore = Uncore(uncore_config_for_cores(2))
    port = uncore.port(0)
    done = port(0x1000_0000, 0)
    port(0x1000_0000, done + 1)
    assert uncore.llc_demand_misses == 1
    assert uncore.llc.stats.demand_hits == 1


def test_requests_counted_per_core():
    uncore = Uncore(uncore_config_for_cores(2))
    uncore.port(0)(0x0, 0)
    uncore.port(0)(0x40, 10)
    uncore.port(1)(0x0, 20)
    assert uncore.requests_per_core == [2, 1]


def test_prefetch_requests_do_not_count_demand():
    uncore = Uncore(uncore_config_for_cores(2))
    uncore.port(0)(0x1000_0000, 0, is_prefetch=True)
    assert uncore.llc_demand_misses == 0
    assert uncore.llc.stats.prefetch_issued == 1


def test_reset_statistics():
    uncore = Uncore(uncore_config_for_cores(2))
    port = uncore.port(0)
    port(0x0, 0)
    uncore.reset_statistics()
    assert uncore.llc_demand_misses == 0
    assert uncore.requests_per_core == [0, 0]
    port(0x40, 10)                      # a port counts on after a reset
    assert uncore.requests_per_core == [1, 0]


def test_policy_is_constructed_from_config():
    uncore = Uncore(uncore_config_for_cores(4, "DRRIP"))
    assert uncore.llc.policy.name == "DRRIP"


@pytest.fixture(scope="module")
def builders():
    """Warm BADCO and interval builders (training makes reference
    cycles of its own, in the detailed core, so it runs out here)."""
    badco = BadcoModelBuilder(TEST_TRACE_LENGTH, 0)
    interval = IntervalProfileBuilder(TEST_TRACE_LENGTH, 0)
    for benchmark in ("bwaves", "mcf"):
        badco.build(benchmark)
        interval.build(benchmark)
    return badco, interval


def _badco_run(builders):
    BadcoSimulator(2, "DRRIP", builder=builders[0],
                   trace_length=TEST_TRACE_LENGTH).run(
        Workload(["bwaves", "mcf"]))


def _interval_run(builders):
    IntervalSimulator(2, "DRRIP", builder=builders[1],
                      trace_length=TEST_TRACE_LENGTH).run(
        Workload(["bwaves", "mcf"]))


def _anchor(builders):
    builders[0].anchor("mcf", uncore_config_for_cores(2, "LRU"))


@pytest.mark.parametrize("run, module", [
    (_badco_run, badco_multicore),
    (_interval_run, interval_multicore),
    (_anchor, badco_model),
], ids=["BadcoSimulator.run", "IntervalSimulator.run",
        "BadcoModelBuilder.anchor"])
def test_a_runs_uncore_is_freed_by_reference_counting(builders, run, module):
    """No reference cycle keeps a run's uncore alive until the cyclic
    collector runs: the uncore, its LLC and its stream prefetcher are
    gone the moment the run returns."""
    refs = []

    class RecordingUncore(Uncore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.extend(weakref.ref(part)
                        for part in (self, self.llc, self.prefetcher))

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(module, "Uncore", RecordingUncore):
            run(builders)
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()
