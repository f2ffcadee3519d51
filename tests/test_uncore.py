"""The shared uncore."""

import collections
import gc
import sys
import weakref
from pathlib import Path
from unittest import mock

import pytest

from repro.core.workload import Workload
from repro.cpu.core import DetailedCore
from repro.mem.cache import Cache, CacheConfig
from repro.mem.replacement import ReplacementPolicy, make_policy
from repro.mem.replacement.base import HOOKS, active_hook
from repro.mem.uncore import (
    Uncore,
    uncore_config_for_cores,
)
from repro.sim import detailed
from repro.sim.badco import BadcoModelBuilder, BadcoSimulator
from repro.sim.badco import model as badco_model
from repro.sim.interval import IntervalProfileBuilder, IntervalSimulator

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
    uncore.port(0).access(0x1000_0000, 0)
    uncore.port(1).access(0x1000_0000, 1000)
    assert uncore.llc_demand_misses == 2


def test_same_core_hits_its_own_line():
    uncore = Uncore(uncore_config_for_cores(2))
    port = uncore.port(0).access
    done = port(0x1000_0000, 0)
    port(0x1000_0000, done + 1)
    assert uncore.llc_demand_misses == 1
    assert uncore.llc.stats.demand_hits == 1


def test_requests_counted_per_core():
    uncore = Uncore(uncore_config_for_cores(2))
    uncore.port(0).access(0x0, 0)
    uncore.port(0).access(0x40, 10)
    uncore.port(1).access(0x0, 20)
    assert uncore.requests_per_core == [2, 1]


def test_prefetch_requests_do_not_count_demand():
    uncore = Uncore(uncore_config_for_cores(2))
    uncore.port(0).access(0x1000_0000, 0, is_prefetch=True)
    assert uncore.llc_demand_misses == 0
    assert uncore.llc.stats.prefetch_issued == 1


def test_reset_statistics():
    uncore = Uncore(uncore_config_for_cores(2))
    port = uncore.port(0).access
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
    """Warm BADCO and interval builders, trained once for every case."""
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


def _detailed_run(builders):
    detailed.DetailedSimulator(2, "DRRIP",
                               trace_length=TEST_TRACE_LENGTH).run(
        Workload(["bwaves", "mcf"]))


def _anchor(builders):
    builders[0].anchor("mcf", uncore_config_for_cores(2, "LRU"))


def _badco_grid(builders):
    # bwaves + mcf fills an LLC set: DRRIP forks, LRU keeps the original.
    BadcoSimulator(2, "DRRIP", builder=builders[0],
                   trace_length=TEST_TRACE_LENGTH).run_batch(
        [Workload(["bwaves", "mcf"])], ("DRRIP", "LRU"))


@pytest.mark.parametrize("run, module, uncores, cores, ports", [
    (_badco_run, detailed, 1, 0, 2),
    (_interval_run, detailed, 1, 0, 2),
    (_detailed_run, detailed, 1, 2, 2),
    (_anchor, badco_model, 1, 0, 1),
    (_badco_grid, detailed, 2, 0, 4),
], ids=["BadcoSimulator.run", "IntervalSimulator.run",
        "DetailedSimulator.run", "BadcoModelBuilder.anchor",
        "BadcoSimulator.run_batch_grid"])
def test_a_runs_uncore_is_freed_by_reference_counting(builders, run, module,
                                                      uncores, cores, ports):
    """No reference cycle keeps a run's uncore alive until the cyclic
    collector runs: the uncore, its LLC and its stream prefetcher -- and
    those of the fork a grid's second policy finishes on -- are gone
    the moment the run returns, and so are every port's ``access`` and
    ``post`` closures, a detailed run's cores and their L1s, whose
    pipelines hold the L1s' access closures."""
    refs = []

    class RecordingUncore(Uncore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.extend(weakref.ref(part)
                        for part in (self, self.llc, self.prefetcher))

        def port(self, core_id):
            port = super().port(core_id)
            refs.extend(weakref.ref(closure) for closure in port)
            return port

    class RecordingCore(DetailedCore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.extend(weakref.ref(part)
                        for part in (self, self.il1, self.dl1))

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(module, "Uncore", RecordingUncore), \
                mock.patch.object(detailed, "DetailedCore", RecordingCore):
            run(builders)
        assert len(refs) == 3 * uncores + 3 * cores + 2 * ports
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def _calls(run, builders):
    """The Python calls ``run`` makes, by (file name, function name)."""
    counts = collections.Counter()

    def spy(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[Path(code.co_filename).name, code.co_name] += 1

    sys.setprofile(spy)
    try:
        run(builders)
    finally:
        sys.setprofile(None)
    return counts


def _anchor_run(builders):
    # The anchor's own run, not its memo.
    builders[0]._simulate_anchor("mcf", uncore_config_for_cores(2, "DIP"))


@pytest.mark.parametrize("run, kind", [
    (_badco_run, "badco"),
    (_badco_grid, "badco"),
    (_anchor_run, "badco"),
    (_interval_run, "interval"),
    (_detailed_run, "detailed"),
], ids=["BadcoSimulator.run", "BadcoSimulator.run_batch_grid",
        "BadcoModelBuilder._simulate_anchor", "IntervalSimulator.run",
        "DetailedSimulator.run"])
def test_the_uncore_costs_no_frame_per_transfer(builders, run, kind):
    """The frame budget of an event-driven run's uncore traffic: no
    call into the bus (the LLC's fill does its arithmetic), no call to
    meter a step or to ask whether to fork (``interleave`` does both
    inline), no adapter between a detailed core's L1s and its uncore
    port, and at most one ``post`` per BADCO node or interval (its
    non-blocking pairs in one call) -- a BADCO node also makes at most
    one ``access``, for its demand read."""
    counts = _calls(run, builders)
    # The bus is only built (and, for a fork, copied).
    assert {name for file, name in counts if file == "dram.py"} <= {
        "__init__", "transfer_cycles", "copy_from"}
    assert counts["detailed.py", "observe"] == 0
    assert counts["detailed.py", "<lambda>"] == 0
    assert counts["cache.py", "full_sets"] == 0
    assert counts["core.py", "next_level"] == 0
    if kind == "detailed":
        assert counts["cache.py", "post"] == 0
        return
    steps = counts["machine.py", "advance"]
    assert 0 < counts["cache.py", "post"] <= steps
    if kind == "badco":
        assert counts["cache.py", "access"] <= steps


class SpyPolicy(ReplacementPolicy):
    """Evicts way 0 and leaves every hook to the base class."""

    name = "SPY"

    def victim(self, set_index: int) -> int:
        return 0


@pytest.fixture()
def raising_base_hooks(monkeypatch):
    """The base class's no-op hooks raise while a test runs: a cache
    or tee that calls a hook its policy never defined fails."""
    def called_for_nothing(*args):
        raise AssertionError("a no-op hook was called")

    for name in HOOKS:
        monkeypatch.setattr(ReplacementPolicy, name, called_for_nothing)


def test_the_filter_drops_exactly_the_inherited_no_ops(raising_base_hooks):
    def active(policy):
        return [name for name in HOOKS
                if active_hook(policy, name) is not None]

    assert active(SpyPolicy(2, 2)) == []
    assert active(make_policy("RND", 2, 2)) == []
    assert active(make_policy("FIFO", 2, 2)) == ["on_fill"]
    assert active(make_policy("LRU", 2, 2)) == ["on_hit", "on_fill"]
    assert active(make_policy("DIP", 2, 2)) == list(HOOKS)
    assert active(detailed._PolicyTee(
        [make_policy("FIFO", 2, 2), make_policy("RND", 2, 2)])) == [
            "on_fill"]


def test_no_cache_or_tee_calls_a_hook_for_nothing(builders,
                                                  raising_base_hooks):
    """Neither an L1 (LRU leaves ``on_miss`` to the base), the LLC (FIFO
    and RND leave it more), nor the tee over them calls an inherited
    no-op: a detailed run, BADCO runs, a tee grid and a cache under a
    policy that defines no hook at all all finish."""
    row = Workload(["bwaves", "mcf"])
    detailed.DetailedSimulator(2, "RND",
                               trace_length=TEST_TRACE_LENGTH).run(row)
    for policies in (("FIFO",), ("RND",), ("FIFO", "RND"), ("RND", "LRU")):
        BadcoSimulator(2, policies[0], builder=builders[0],
                       trace_length=TEST_TRACE_LENGTH).run_batch(
            [row], policies)
    config = CacheConfig(name="L", size_bytes=4 * 2 * 64, ways=2)
    cache = Cache(config, SpyPolicy(config.num_sets, config.ways))
    port = cache.port().access
    for now, line in enumerate((0, 1, 0, 4, 8, 1, 12, 0)):
        port(line * 64, 10 * now, now % 3 == 0)
    assert cache.stats.evictions > 0 and cache.stats.demand_hits > 0
    uncore = Uncore(uncore_config_for_cores(2), policy=detailed._PolicyTee(
        [SpyPolicy(64, 16), SpyPolicy(64, 16)]))
    llc_port = uncore.port(0).access
    for index in range(64):
        llc_port(64 * index, index)
        llc_port(64 * index, 10 ** 4 + index)
    assert uncore.llc.stats.demand_hits == 64
