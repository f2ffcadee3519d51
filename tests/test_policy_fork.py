"""One run per row for every policy: the BADCO and interval policy axis.

``EventDrivenSimulator.run_batch(workloads, policies)`` runs a row once,
feeding every policy's LLC hooks through a tee, until the first step
boundary at which some LLC set is full; each policy then finishes on its
own fork of the run.  Every answer must equal the policy's own run bit
for bit, which these tests check against independent runs -- for all
twelve policies on random rows, on a row that never fills a set, on a
row whose filling step also needs a victim, and through the engine's
process pool -- and a fork must share no mutable state with its source.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Campaign, CampaignConfig
from repro.bench.spec import benchmark_names
from repro.core.workload import Workload
from repro.mem.replacement import POLICY_NAMES, make_policy
from repro.mem.replacement import _REGISTRY as POLICY_REGISTRY
from repro.mem.uncore import Uncore, UncoreConfig, uncore_config_for_cores
from repro.sim import detailed
from repro.sim.badco import BadcoMachine, BadcoModelBuilder, BadcoSimulator
from repro.sim.interval import (
    IntervalMachine,
    IntervalProfileBuilder,
    IntervalSimulator,
)

from tests.conftest import TEST_TRACE_LENGTH

#: Every registered policy (the paper's five and the seven others).
ALL_POLICIES = tuple(sorted(POLICY_REGISTRY))

FAMILIES = {"badco": (BadcoSimulator, BadcoModelBuilder),
            "interval": (IntervalSimulator, IntervalProfileBuilder)}
MACHINES = {"badco": BadcoMachine, "interval": IntervalMachine}


@pytest.fixture(scope="module")
def builders():
    """One lazily trained builder per family, shared by every case."""
    return {name: builder(TEST_TRACE_LENGTH, 0)
            for name, (_, builder) in FAMILIES.items()}


def _simulator(builders, family, cores, policy="LRU", **options):
    return FAMILIES[family][0](cores, policy, builder=builders[family],
                               trace_length=TEST_TRACE_LENGTH, **options)


def _per_policy(builders, family, rows, policies, **options):
    """Each policy's own ``run_batch``: the oracle of the grid."""
    return [_simulator(builders, family, rows[0].k, policy,
                       **options).run_batch(rows) for policy in policies]


def _assert_grid_is_per_policy(grid, singles):
    for column, (policy, single) in enumerate(zip(grid.policies, singles)):
        assert np.array_equal(grid.ipcs[:, column, :],
                              single.panel(policy)), column
    assert grid.instructions == sum(single.instructions
                                    for single in singles)


@pytest.fixture()
def spy(monkeypatch):
    """Counts forks and the tee's refused victim calls."""
    seen = {"forks": 0, "refusals": 0}
    fork, victim = Uncore.fork, detailed._PolicyTee.victim

    def counted_fork(self, policy):
        seen["forks"] += 1
        return fork(self, policy)

    def counted_victim(self, set_index):
        seen["refusals"] += 1
        return victim(self, set_index)

    monkeypatch.setattr(Uncore, "fork", counted_fork)
    monkeypatch.setattr(detailed._PolicyTee, "victim", counted_victim)
    return seen


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(sorted(FAMILIES)),
       cores=st.sampled_from([2, 4, 8]),
       data=st.data())
def test_grid_equals_every_policys_own_run(builders, family, cores, data):
    """All twelve policies, in any order, on a random row: each
    policy's IPCs and executed uops are its own run's, bit for bit."""
    row = Workload(data.draw(st.lists(st.sampled_from(benchmark_names()),
                                      min_size=cores, max_size=cores)))
    policies = tuple(data.draw(st.permutations(ALL_POLICIES)))
    grid = _simulator(builders, family, cores).run_batch([row], policies)
    assert grid.policies == policies
    assert grid.ipcs.shape == (1, len(policies), cores)
    _assert_grid_is_per_policy(
        grid, _per_policy(builders, family, [row], policies))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_that_fill_a_set_fork_and_stay_exact(builders, family, spy):
    """At the Table II uncore these rows fill an LLC set, so the paper's
    five policies fork; the panels still equal independent runs."""
    rows = [Workload(["bwaves", "mcf", "milc", "omnetpp"]),
            Workload(["astar", "astar", "astar", "astar"]),
            Workload(["gcc", "libquantum", "mcf", "soplex"])]
    grid = _simulator(builders, family, 4).run_batch(rows, POLICY_NAMES)
    assert spy["forks"] >= len(POLICY_NAMES) - 1
    _assert_grid_is_per_policy(
        grid, _per_policy(builders, family, rows, POLICY_NAMES))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_row_that_never_fills_a_set_runs_once(builders, family, spy,
                                                monkeypatch):
    """An LLC far larger than the row's footprint never needs a victim,
    so its run is every policy's: the steppers advance once for all."""
    machine = MACHINES[family]
    steps = [0]
    advance = machine.advance

    def counted(self):
        steps[0] += 1
        return advance(self)

    monkeypatch.setattr(machine, "advance", counted)
    roomy = UncoreConfig(cores=2, llc_size=64 * 1024 * 1024, llc_latency=5)
    row = [Workload(["gcc", "mcf"])]
    singles = _per_policy(builders, family, row, ("LRU",),
                          uncore_config=roomy)
    alone = steps[0]
    steps[0] = 0
    policies = ("LRU", "DIP", "RND", "SHIP")
    grid = _simulator(builders, family, 2,
                      uncore_config=roomy).run_batch(row, policies)
    assert steps[0] == alone
    assert spy["forks"] == spy["refusals"] == 0
    for column in range(len(policies)):
        assert np.array_equal(grid.ipcs[:, column, :],
                              singles[0].panel("LRU"))
    assert grid.instructions == len(policies) * singles[0].instructions


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_victim_in_the_filling_step_falls_back_exactly(builders, family,
                                                         spy):
    """A 2-set, 4-way LLC fills its first set in a step that goes on to
    need a victim (gcc + mcf, on either family): the tee refuses, every
    policy runs alone, and the answers are still every policy's own."""
    tiny = UncoreConfig(cores=2, llc_size=2 * 4 * 64, llc_latency=5,
                        llc_ways=4)
    rows = [Workload(["gcc", "mcf"]), Workload(["bwaves", "povray"])]
    policies = ("LRU", "DIP", "RND")
    grid = _simulator(builders, family, 2,
                      uncore_config=tiny).run_batch(rows, policies)
    assert spy["refusals"] >= 1
    _assert_grid_is_per_policy(grid, _per_policy(
        builders, family, rows, policies, uncore_config=tiny))


def _uncore_state(uncore):
    """Every piece of an uncore's mutable state, as plain values."""
    llc = uncore.llc
    prefetcher = uncore.prefetcher
    return {
        "slots": dict(llc._slots), "valid": list(llc._valid),
        "lines": list(llc._lines), "dirty": list(llc._dirty),
        "ready": list(llc._ready), "prefetch": list(llc._by_prefetch),
        "outstanding": sorted(llc._outstanding),
        "full_sets": llc.full_sets, "stats": dict(vars(llc.stats)),
        "memory": (uncore.memory.reads, uncore.memory.writes,
                   uncore.memory.busy_cycles, uncore.memory.bus_free),
        "frames": uncore._frames._next_frame,
        "pages": [dict(table.mapping) for table in uncore._page_tables],
        "streams": dict(prefetcher._table),
        "requests": list(uncore.requests_per_core),
    }


def test_a_fork_shares_no_mutable_state(builders):
    """Mutating a fork's LLC, page tables, bus, prefetcher, machine and
    meter leaves the source exactly as it was."""
    config = uncore_config_for_cores(2)
    llc = config.llc

    def policy(name):
        return make_policy(name, llc.num_sets, llc.ways, seed=0)

    uncore = Uncore(config, policy=policy("LRU"))
    port = uncore.port(0)
    for index in range(3000):
        port.access(0x10_0000 + 64 * index, 3 * index, index % 5 == 0, 0,
                    index % 7 == 0)
    assert uncore.llc.full_sets > 0
    model = builders["badco"].build("mcf")
    machine = BadcoMachine(model, port)
    for _ in range(50):
        machine.advance()
    # Past the warmup, one uop short of the quota.
    meter = detailed._MeasuredThread(10, machine.executed + 1)
    meter.measure(0, 0.0, machine.executed, machine.local_time)
    before = _uncore_state(uncore)
    where = (machine.position, machine.local_time, machine.executed)
    metered = (meter.start_time, meter.end_time)

    twin = uncore.fork(policy("DIP"))
    assert twin.llc.policy.name == "DIP"
    assert uncore.llc.policy.name == "LRU"
    assert _uncore_state(twin) == before
    twin_port, other = twin.port(0), twin.port(1).access
    twin_machine = machine.copy(twin_port)
    twin_meter = copy.copy(meter)
    for index in range(4000):
        twin_port.access(0x90_0000 + 64 * index, 10 ** 6 + index, True, 0,
                         False)
        other(0x10_0000 + 64 * index, 10 ** 6 + index, False, 0, False)
    for _ in range(50):
        step = (twin_machine.executed, twin_machine.local_time)
        twin_machine.advance()
        twin_meter.measure(*step, twin_machine.executed,
                           twin_machine.local_time)
    assert twin_meter.end_time is not None
    assert _uncore_state(twin) != before
    assert _uncore_state(uncore) == before
    assert (machine.position, machine.local_time, machine.executed) == where
    assert (meter.start_time, meter.end_time) == metered


def test_a_badco_grid_is_jobs_invariant():
    """The engine hands BADCO one grid per row chunk: its panels at
    ``jobs=2`` (a two-process pool) equal the serial grid's."""
    rows = [Workload(row) for row in (
        ("bwaves", "mcf", "milc", "omnetpp"),
        ("astar", "astar", "astar", "astar"),
        ("gcc", "libquantum", "mcf", "soplex"),
        ("bzip2", "gcc", "namd", "povray"))]
    results = {}
    for jobs in (1, 2):
        campaign = Campaign(CampaignConfig(
            backend="badco", cores=4, trace_length=TEST_TRACE_LENGTH,
            jobs=jobs))
        campaign.run_grid(rows, POLICY_NAMES)
        assert campaign.timing.simulations == len(rows) * len(POLICY_NAMES)
        results[jobs] = campaign.results
    _, serial = results[1].columnar_panel(POLICY_NAMES, rows)
    _, pooled = results[2].columnar_panel(POLICY_NAMES, rows)
    for policy in POLICY_NAMES:
        assert np.array_equal(serial[policy].values, pooled[policy].values)
    assert results[1].to_json() == results[2].to_json()
