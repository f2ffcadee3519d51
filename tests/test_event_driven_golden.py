"""Golden pin of the event-driven simulators' absolute numbers.

The other BADCO, interval and detailed bit-identity tests compare two
runs of the same code (jobs=1 vs jobs=2, ``run`` vs ``run_batch``,
repeat runs), so a change that moves every run the same way passes
them all.  This file pins absolute values at ``TEST_TRACE_LENGTH``,
stored with floats as ``float.hex`` strings:

- ``run_batch`` per-core IPCs and executed instructions on the
  ``badco`` and ``interval`` simulators, for every registered
  replacement policy at 2 and 4 cores, plus one 8-core row;
- ``reference_ipc`` on both simulators;
- one 2-core :class:`~repro.sim.detailed.DetailedSimulator` run;
- one analytic :class:`~repro.sim.analytic.Calibration`;
- the LLC :class:`~repro.mem.cache.CacheStats` and the memory
  interface counters after one BADCO run;
- training, per benchmark: a sha256 of the trace's uop fields, of the
  BADCO node columns and of the interval profile, plus the
  :meth:`~repro.cpu.core.DetailedCore.result` counters of one
  standalone core run against a fixed-latency uncore.

Regenerate only for a deliberate numeric change, and say so::

    PYTHONPATH=src python -m tests.test_event_driven_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.bench.generator import cached_trace
from repro.core.workload import Workload
from repro.cpu.core import DetailedCore
from repro.cpu.resources import default_core_config
from repro.mem import replacement
from repro.mem.uncore import Uncore, uncore_config_for_cores
from repro.sim.analytic import AnalyticModelBuilder
from repro.sim.badco import BadcoModelBuilder, BadcoSimulator
from repro.sim.badco import multicore as badco_multicore
from repro.sim.detailed import DetailedSimulator
from repro.sim.interval import IntervalProfileBuilder, IntervalSimulator

from tests.conftest import TEST_TRACE_LENGTH
from tests.test_warm_path_golden import _hexed

GOLDEN = Path(__file__).with_name("golden") / "event_driven.json"
LENGTH = TEST_TRACE_LENGTH
BENCHMARKS = ("gcc", "libquantum", "mcf", "povray")
POLICIES = ("LRU", "RND", "FIFO", "DIP", "DRRIP", "LIP", "BIP", "NRU",
            "SRRIP", "BRRIP", "PLRU", "SHIP")
ROWS = {
    2: (("gcc", "mcf"), ("libquantum", "povray")),
    4: (("gcc", "libquantum", "mcf", "povray"),),
}
EIGHT_CORE = ("DIP", ("gcc", "gcc", "libquantum", "libquantum",
                      "mcf", "mcf", "povray", "povray"))
STATS_RUN = ("DRRIP", ("bwaves", "mcf"))
#: Uncore latency of the standalone core run in the training section.
STANDALONE_LATENCY = 100


def _batch(simulator, rows):
    run = simulator.run_batch([Workload(list(row)) for row in rows])
    return {"ipcs": _hexed(run.ipcs.tolist()),
            "instructions": run.instructions}


def _panels(simulator_type, builder):
    panels = {}
    for cores, rows in ROWS.items():
        for policy in POLICIES:
            simulator = simulator_type(cores, policy, builder=builder,
                                       trace_length=LENGTH)
            panels[f"k{cores}-{policy}"] = _batch(simulator, rows)
    policy, row = EIGHT_CORE
    simulator = simulator_type(8, policy, builder=builder,
                               trace_length=LENGTH)
    panels[f"k8-{policy}"] = _batch(simulator, [row])
    return panels


def _references(simulator_type, builder):
    simulator = simulator_type(4, "LRU", builder=builder,
                               trace_length=LENGTH)
    return {name: simulator.reference_ipc(name).hex()
            for name in BENCHMARKS}


def _uncore_counters(builder):
    """LLC and memory counters of the uncore one BADCO run leaves."""
    uncores = []

    class RecordingUncore(Uncore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            uncores.append(self)

    policy, row = STATS_RUN
    simulator = BadcoSimulator(len(row), policy, builder=builder,
                               trace_length=LENGTH)
    with mock.patch.object(badco_multicore, "Uncore", RecordingUncore):
        simulator.run(Workload(list(row)))
    (uncore,) = uncores
    memory = uncore.memory
    return {"llc": dataclasses.asdict(uncore.llc.stats),
            "memory": {"reads": memory.reads, "writes": memory.writes,
                       "busy_cycles": memory.busy_cycles},
            "requests_per_core": list(uncore.requests_per_core)}


def _sha256(rows):
    """Digest of a sequence of rows by their ``repr`` (floats hexed)."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(_hexed(row)).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _standalone(trace):
    """One core running ``trace`` alone against a fixed-latency uncore."""
    def access(address, now, is_write, pc, is_prefetch=False):
        return now + STANDALONE_LATENCY

    core = DetailedCore(0, default_core_config(), trace, access)
    while not core.done:
        core.advance()
    return {**dataclasses.asdict(core.result()),
            "local_time": core.local_time.hex()}


def _training(badco_builder, interval_builder):
    """Traces, trained models and a standalone core run per benchmark."""
    section = {}
    for name in BENCHMARKS:
        trace = cached_trace(name, LENGTH, 0)
        nodes = badco_builder.build(name).nodes
        intervals = interval_builder.build(name).intervals
        section[name] = {
            "trace": _sha256(
                (int(uop.kind), uop.pc, tuple(uop.src_distances),
                 uop.address, uop.taken, uop.target) for uop in trace),
            "badco_nodes": _sha256(
                [getattr(node, field) for node in nodes]
                for field in nodes[0]._fields),
            "interval_profile": _sha256(
                (interval.uop_count, interval.intrinsic, interval.reads,
                 interval.extras, interval.pc) for interval in intervals),
            "standalone": _standalone(trace),
        }
    return section


def record():
    """The golden payload, computed from scratch."""
    badco_builder = BadcoModelBuilder(LENGTH, 0)
    interval_builder = IntervalProfileBuilder(LENGTH, 0)
    detailed = DetailedSimulator(2, "LRU", trace_length=LENGTH).run(
        Workload(["gcc", "mcf"]))
    calibration = AnalyticModelBuilder(
        LENGTH, 0, badco_builder=badco_builder).calibrate(
            "mcf", uncore_config_for_cores(4, "DIP"))
    return {
        "run_batch": {
            "badco": _panels(BadcoSimulator, badco_builder),
            "interval": _panels(IntervalSimulator, interval_builder),
        },
        "reference_ipc": {
            "badco": _references(BadcoSimulator, badco_builder),
            "interval": _references(IntervalSimulator, interval_builder),
        },
        "detailed": {"ipcs": _hexed(detailed.ipcs),
                     "instructions": detailed.instructions},
        "calibration": _hexed(dataclasses.asdict(calibration)),
        "uncore_counters": _uncore_counters(badco_builder),
        "training": _training(badco_builder, interval_builder),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def run():
    return record()


@pytest.mark.parametrize("backend", ["badco", "interval"])
def test_run_batch_matches_the_golden(run, golden, backend):
    assert run["run_batch"][backend] == golden["run_batch"][backend]


@pytest.mark.parametrize("backend", ["badco", "interval"])
def test_reference_ipcs_match_the_golden(run, golden, backend):
    assert run["reference_ipc"][backend] == golden["reference_ipc"][backend]


@pytest.mark.parametrize("section",
                         ["detailed", "calibration", "uncore_counters",
                          "training"])
def test_section_matches_the_golden(run, golden, section):
    assert run[section] == golden[section]


def test_golden_covers_every_policy_and_live_counters(golden):
    assert set(POLICIES) == set(replacement._REGISTRY)
    for backend in ("badco", "interval"):
        panels = golden["run_batch"][backend]
        assert {f"k{k}-{p}" for k in ROWS for p in POLICIES} \
            | {f"k8-{EIGHT_CORE[0]}"} == set(panels)
    # The stats run exercises every LLC path: hits, misses, MSHR
    # merges, prefetches, evictions and writebacks.
    counters = golden["uncore_counters"]
    assert all(value > 0 for value in counters["llc"].values())
    assert all(value > 0 for value in counters["memory"].values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
