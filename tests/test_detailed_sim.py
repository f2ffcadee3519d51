"""The detailed multicore simulator."""

import pytest

from repro.core.workload import Workload
from repro.sim.detailed import DetailedSimulator

from tests.conftest import TEST_TRACE_LENGTH


def _sim(cores=2, policy="LRU", length=TEST_TRACE_LENGTH, **kw):
    return DetailedSimulator(cores=cores, policy=policy,
                             trace_length=length, **kw)


def test_run_returns_one_ipc_per_core():
    run = _sim().run(Workload(["povray", "mcf"]))
    assert len(run.ipcs) == 2
    assert all(ipc > 0 for ipc in run.ipcs)


def test_ipcs_follow_sorted_workload_order():
    """IPC vector aligns with the workload's canonical (sorted) order."""
    run = _sim().run(Workload(["povray", "mcf"]))
    w = Workload(["povray", "mcf"])
    by_name = dict(zip(w.benchmarks, run.ipcs))
    # povray is compute-bound, mcf memory-bound: povray must be faster.
    assert by_name["povray"] > by_name["mcf"]


def test_workload_arity_checked():
    with pytest.raises(ValueError):
        _sim(cores=2).run(Workload(["povray"]))


def test_deterministic_across_runs():
    a = _sim().run(Workload(["gcc", "mcf"]))
    b = _sim().run(Workload(["gcc", "mcf"]))
    assert a.ipcs == b.ipcs


def test_contention_lowers_throughput():
    """A thrashing co-runner must slow a cache-sensitive thread down."""
    alone = DetailedSimulator(cores=1, policy="LRU",
                              trace_length=TEST_TRACE_LENGTH)
    alone_ipc = alone.run(Workload(["gcc"])).ipcs[0]
    paired = _sim().run(Workload(["gcc", "mcf"]))
    gcc_ipc = dict(zip(Workload(["gcc", "mcf"]).benchmarks,
                       paired.ipcs))["gcc"]
    assert gcc_ipc < alone_ipc


def test_policy_changes_results():
    lru = _sim(policy="LRU").run(Workload(["mcf", "libquantum"]))
    dip = _sim(policy="DIP").run(Workload(["mcf", "libquantum"]))
    assert lru.ipcs != dip.ipcs


def test_restart_semantics_execute_more_than_quota():
    """The fast thread restarts while the slow one finishes."""
    run = _sim().run(Workload(["povray", "mcf"]))
    assert run.instructions > 2 * TEST_TRACE_LENGTH


def test_reference_ipc_single_thread():
    sim = _sim(cores=4)
    ref = sim.reference_ipc("povray")
    assert ref > 0.3


def test_mips_accounting():
    run = _sim().run(Workload(["povray", "hmmer"]))
    assert run.wall_seconds > 0
    assert run.mips > 0
