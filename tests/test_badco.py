"""BADCO: model building, machine execution, multicore accuracy."""

import pytest

from repro.bench.generator import cached_trace
from repro.core.workload import Workload
from repro.cpu.core import fixed_latency_run
from repro.cpu.resources import default_core_config
from repro.sim.badco import BadcoModelBuilder, BadcoSimulator
from repro.sim.badco.model import (MAX_NODE_UOPS, TRAIN_HIT_LATENCY,
                                   TRAIN_MISS_LATENCY)
from repro.sim.detailed import DetailedSimulator

from tests.conftest import TEST_TRACE_LENGTH

LENGTH = TEST_TRACE_LENGTH


@pytest.fixture(scope="module")
def builder():
    return BadcoModelBuilder(trace_length=LENGTH, seed=0)


def test_model_accounts_every_uop(builder):
    for name in ("povray", "gcc", "mcf"):
        model = builder.build(name)
        assert model.total_uops == LENGTH, name


def test_nodes_bounded(builder):
    for name in ("povray", "libquantum"):
        model = builder.build(name)
        assert all(n.uop_count <= MAX_NODE_UOPS for n in model.nodes)


def test_memory_bound_benchmark_has_more_nodes(builder):
    compute = builder.build("povray")
    memory = builder.build("mcf")
    assert len(memory.nodes) > len(compute.nodes)


def test_sensitivities_sane(builder):
    model = builder.build("mcf")
    assert all(0.0 <= n.sensitivity <= 1.5 for n in model.nodes)
    # A pointer-chasing benchmark has strongly blocking nodes.
    anchored = [n for n in model.nodes if n.read_address is not None]
    assert max(n.sensitivity for n in anchored) > 0.5


def test_nodes_anchor_on_the_hit_runs_blocking_reads(builder):
    """The two training runs need not issue the same requests.

    With slow fills a prefetch is still in flight when its line is
    demanded, which counts as a DL1 miss and triggers a next-line
    prefetch, so bwaves makes 128 blocking reads in the always-miss run
    against 135 in the always-hit run.  Nodes anchor on the hit run's.
    """
    trace = cached_trace("bwaves", LENGTH, 0)

    def blocking_reads(latency):
        _, events = fixed_latency_run(trace, default_core_config(), latency)
        return [address for _, address, _, _, blocking in events
                if blocking]

    hit = blocking_reads(TRAIN_HIT_LATENCY)
    miss = blocking_reads(TRAIN_MISS_LATENCY)
    anchored = [node.read_address for node in builder.build("bwaves").nodes
                if node.read_address is not None]
    assert (len(hit), len(miss)) == (135, 128)
    assert anchored == hit
    assert anchored != miss


def test_models_cached(builder):
    assert builder.build("gcc") is builder.build("gcc")


def test_training_cost_accounted(builder):
    builder.build("hmmer")
    assert builder.training_uops >= 2 * LENGTH


def test_builder_length_mismatch_rejected(builder):
    with pytest.raises(ValueError):
        BadcoSimulator(cores=2, builder=builder, trace_length=LENGTH + 1)


def test_single_core_ipc_close_to_detailed(builder):
    """The Fig. 2 property, single-thread: small CPI error."""
    for name in ("povray", "gcc", "mcf"):
        detailed = DetailedSimulator(cores=1, trace_length=LENGTH)
        badco = BadcoSimulator(cores=1, builder=builder, trace_length=LENGTH)
        ipc_d = detailed.run(Workload([name])).ipcs[0]
        ipc_b = badco.run(Workload([name])).ipcs[0]
        error = abs(1 / ipc_b - 1 / ipc_d) / (1 / ipc_d)
        assert error < 0.30, (name, ipc_d, ipc_b)


def test_multicore_ipc_close_to_detailed(builder):
    workload = Workload(["gcc", "povray"])
    detailed = DetailedSimulator(cores=2, trace_length=LENGTH)
    badco = BadcoSimulator(cores=2, builder=builder, trace_length=LENGTH)
    run_d = detailed.run(workload)
    run_b = badco.run(workload)
    for ipc_d, ipc_b in zip(run_d.ipcs, run_b.ipcs):
        assert abs(ipc_b - ipc_d) / ipc_d < 0.35


def test_badco_faster_than_detailed(builder):
    """The Table III property (on a memory-light workload the gap is
    largest, but it must hold on a mixed one too)."""
    workload = Workload(["povray", "hmmer"])
    detailed = DetailedSimulator(cores=2, trace_length=LENGTH)
    badco = BadcoSimulator(cores=2, builder=builder, trace_length=LENGTH)
    run_d = detailed.run(workload)
    run_b = badco.run(workload)
    assert run_b.mips > run_d.mips * 3


def test_policy_sensitivity_preserved(builder):
    """BADCO must see the same policy ordering as the detailed sim."""
    workload = Workload(["mcf", "mcf"])
    ipcs = {}
    for policy in ("LRU", "DIP"):
        sim = BadcoSimulator(cores=2, policy=policy, builder=builder,
                             trace_length=LENGTH)
        ipcs[policy] = sum(sim.run(workload).ipcs)
    # mcf thrashes: DIP should not be worse than LRU by any margin.
    assert ipcs["DIP"] > ipcs["LRU"] * 0.95


def test_determinism(builder):
    sim = BadcoSimulator(cores=2, builder=builder, trace_length=LENGTH)
    a = sim.run(Workload(["gcc", "mcf"]))
    b = sim.run(Workload(["gcc", "mcf"]))
    assert a.ipcs == b.ipcs


def test_reference_ipc(builder):
    sim = BadcoSimulator(cores=4, builder=builder, trace_length=LENGTH)
    assert sim.reference_ipc("povray") > 0.3
