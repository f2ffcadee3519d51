"""The detailed out-of-order core timing model."""

import pytest

from repro.bench.generator import generate_trace
from repro.bench.spec import benchmark_by_name
from repro.bench.trace import Trace, Uop, UopKind
from repro.cpu.core import DetailedCore
from repro.cpu.resources import default_core_config

from tests.conftest import TEST_TRACE_LENGTH


def _flat_uncore(latency=10):
    def access(address, now, is_write, pc, is_prefetch=False):
        return now + latency
    return access


def _run(trace, config=None, uncore=None):
    core = DetailedCore(config or default_core_config(), trace,
                        uncore or _flat_uncore())
    while not core.done:
        core.advance()
    return core


def test_ipc_bounded_by_widths():
    trace = generate_trace(benchmark_by_name("hmmer"), TEST_TRACE_LENGTH)
    core = _run(trace)
    result = core.result()
    assert 0 < result.ipc <= default_core_config().fetch_width


def test_independent_alu_stream_approaches_fetch_width():
    """No deps, no memory, no branches: fetch width is the limit."""
    uops = [Uop(UopKind.INT_ALU, 0x400 + 4 * (i % 64), (64,))
            for i in range(2000)]
    core = _run(Trace("ilp", uops))
    assert core.result().ipc > 2.0


def test_serial_dependency_chain_caps_ipc_at_one():
    """Every uop depends on its predecessor: IPC <= 1."""
    uops = [Uop(UopKind.INT_ALU, 0x400 + 4 * (i % 64), (1,))
            for i in range(2000)]
    core = _run(Trace("serial", uops))
    assert core.result().ipc <= 1.05


def test_fp_chain_slower_than_int_chain():
    fp = [Uop(UopKind.FP_ALU, 0x400 + 4 * (i % 64), (1,)) for i in range(1500)]
    alu = [Uop(UopKind.INT_ALU, 0x400 + 4 * (i % 64), (1,)) for i in range(1500)]
    assert _run(Trace("fp", fp)).result().ipc < \
        _run(Trace("int", alu)).result().ipc


def test_memory_latency_hurts_dependent_loads():
    slow = _run(_loads_trace(), uncore=_flat_uncore(400))
    fast = _run(_loads_trace(), uncore=_flat_uncore(5))
    assert slow.result().ipc < fast.result().ipc


def _loads_trace():
    # Dependent loads over a large region (DL1 missing).
    uops = []
    for i in range(1200):
        uops.append(Uop(UopKind.LOAD, 0x400 + 4 * (i % 32), (1,),
                        address=0x1000_0000 + i * 4096))
    return Trace("loads", uops)


def test_branch_mispredicts_cost_cycles():
    predictable = [Uop(UopKind.BRANCH, 0x400, (8,), taken=True, target=0x400)
                   for _ in range(1500)]
    import random
    rng = random.Random(1)
    unpredictable = [Uop(UopKind.BRANCH, 0x400, (8,),
                         taken=rng.random() < 0.5, target=0x400)
                     for _ in range(1500)]
    good = _run(Trace("good", predictable))
    bad = _run(Trace("bad", unpredictable))
    assert bad.branch_mispredicts > good.branch_mispredicts
    assert bad.result().ipc < good.result().ipc


def test_restart_rewinds_position_keeps_state():
    trace = generate_trace(benchmark_by_name("povray"), 1500)
    core = DetailedCore(default_core_config(), trace, _flat_uncore())
    while not core.done:
        core.advance()
    executed = core.executed
    core.advance()                          # past the end: rewinds itself
    assert core.position == 1               # ran the trace's first uop
    assert not core.done
    assert core.executed == executed + 1    # counters continue


def test_result_counters_consistent():
    trace = generate_trace(benchmark_by_name("gcc"), TEST_TRACE_LENGTH)
    core = _run(trace)
    result = core.result()
    assert result.instructions == TEST_TRACE_LENGTH
    assert result.cycles >= result.instructions / 6
    assert result.cpi == pytest.approx(1.0 / result.ipc)


def test_local_time_monotonic():
    trace = generate_trace(benchmark_by_name("mcf"), 1200)
    core = DetailedCore(default_core_config(), trace, _flat_uncore(100))
    previous = 0.0
    while not core.done:
        now = core.advance()
        assert now >= previous
        previous = now
