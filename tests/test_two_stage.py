"""Two-stage estimation: batch entry points and the screen+refine driver.

Covers the PR's acceptance contract end to end: the event-driven
simulators' ``run_batch`` must be bit-identical to the per-workload
``run`` loop for any ``jobs``; ``Session.estimate_two_stage`` must
report both stages (screen confidence, refine accounting, spliced
final estimate) with its own timing phases; and the refine-row ranking
must always floor-allocate budget to d(w) == 0 cells so the screen
cannot hide no-signal regions from the refine pass.
"""

import numpy as np
import pytest

from repro.api import Session, TwoStageEstimate
from repro.core.workload import Workload
from repro.sim.badco.multicore import BadcoSimulator
from repro.sim.batch import batch_from_runs
from repro.sim.interval.multicore import IntervalSimulator

#: Small trace keeps the event-driven loops at smoke cost.
TRACE = 3000

BENCHMARKS = ("bzip2", "gcc", "libquantum", "mcf", "namd", "povray")


# ---- run_batch: the parallel batch entry points ----------------------

@pytest.mark.parametrize("simulator_class",
                         [BadcoSimulator, IntervalSimulator],
                         ids=["badco", "interval"])
def test_run_batch_matches_run_loop_and_is_jobs_invariant(simulator_class):
    simulator = simulator_class(cores=2, policy="DIP", trace_length=TRACE)
    workloads = [Workload(pair) for pair in
                 [("gcc", "libquantum"), ("mcf", "milc"),
                  ("bzip2", "namd"), ("gcc", "mcf"),
                  ("libquantum", "libquantum")]]
    reference = batch_from_runs(workloads,
                                [simulator.run(w) for w in workloads])
    serial = simulator.run_batch(workloads, jobs=1)
    parallel = simulator.run_batch(workloads, jobs=3)
    assert serial.workloads == tuple(workloads)
    assert parallel.workloads == tuple(workloads)
    # Bit-identical, not merely close: every run builds its own uncore
    # from fixed seeds, so chunking must never change a value.
    assert np.array_equal(serial.ipcs, reference.ipcs)
    assert np.array_equal(parallel.ipcs, serial.ipcs)
    assert serial.instructions == parallel.instructions \
        == reference.instructions


def test_run_batch_empty_is_well_formed():
    simulator = BadcoSimulator(cores=2, trace_length=TRACE)
    batch = simulator.run_batch([], jobs=4)
    assert batch.workloads == ()
    assert batch.ipcs.shape[0] == 0
    assert batch.instructions == 0


# ---- the two-stage driver --------------------------------------------

@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("two_stage")
    return base / "cache", base / "models"


def _session(dirs, jobs=1):
    cache, models = dirs
    return Session("small", seed=0, jobs=jobs, cache_dir=cache,
                   model_store_dir=models, benchmarks=list(BENCHMARKS))


def _estimate(session):
    return session.estimate_two_stage(
        "LRU", "DIP", cores=4, sample=40, draws=100,
        sample_sizes=(5, 15), refine_backend="badco", refine_budget=8)


@pytest.fixture(scope="module")
def estimate(dirs):
    return _estimate(_session(dirs))


def test_two_stage_reports_both_stages(estimate):
    assert isinstance(estimate, TwoStageEstimate)
    assert estimate.backend == "analytic"
    assert estimate.refine_backend == "badco"
    assert estimate.refine_budget == 8
    assert estimate.refined == 8
    assert 0 <= estimate.floor_allocated <= estimate.refined
    # Both stages carry full confidence curves over the same grid.
    for curves in (estimate.screen_confidence, estimate.confidence):
        assert set(curves) == {"random", "workload-strata"}
        for series in curves.values():
            assert len(series) == 2
            assert all(0.0 <= value <= 1.0 for value in series)
    assert set(estimate.timings) == {
        "population", "screen-panels", "screen-delta",
        "screen-confidence", "rank", "refine", "splice-confidence"}
    assert estimate.max_shift >= estimate.mean_shift >= 0.0
    assert estimate.sign_flips >= 0


def test_two_stage_report_rows(estimate):
    lines = "\n".join(estimate.rows())
    assert "two-stage: analytic screen -> badco refine" in lines
    assert "stage 1 (screen, analytic)" in lines
    assert "stage 2 (refine, badco)" in lines
    assert "final (spliced) estimate" in lines


def test_two_stage_floors_zero_screen_cells(estimate):
    # The degenerate screen (the analytic 4/8-core caveat: d(w) == 0
    # everywhere) must still floor-allocate -- the ranking alone
    # carries no information there, so the floor is all there is.
    rows, floor_count = Session._refine_rows(
        np.zeros(40), estimate.refine_budget)
    assert floor_count >= 1
    assert len(rows) == estimate.refine_budget
    # And the driver run reports whatever floor its screen demanded.
    assert 0 <= estimate.floor_allocated <= estimate.refined


def test_two_stage_jobs_invariance(dirs, estimate, tmp_path):
    # Fresh cache so the jobs=2 session actually re-runs both stages
    # (the shared model store keeps training warm); the pool-chunked
    # refine must reproduce the serial numbers bit for bit.
    cache, models = dirs
    parallel = _estimate(Session("small", seed=0, jobs=2,
                                 cache_dir=tmp_path / "cache",
                                 model_store_dir=models,
                                 benchmarks=list(BENCHMARKS)))
    assert parallel.inverse_cv == estimate.inverse_cv
    assert parallel.screen_inverse_cv == estimate.screen_inverse_cv
    assert parallel.confidence == estimate.confidence
    assert parallel.screen_confidence == estimate.screen_confidence
    assert parallel.max_shift == estimate.max_shift
    assert parallel.mean_shift == estimate.mean_shift
    assert parallel.sign_flips == estimate.sign_flips
    assert parallel.floor_allocated == estimate.floor_allocated


def test_two_stage_screen_is_the_full_scale_estimate(dirs):
    # Stage 1 runs estimate_full_scale's own stages and shares its d(w)
    # memo: after a full-scale estimate of the same frame, the screen
    # replays it (no panels, no training) and reports the same numbers.
    session = _session(dirs)
    full = session.estimate_full_scale(
        "LRU", "DIP", cores=4, sample=40, draws=100, sample_sizes=(5, 15))
    estimate = _estimate(session)
    assert estimate.screen_inverse_cv == full.inverse_cv
    assert estimate.screen_confidence == full.confidence
    assert estimate.timings["screen-panels"] == 0.0
    assert estimate.training_runs == 0


def test_two_stage_refine_frac(dirs):
    session = _session(dirs)
    estimate = session.estimate_two_stage(
        "LRU", "DIP", cores=4, sample=40, draws=50,
        sample_sizes=(5,), refine_backend="badco", refine_frac=0.2)
    assert estimate.refine_budget == 8  # round(0.2 * 40)
    assert estimate.refined == 8


def test_two_stage_budget_validation(dirs):
    session = _session(dirs)
    with pytest.raises(ValueError):
        session.estimate_two_stage("LRU", "DIP", cores=2)
    with pytest.raises(ValueError):
        session.estimate_two_stage("LRU", "DIP", cores=2,
                                   refine_budget=5, refine_frac=0.5)
    with pytest.raises(ValueError):
        session.estimate_two_stage("LRU", "DIP", cores=2,
                                   refine_frac=1.5)
    with pytest.raises(ValueError):
        session.estimate_two_stage("LRU", "DIP", cores=2,
                                   refine_budget=0)


# ---- refine-row ranking ----------------------------------------------

def test_refine_rows_ranks_by_signal_and_spread():
    values = np.array([0.0, 0.5, -0.2, 0.0, 0.1, 0.9, 0.0, -0.6])
    rows, floor_count = Session._refine_rows(values, 4)
    assert floor_count == 1
    assert len(rows) == 4
    assert np.array_equal(rows, np.unique(rows))  # sorted, unique
    # The floor row is a genuine zero cell...
    assert set(rows.tolist()) & {0, 3, 6}
    # ...and the strongest-signal rows still make the cut.
    assert {5, 7} <= set(rows.tolist())


def test_refine_rows_all_zero_screen_spreads_the_floor():
    rows, floor_count = Session._refine_rows(np.zeros(50), 30)
    assert floor_count == min(50, 30 // 10)
    assert len(rows) == 30
    assert np.array_equal(rows, np.unique(rows))


def test_refine_rows_no_zeros_means_no_floor():
    values = np.linspace(0.1, 1.0, 20)
    rows, floor_count = Session._refine_rows(values, 5)
    assert floor_count == 0
    assert len(rows) == 5
    # Pure top-|d| + spread ranking: the extremes win.
    assert 19 in rows.tolist()


def test_refine_rows_budget_clamped_by_caller_contract():
    values = np.array([0.0, 1.0, 2.0])
    rows, _ = Session._refine_rows(values, 3)
    assert np.array_equal(rows, np.array([0, 1, 2]))
