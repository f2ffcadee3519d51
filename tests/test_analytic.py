"""The analytic backend: parity vs badco, batch dispatch, determinism.

The analytic backend trades event-driven fidelity for array-call
throughput; these tests pin down what the trade preserves at smoke
scale:

- per-workload IPCs stay within a bounded relative error of the
  event-driven ``badco`` backend, and single-thread reference IPCs are
  *bit-identical* (the calibration run is the same run);
- the population verdict (the sign of mean d(w)) and the cv's order of
  magnitude -- the two quantities the paper's confidence methodology
  consumes -- agree with badco;
- ``run`` vs a one-policy grid, any chunking of a grid, and ``jobs=4``
  vs ``jobs=1`` are all bit-identical (rows are independent).
"""

import numpy as np
import pytest

from repro.api import Campaign, CampaignConfig
from repro.core.codematrix import CodeMatrix
from repro.core.columnar import delta_column_from_matrices
from repro.core.delta import DeltaVariable, delta_statistics
from repro.core.metrics import IPCT
from repro.core.population import WorkloadPopulation
from repro.core.workload import Workload
from repro.mem.replacement import POLICY_NAMES
from repro.mem.uncore import uncore_config_for_cores
from repro.sim.analytic import (
    GRID_BLOCK_CELLS,
    MAX_BUS_UTILISATION,
    AnalyticModelBuilder,
    AnalyticSimulator,
)
from repro.sim.badco.multicore import BadcoSimulator

from tests.conftest import TEST_TRACE_LENGTH

#: Spans the three MPKI classes.
PARITY_BENCHMARKS = ["povray", "hmmer", "gcc", "mcf", "libquantum",
                     "omnetpp"]
PARITY_POLICIES = ["LRU", "DIP"]

#: Accuracy bounds vs badco at smoke scale (measured ~5% mean / ~21%
#: max; asserted with headroom so trace-generator tweaks don't flake).
MEAN_IPC_ERROR_BOUND = 0.12
MAX_IPC_ERROR_BOUND = 0.35


@pytest.fixture(scope="module")
def parity_population():
    return WorkloadPopulation(PARITY_BENCHMARKS, 2)


def _campaign(backend, jobs=1):
    return Campaign(CampaignConfig(backend=backend, cores=2,
                                   trace_length=TEST_TRACE_LENGTH,
                                   jobs=jobs))


def _panels(campaign, policies, workloads):
    """Each policy's IPC matrix values over ``workloads``."""
    _, matrices = campaign.results.columnar_panel(policies, workloads)
    return {policy: matrix.values for policy, matrix in matrices.items()}


@pytest.fixture(scope="module")
def parity_results(parity_population):
    campaigns = {}
    for backend in ("badco", "analytic"):
        campaign = _campaign(backend)
        campaign.run_grid(parity_population, PARITY_POLICIES)
        campaigns[backend] = campaign
    return campaigns


def test_ipc_error_vs_badco_is_bounded(parity_population, parity_results):
    badco = _panels(parity_results["badco"], PARITY_POLICIES,
                    parity_population)
    analytic = _panels(parity_results["analytic"], PARITY_POLICIES,
                       parity_population)
    errors = np.concatenate([
        (np.abs(analytic[policy] - badco[policy]) / badco[policy]).ravel()
        for policy in PARITY_POLICIES])
    assert errors.mean() < MEAN_IPC_ERROR_BOUND
    assert errors.max() < MAX_IPC_ERROR_BOUND


def test_delta_statistics_track_badco(parity_population, parity_results):
    """The methodology's decision inputs survive the approximation."""
    variable = DeltaVariable(IPCT)
    stats = {}
    for backend, campaign in parity_results.items():
        _, matrices = campaign.results.columnar_panel(
            PARITY_POLICIES, list(parity_population))
        delta = delta_column_from_matrices(
            variable, matrices[PARITY_POLICIES[0]],
            matrices[PARITY_POLICIES[1]])
        stats[backend] = delta_statistics(delta.values)
    # Same population verdict (which policy wins)...
    assert np.sign(stats["analytic"].mean) == np.sign(stats["badco"].mean)
    # ... and a cv in the same decision regime (|cv| within ~4x: both
    # sides of the paper's W = 8 cv^2 rule land in the same ballpark).
    ratio = abs(stats["analytic"].cv) / abs(stats["badco"].cv)
    assert 0.25 < ratio < 4.0


def test_reference_ipcs_bit_identical_to_badco(parity_results):
    badco = parity_results["badco"]
    analytic = parity_results["analytic"]
    for benchmark in PARITY_BENCHMARKS:
        expected = badco._make_simulator("LRU").reference_ipc(benchmark)
        assert analytic._make_simulator("LRU").reference_ipc(benchmark) \
            == expected


def test_solo_run_reproduces_reference_ipc():
    """No co-runners -> the calibrated anchor, exactly (docstring
    contract: the closure only models *contention*)."""
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(1, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    for benchmark in PARITY_BENCHMARKS[:3]:
        solo = simulator.run(Workload([benchmark])).ipcs[0]
        assert solo == simulator.reference_ipc(benchmark)


def test_run_matches_run_batch_bitwise(parity_population):
    """The loop and batch paths must agree exactly, per row."""
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:8]
    panel = simulator.run_batch_grid(workloads, ("LRU",)).panel("LRU")
    for row, workload in enumerate(workloads):
        assert simulator.run(workload).ipcs == panel[row].tolist()


def test_batch_rows_independent_of_chunking(parity_population):
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "DIP", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:9]
    full = simulator.run_batch_grid(workloads, ("DIP",)).ipcs
    pieces = [simulator.run_batch_grid(workloads[start:start + 3],
                                       ("DIP",)).ipcs
              for start in range(0, 9, 3)]
    assert np.array_equal(np.concatenate(pieces, axis=0), full)


def test_batch_grid_jobs4_equals_jobs1(parity_population):
    workloads = list(parity_population)
    serial = _campaign("analytic", jobs=1)
    serial.run_grid(workloads, PARITY_POLICIES)
    parallel = _campaign("analytic", jobs=4)
    parallel.run_grid(workloads, PARITY_POLICIES)
    assert serial.results.to_json() == parallel.results.to_json()
    assert parallel.timing.simulations == serial.timing.simulations


def test_batch_grid_memoises(parity_population):
    campaign = _campaign("analytic")
    workloads = list(parity_population)[:6]
    campaign.run_grid(workloads, ["LRU"])
    simulations = campaign.timing.simulations
    assert simulations == 6
    campaign.run_grid(workloads, ["LRU"])        # fully memoised
    assert campaign.timing.simulations == simulations
    # A superset grid only pays for the new cells.
    campaign.run_grid(list(parity_population)[:8], ["LRU"])
    assert campaign.timing.simulations == simulations + 2


def test_batch_grid_streams_into_columnar_store(parity_population):
    campaign = _campaign("analytic")
    workloads = list(parity_population)[:5]
    campaign.run_grid(workloads, ["LRU"])
    # The engine recorded via record_batch: blocks, not dicts.
    assert "LRU" in campaign.results._blocks
    index, matrices = campaign.results.columnar_panel(["LRU"], workloads)
    assert matrices["LRU"].values.shape == (5, 2)


def test_analytic_campaign_cache_roundtrip(tmp_path, parity_population):
    workloads = list(parity_population)[:4]
    config = CampaignConfig(backend="analytic", cores=2,
                            trace_length=TEST_TRACE_LENGTH,
                            cache_dir=tmp_path)
    first = Campaign(config)
    first.run_grid(workloads, ["LRU"])
    first.save()
    # One npz per cache key, nothing else.
    assert sorted(p.name for p in tmp_path.iterdir()
                  if p.suffix != ".lock") == [config.cache_path.name]
    assert config.cache_path.suffix == ".npz"
    # Serialising must not collapse the columnar blocks ...
    assert "LRU" in first.results._blocks
    second = Campaign(config)
    assert second._loaded_from_cache
    # ... and the reload must come through the npz fast path (blocks,
    # not a rebuilt mapping).
    assert "LRU" in second.results._blocks
    assert np.array_equal(_panels(second, ["LRU"], workloads)["LRU"],
                          _panels(first, ["LRU"], workloads)["LRU"])
    second.run_grid(workloads, ["LRU"])          # served from cache
    assert second.timing.simulations == 0


def test_core_count_validated():
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    with pytest.raises(ValueError):
        simulator.run(Workload(["povray"]))
    with pytest.raises(ValueError):
        simulator.run_batch_grid([Workload(["povray", "povray", "povray"])],
                                 ("LRU",))


def test_builder_shares_badco_models():
    from repro.api import Session

    session = Session("small", cache_dir=None,
                      benchmarks=PARITY_BENCHMARKS)
    analytic = session.builder("analytic")
    assert analytic.badco is session.builder("badco")


def test_session_study_on_analytic_backend(monkeypatch, tmp_path):
    """The whole facade loop (results, references, study) runs batch."""
    from repro.api import Session

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    session = Session("small", seed=0, benchmarks=PARITY_BENCHMARKS,
                      backend="analytic")
    study = session.study("LRU", "DIP", metric="IPCT", cores=2)
    assert -50 < study.inverse_cv < 50
    assert 0.0 <= study.model_confidence(30) <= 1.0
    campaign = session.campaign("analytic", 2)
    # Grid cells plus one reference run per benchmark.
    assert campaign.timing.simulations == \
        len(session.population(2)) * 2 + len(PARITY_BENCHMARKS)


def test_protection_probe_bounds():
    """``protection`` is a constant 0.0 that simulates nothing: a policy
    reaches the closure only through its standalone anchors."""
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    for cores in (2, 4):
        for policy in POLICY_NAMES:
            config = uncore_config_for_cores(cores, policy)
            assert builder.protection(config) == 0.0
    assert builder.training_runs == 0


def test_analytic_vs_badco_ipc_error_at_medium_trace():
    """Recorded model error at the medium scale's trace length.

    Per-core relative IPC error of the analytic model against the
    event-driven BADCO simulator under DIP, over three pairs at
    16 000 uops (``repro.api.scales``).  Measured (seeded,
    deterministic): worst core 11.1% (mcf next to gcc), all others
    under 1.2%, mean 2.3%.
    """
    trace = 16000
    builder = AnalyticModelBuilder(trace, 0)
    analytic = AnalyticSimulator(cores=2, policy="DIP", builder=builder,
                                 trace_length=trace)
    badco = BadcoSimulator(cores=2, policy="DIP", builder=builder.badco,
                           trace_length=trace)
    errors = []
    for workload in (Workload(["gcc", "libquantum"]),
                     Workload(["gcc", "mcf"]),
                     Workload(["milc", "libquantum"])):
        approx = np.asarray(analytic.run(workload).ipcs)
        event = np.asarray(badco.run(workload).ipcs)
        errors.extend((np.abs(approx - event) / event).tolist())
    assert max(errors) < 0.15
    assert float(np.mean(errors)) < 0.05


def _cached_campaign(tmp_path, population, cores=2):
    """A campaign over the first three rows, saved to ``tmp_path``."""
    config = CampaignConfig(backend="analytic", cores=cores,
                            trace_length=TEST_TRACE_LENGTH,
                            cache_dir=tmp_path)
    campaign = Campaign(config)
    campaign.run_grid(population.code_matrix.take(slice(0, 3)), ["LRU"])
    campaign.save()
    return config, campaign


def _assert_recomputed(config, original, caplog):
    """A new campaign over ``config`` ignores its cache file with a
    warning naming it, and recomputes the same panel."""
    with caplog.at_level("WARNING", logger="repro.api.engine"):
        again = Campaign(config)                # must not raise
    assert not again._loaded_from_cache
    assert str(config.cache_path) in caplog.text
    again.run_grid(original.results.columnar_panel(["LRU"])[0].workloads,
                   ["LRU"])
    assert again.timing.simulations == 3
    assert again.results.to_json() == original.results.to_json()


def test_corrupt_npz_cache_is_recomputed_with_a_warning(
        tmp_path, parity_population, caplog):
    config, first = _cached_campaign(tmp_path, parity_population)
    config.cache_path.write_bytes(b"not a zip file")
    _assert_recomputed(config, first, caplog)


def test_npz_ranked_over_another_suite_is_a_cache_miss(
        tmp_path, parity_population, caplog):
    config, first = _cached_campaign(tmp_path, parity_population)
    with np.load(config.cache_path) as data:
        arrays = dict(data)
    arrays["suite"] = arrays["suite"][::-1]
    with open(config.cache_path, "wb") as handle:
        np.savez(handle, **arrays)
    _assert_recomputed(config, first, caplog)


def test_npz_of_another_core_count_is_a_cache_miss(
        tmp_path, parity_population, caplog):
    config, first = _cached_campaign(tmp_path, parity_population)
    # The 4-core campaign's cache file, planted under the 2-core key.
    other, _ = _cached_campaign(tmp_path / "k4",
                                WorkloadPopulation(PARITY_BENCHMARKS, 4),
                                cores=4)
    config.cache_path.write_bytes(other.cache_path.read_bytes())
    _assert_recomputed(config, first, caplog)


# ----------------------------------------------------------------------
# The policy axis: one N x P x K closure call for the whole grid


def test_run_batch_grid_slices_match_per_policy_batches(parity_population):
    """Each policy slice of the grid == its single-policy grid's panel."""
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:10]
    policies = ["LRU", "DIP", "DRRIP"]
    grid = simulator.run_batch_grid(workloads, policies)
    assert grid.ipcs.shape == (10, 3, 2)
    for number, policy in enumerate(policies):
        single = AnalyticSimulator(2, policy, builder=builder,
                                   trace_length=TEST_TRACE_LENGTH)
        panel = single.run_batch_grid(workloads, (policy,)).panel(policy)
        assert np.array_equal(grid.ipcs[:, number, :], panel)
        assert np.array_equal(grid.panel(policy), panel)


def test_singleton_grid_matches_multi_policy_slice_at_scale():
    """A P == 1 dispatch is bit-identical to the same policy's slice.

    Regression pin for the documented 1-ULP wrinkle: advanced indexing
    leaves P >= 2 gathers policy-minor (non-C-contiguous), so the
    core-axis reductions used to round differently than the trivially
    contiguous P == 1 case -- an incrementally reused one-shot cache
    (one policy pending -> singleton dispatch) then disagreed with the
    serve daemon's multi-policy grids at up to ~9 ULP.  The wrinkle
    only shows at wide frames, hence the 8-core 1000-workload scale.
    """
    population = WorkloadPopulation(PARITY_BENCHMARKS, 8, max_size=1000,
                                    seed=0)
    workloads = list(population)
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(8, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    trio = simulator.run_batch_grid(workloads, ("LRU", "DIP", "NRU"))
    duo = simulator.run_batch_grid(workloads, ("LRU", "DIP"))
    solo = simulator.run_batch_grid(workloads, ("LRU",))
    assert np.array_equal(duo.ipcs[:, 0, :], solo.ipcs[:, 0, :])
    assert np.array_equal(trio.ipcs[:, 0, :], solo.ipcs[:, 0, :])
    assert np.array_equal(trio.ipcs[:, 1, :], duo.ipcs[:, 1, :])


def test_run_batch_grid_row_chunking_is_bit_identical(parity_population):
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:9]
    policies = ["LRU", "DIP"]
    full = simulator.run_batch_grid(workloads, policies).ipcs
    pieces = [simulator.run_batch_grid(workloads[start:start + 4],
                                       policies).ipcs
              for start in range(0, 9, 4)]
    assert np.array_equal(np.concatenate(pieces, axis=0), full)


def _unblocked_grid(simulator, workloads, policies):
    """The reference N x P x K grid: one closure call over the frame.

    The contention expression without row blocks or hoisted terms:
    every operand is gathered to P x N x K first, over the whole frame
    at once.
    """
    policies = tuple(policies)
    rows = CodeMatrix.from_workloads(workloads)
    used = np.flatnonzero(rows.benchmark_occurrences())
    vec = simulator._gather([rows.benchmarks[c] for c in used.tolist()],
                            policies)
    lookup = np.zeros(rows.num_benchmarks, dtype=np.int64)
    lookup[used] = np.arange(len(used))
    codes = lookup[rows.codes]
    config = simulator.uncore_config
    llc_lines = config.llc_size / config.memory.line_bytes

    def gather(array):
        return np.ascontiguousarray(array[:, codes])

    footprint = gather(vec["footprint"])
    felt = footprint.sum(axis=-1)[..., None]
    alone_resident = np.minimum(1.0, llc_lines / vec["footprint"])
    shared_resident = np.minimum(1.0, np.maximum(
        llc_lines / np.maximum(felt, 1.0),
        llc_lines / (codes.shape[1] * footprint)))
    survival = np.minimum(1.0, shared_resident / gather(alone_resident))
    miss_ratio = 1.0 - (1.0 - gather(vec["miss_ratio"])) * survival
    transfer = float(config.memory.transfer_cycles)
    rates = (gather(vec["requests"]) * miss_ratio
             / gather(vec["alone_cycles"]))
    others = rates.sum(axis=-1)[..., None] - rates
    utilisation = np.minimum(others * transfer, MAX_BUS_UTILISATION)
    queue_wait = transfer * utilisation / (1.0 - utilisation)
    extra = gather(vec["extra"]) + queue_wait
    sensitivity = gather(vec["sensitivity"])
    intrinsic = gather(vec["intrinsic"])
    alone_time = (intrinsic + sensitivity
                  * gather(vec["miss_ratio"]) * gather(vec["extra"]))
    shared_time = intrinsic + sensitivity * miss_ratio * extra
    ipcs = gather(vec["alone_ipc"]) * (alone_time
                                       / np.maximum(shared_time, 1.0))
    return np.ascontiguousarray(ipcs.transpose(1, 0, 2))


@pytest.mark.parametrize("policies", [("DIP",), ("LRU", "DIP"),
                                      ("LRU", "DIP", "DRRIP")])
def test_run_batch_grid_blocks_match_one_unblocked_call(policies):
    """Row blocks and hoisted terms change no bit of the grid.

    The frame spans at least three blocks at every P (1 024 rows per
    block at P = 1, K = 8), so block boundaries and the short last
    block are both exercised.
    """
    population = WorkloadPopulation(PARITY_BENCHMARKS + ["bzip2"], 8)
    workloads = list(population)
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(8, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    block = GRID_BLOCK_CELLS // (len(policies) * 8)
    assert len(workloads) > 2 * block
    blocks = []
    evaluate = simulator._evaluate

    def counted(*args):
        blocks.append(len(args[-1]))
        return evaluate(*args)

    simulator._evaluate = counted
    grid = simulator.run_batch_grid(workloads, policies)
    assert len(blocks) == -(-len(workloads) // block) >= 3
    assert max(blocks) == block
    reference = _unblocked_grid(simulator, workloads, policies)
    assert grid.ipcs.flags.c_contiguous
    assert grid.ipcs.tobytes() == reference.tobytes()


def test_run_batch_grid_validates_inputs(parity_population):
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    with pytest.raises(ValueError):
        simulator.run_batch_grid(list(parity_population)[:2], [])
    with pytest.raises(ValueError):
        simulator.run_batch_grid([Workload(["gcc", "gcc", "gcc"])],
                                 ["LRU"])
    empty = simulator.run_batch_grid([], ["LRU", "DIP"])
    assert empty.ipcs.shape == (0, 2, 2)


def test_engine_grid_dispatch_falls_back_on_ragged_caches(parity_population):
    """Partially cached policies stay correct (intersection + remainder)."""
    workloads = list(parity_population)
    campaign = _campaign("analytic")
    campaign.run_grid(workloads[:4], ["LRU"])       # LRU partially done
    campaign.run_grid(workloads, PARITY_POLICIES)
    reference = _campaign("analytic")
    reference.run_grid(workloads, PARITY_POLICIES)
    panels = _panels(campaign, PARITY_POLICIES, workloads)
    expected = _panels(reference, PARITY_POLICIES, workloads)
    for policy in PARITY_POLICIES:
        assert np.array_equal(panels[policy], expected[policy])


def _grid_calls(monkeypatch):
    """Every ``AnalyticSimulator.run_batch_grid`` call from now on, as
    (workloads, policies)."""
    calls = []
    original = AnalyticSimulator.run_batch_grid

    def spy(self, rows, policies):
        calls.append((rows.workloads(), list(policies)))
        return original(self, rows, policies)

    monkeypatch.setattr(AnalyticSimulator, "run_batch_grid", spy)
    return calls


def test_engine_ragged_caches_grid_dispatch_intersection(parity_population,
                                                         monkeypatch):
    """Ragged pending sets grid-dispatch their shared rows once."""
    workloads = list(parity_population)
    campaign = _campaign("analytic")
    campaign.run_grid(workloads[:4], ["LRU"])       # LRU partially done
    calls = _grid_calls(monkeypatch)
    campaign.run_grid(workloads, PARITY_POLICIES)
    # The rows every policy still needs went as one grid covering all
    # policies; LRU's cached head leaves DIP a remainder of its own,
    # which goes as a one-policy grid.
    assert calls == [(workloads[4:], list(PARITY_POLICIES)),
                     (workloads[:4], ["DIP"])]


def test_engine_ragged_three_policies_second_grid(parity_population,
                                                  monkeypatch):
    """A uniform multi-policy remainder dispatches as a second grid."""
    workloads = list(parity_population)
    policies = ["LRU", "DIP", "DRRIP"]
    campaign = _campaign("analytic")
    campaign.run_grid(workloads[:4], ["LRU"])       # LRU partially done
    calls = _grid_calls(monkeypatch)
    campaign.run_grid(workloads, policies)
    assert calls == [(workloads[4:], policies),
                     (workloads[:4], ["DIP", "DRRIP"])]
    reference = _campaign("analytic")
    reference.run_grid(workloads, policies)
    panels = _panels(campaign, policies, workloads)
    expected = _panels(reference, policies, workloads)
    for policy in policies:
        assert np.array_equal(panels[policy], expected[policy])


def test_grid_dispatch_jobs2_equals_jobs1(parity_population):
    workloads = list(parity_population)
    serial = _campaign("analytic", jobs=1)
    serial.run_grid(workloads, ["LRU", "DIP", "DRRIP"])
    parallel = _campaign("analytic", jobs=2)
    parallel.run_grid(workloads, ["LRU", "DIP", "DRRIP"])
    assert serial.results.to_json() == parallel.results.to_json()
    assert parallel.timing.simulations == serial.timing.simulations
