"""PopulationResults storage and Campaign memoisation."""

import json

import numpy as np
import pytest

from repro.api import Campaign, CampaignConfig
from repro.core.workload import Workload
from repro.sim.results import SUITE, PopulationResults

from tests.conftest import TEST_TRACE_LENGTH


def _panel(results, policy, workloads):
    """One policy's IPC rows over ``workloads``, as Python lists."""
    _, matrices = results.columnar_panel([policy], workloads)
    return matrices[policy].values.tolist()


def test_record_and_read():
    results = PopulationResults(2, "detailed")
    w = Workload(["gcc", "mcf"])
    results.record_batch("LRU", [w], np.array([[1.0, 2.0]]))
    assert _panel(results, "LRU", [w]) == [[1.0, 2.0]]
    assert results.policies == ["LRU"]
    assert results.contains("LRU", [w]).tolist() == [True]
    assert results.contains("DIP", [w]).tolist() == [False]


def test_arity_validated():
    results = PopulationResults(2, "detailed")
    with pytest.raises(ValueError):
        results.record_batch("LRU", [Workload(["gcc", "mcf"])],
                             np.array([[1.0]]))


def test_default_panel_rows_are_common_to_every_policy():
    results = PopulationResults(2, "x")
    w1, w2 = Workload(["gcc", "gcc"]), Workload(["gcc", "mcf"])
    results.record_batch("LRU", [w1, w2], np.ones((2, 2)))
    results.record_batch("DIP", [w1], np.ones((1, 2)))
    index, _ = results.columnar_panel()
    assert index.workloads == (w1,)


def test_json_roundtrip(tmp_path):
    results = PopulationResults(4, "badco")
    w = Workload(["mcf", "gcc", "gcc", "povray"])
    results.record_batch("DRRIP", [w], np.array([[0.1, 0.5, 0.5, 1.4]]))
    results.record_reference("mcf", 0.2)
    path = tmp_path / "results.json"
    results.save(path)
    # The JSON export is for people and diff tools: floats survive it
    # exactly, keyed by the workload's readable key.
    assert json.loads(path.read_text()) == {
        "cores": 4, "simulator": "badco", "reference": {"mcf": 0.2},
        "ipcs": {"DRRIP": {w.key(): [0.1, 0.5, 0.5, 1.4]}}}
    assert path.read_text() == results.to_json()


def _batchful_results():
    """Results streamed in several batches per policy."""
    results = PopulationResults(2, "analytic")
    w1, w2, w3 = (Workload(["gcc", "gcc"]), Workload(["gcc", "mcf"]),
                  Workload(["mcf", "mcf"]))
    results.record_batch("LRU", [w1, w2], np.array([[1.0, 2.0], [3.0, 4.0]]))
    results.record_batch("LRU", [w3], np.array([[5.0, 6.0]]))
    results.record_batch("DIP", [w1], np.array([[0.5, 0.25]]))
    results.record_reference("gcc", 1.5)
    return results, (w1, w2, w3)


def test_record_batch_reads_like_record():
    results, (w1, w2, w3) = _batchful_results()
    assert results.contains("LRU", [w2, w3]).tolist() == [True, True]
    assert results.contains("DIP", [w1, w2]).tolist() == [True, False]
    assert _panel(results, "LRU", [w3]) == [[5.0, 6.0]]
    index, _ = results.columnar_panel(["LRU"])
    assert index.workloads == (w1, w2, w3)
    assert len(results) == 4
    assert _panel(results, "LRU", [w2]) == [[3.0, 4.0]]


def test_record_batch_validates_shape_and_duplicates():
    results = PopulationResults(2, "analytic")
    w = Workload(["gcc", "mcf"])
    with pytest.raises(ValueError):
        results.record_batch("LRU", [w], np.array([[1.0, 2.0, 3.0]]))
    results.record_batch("LRU", [w], np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        results.record_batch("LRU", [w], np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="duplicate rows"):
        results.record_batch("DIP", [w, w], np.ones((2, 2)))
    # A refused batch records nothing.
    assert len(results) == 1


def test_columnar_panel_serves_batches_without_dict():
    results, (w1, w2, w3) = _batchful_results()
    index, matrices = results.columnar_panel(["LRU"], [w1, w2, w3])
    assert matrices["LRU"].values.tolist() == [[1.0, 2.0], [3.0, 4.0],
                                               [5.0, 6.0]]
    # Reordered rows still come straight from the blocks.
    index, matrices = results.columnar_panel(["LRU"], [w3, w1, w2])
    assert matrices["LRU"].values.tolist() == [[5.0, 6.0], [1.0, 2.0],
                                               [3.0, 4.0]]
    # The legacy dict view was never built for LRU.
    assert "LRU" in results._blocks


def test_npz_roundtrip_matches_json(tmp_path):
    results, _ = _batchful_results()
    npz_path = tmp_path / "results.npz"
    exported = results.to_json()
    results.save_npz(npz_path)
    from_npz = PopulationResults.load_npz(npz_path)
    # npz loads stay columnar: panels restore as rank-keyed blocks,
    # and the reloaded campaign exports byte-identically.
    assert "LRU" in from_npz._blocks
    assert from_npz.to_json() == exported
    assert from_npz.cores == 2 and from_npz.simulator == "analytic"
    assert from_npz.reference == {"gcc": 1.5}
    with np.load(npz_path) as data:
        assert data["ranks_0"].dtype == np.int64
        assert int(data["cores"]) == 2
        assert tuple(data["suite"].tolist()) == SUITE


def test_nbytes_counts_panels_ranks_and_references():
    results, _ = _batchful_results()
    # LRU: 3 rows of (int64 rank + 2 float64 IPCs); DIP: one row
    # charged the same; one reference IPC.
    assert results.nbytes == 3 * 8 * 3 + 8 * 3 + 8


def test_npz_roundtrip_exact_floats(tmp_path):
    rng = np.random.default_rng(7)
    results = PopulationResults(2, "badco")
    workloads = [Workload([a, b]) for a, b in
                 [("gcc", "gcc"), ("gcc", "mcf"), ("mcf", "povray")]]
    panel = rng.random((3, 2))
    results.record_batch("LRU", workloads, panel)
    path = tmp_path / "r.npz"
    results.save_npz(path)
    loaded = PopulationResults.load_npz(path)
    assert np.array_equal(
        loaded.columnar_panel(["LRU"], workloads)[1]["LRU"].values, panel)


def _campaign(backend, **fields):
    return Campaign(CampaignConfig(backend=backend, cores=2,
                                   trace_length=TEST_TRACE_LENGTH, **fields))


def test_campaign_memoises_runs():
    campaign = _campaign("badco")
    w = Workload(["povray", "hmmer"])
    first = _panel(campaign.run_grid([w], ["LRU"]), "LRU", [w])
    simulations = campaign.timing.simulations
    assert simulations == 1
    second = _panel(campaign.run_grid([w], ["LRU"]), "LRU", [w])
    assert first == second
    assert campaign.timing.simulations == simulations    # no re-run


def test_campaign_grid_and_reference():
    campaign = _campaign("badco")
    workloads = [Workload(["povray", "povray"]), Workload(["povray", "hmmer"])]
    results = campaign.run_grid(workloads, ["LRU", "FIFO"])
    assert len(results) == 4
    refs = campaign.reference_ipcs(["povray"])
    assert refs["povray"] > 0


def test_campaign_disk_cache(tmp_path):
    w = Workload(["povray", "hmmer"])
    first = _campaign("badco", cache_dir=tmp_path)
    ipcs = _panel(first.run_grid([w], ["LRU"]), "LRU", [w])
    first.save()
    second = _campaign("badco", cache_dir=tmp_path)
    assert second.results.contains("LRU", [w]).tolist() == [True]
    assert _panel(second.run_grid([w], ["LRU"]), "LRU", [w]) == ipcs
    assert second.timing.simulations == 0


def test_unknown_simulator_rejected():
    with pytest.raises(ValueError):
        _campaign("zesto")


def test_campaign_timing_mips():
    campaign = _campaign("detailed")
    campaign.run_grid([Workload(["povray", "povray"])], ["LRU"])
    assert campaign.timing.simulations == 1
    assert campaign.timing.mips > 0
    assert campaign.timing.instructions >= 2 * TEST_TRACE_LENGTH
