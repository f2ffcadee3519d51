"""Multi-process safety: the model store and the campaign cache.

The serve daemon is one long-lived writer, but nothing stops a user
running one-shot CLI invocations against the same directories while it
is up.  These tests stress that shape with real processes: concurrent
cold campaigns over one shared model store and one shared campaign
cache must all produce the bit-identical panel, never corrupt the
cache twin (json + npz), and leave a cache a fresh campaign can serve
warm without a single new simulation.
"""

import json
from multiprocessing import get_context
from pathlib import Path

from repro.api import Campaign, CampaignConfig
from repro.core.population import WorkloadPopulation

BENCHMARKS = ("bzip2", "gcc", "mcf")
POLICIES = ("LRU", "DIP")
_WRITERS = 3
_READERS = 2
_READS = 15


def _config(root):
    return CampaignConfig(backend="analytic", cores=2, trace_length=2000,
                          seed=0, cache_dir=Path(root) / "cache",
                          model_store_dir=Path(root) / "models")


def _payload(results, population):
    _, matrices = results.columnar_panel(POLICIES, population)
    return {policy: matrices[policy].values.tolist() for policy in POLICIES}


def _writer(root, worker_id):
    """One cold campaign: trains into the shared store, saves the
    shared cache (the writer lock serialises both)."""
    population = WorkloadPopulation(BENCHMARKS, 2)
    campaign = Campaign(_config(root))
    results = campaign.run_grid(list(population), list(POLICIES))
    campaign.save()
    (Path(root) / f"writer{worker_id}.json").write_text(
        json.dumps(_payload(results, population)))


def _reader(root, worker_id):
    """Repeatedly open the cache mid-write: every load must be either
    empty (nothing saved yet) or a complete, uncorrupted panel."""
    population = WorkloadPopulation(BENCHMARKS, 2)
    panels = []
    for _ in range(_READS):
        campaign = Campaign(_config(root))  # loads whatever is on disk
        try:
            panels.append(_payload(campaign.results, population))
        except KeyError:
            continue                        # cache not written yet: fine
    (Path(root) / f"reader{worker_id}.json").write_text(
        json.dumps(panels))


def test_concurrent_campaigns_share_store_and_cache(tmp_path):
    context = get_context()
    workers = ([context.Process(target=_writer, args=(str(tmp_path), i))
                for i in range(_WRITERS)]
               + [context.Process(target=_reader, args=(str(tmp_path), i))
                  for i in range(_READERS)])
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=300)
        assert worker.exitcode == 0, "a concurrent campaign crashed"

    # Every writer produced the bit-identical panel (deterministic
    # config + shared trained models), and every snapshot any reader
    # caught mid-write is that same panel -- atomic replaces mean
    # there is no third state.
    panels = [json.loads((tmp_path / f"writer{i}.json").read_text())
              for i in range(_WRITERS)]
    assert all(panel == panels[0] for panel in panels)
    for i in range(_READERS):
        for snapshot in json.loads(
                (tmp_path / f"reader{i}.json").read_text()):
            assert snapshot == panels[0]

    # The cache the writers left behind serves a fresh campaign fully
    # warm: same panel, zero new simulations, zero training runs.
    population = WorkloadPopulation(BENCHMARKS, 2)
    campaign = Campaign(_config(tmp_path))
    results = campaign.run_grid(list(population), list(POLICIES))
    assert campaign.timing.simulations == 0
    assert _payload(results, population) == panels[0]
