"""Golden pin of the estimation path's numbers across engine changes.

Every other bit-identity test compares two runs of the *same* code
(jobs=1 vs jobs=2, cold vs warm store, served vs one-shot), so a
change that moves every run the same way passes them all.  This file
pins absolute values instead, recorded once and stored with floats as
``float.hex`` strings: the ``estimate_full_scale`` and
``estimate_two_stage`` answers, the reference IPCs, and a SHA-256 of
every campaign panel in population order, for two policy pairs on a
4-benchmark, 4-core universe at SMALL scale.  The analytic d(w) of
that universe is identically zero (scaled traces never stress its
LLC), so 2-core estimates -- whose d(w) is live -- ride along to pin
the d(w), strata and confidence layers with real signal.

Each of the three sessions -- cold (empty model store and cache),
warm (trained store, empty cache) and cached (reopening the warm
session's campaign cache) -- must reproduce the golden exactly.

Regenerate only for a deliberate numeric change, and say so::

    PYTHONPATH=src python -m tests.test_warm_path_golden
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session

GOLDEN = Path(__file__).with_name("golden") / "warm_path.json"
BENCHMARKS = ["bzip2", "gcc", "libquantum", "mcf"]
CORES = 4
PAIRS = (("LRU", "DIP"), ("FIFO", "DRRIP"))
SIZES = (5, 15)
REFINE = {"refine_backend": "badco", "refine_budget": 6}


def _hexed(value):
    """JSON-ready copy with every float as its exact ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _answer(estimate):
    fields = dataclasses.asdict(estimate)
    fields.pop("timings")          # wall clock, not a result
    fields.pop("training_runs")    # cold trains, warm does not
    fields.pop("refine_training_runs", None)
    return _hexed(fields)


def _panels(session):
    """SHA-256 per (campaign, policy) panel, rows in population order."""
    digests = {}
    for (backend, cores), campaign in sorted(session._campaigns.items()):
        population = session.population(cores).code_matrix
        results = campaign.results
        for policy in results.policies:
            rows = population.take(
                np.flatnonzero(results.contains(policy, population)))
            _, matrices = results.columnar_panel([policy], rows)
            values = np.ascontiguousarray(matrices[policy].values,
                                          dtype=np.float64)
            digests[f"{backend}-k{cores}-{policy}"] = {
                "rows": len(rows),
                "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
            }
        digests[f"{backend}-k{cores}-reference"] = _hexed(
            dict(sorted(results.reference.items())))
    return digests


def record(cache_dir: Path, model_store_dir: Path):
    """The golden payload computed by one session over these dirs."""
    session = Session("small", seed=0, benchmarks=BENCHMARKS,
                      cache_dir=cache_dir, model_store_dir=model_store_dir)
    answers = {}
    for baseline, candidate in PAIRS:
        pair = f"{baseline}/{candidate}"
        answers[f"full_scale k4 {pair}"] = _answer(
            session.estimate_full_scale(baseline, candidate, cores=CORES,
                                        sample_sizes=SIZES))
        answers[f"two_stage k4 {pair}"] = _answer(
            session.estimate_two_stage(baseline, candidate, cores=CORES,
                                       sample_sizes=SIZES, **REFINE))
        answers[f"full_scale k2 {pair}"] = _answer(
            session.estimate_full_scale(baseline, candidate, cores=2,
                                        sample_sizes=SIZES, min_stratum=3))
        answers[f"full_scale k2 WSU {pair}"] = _answer(
            session.estimate_full_scale(baseline, candidate, cores=2,
                                        metric="WSU", sample_sizes=SIZES))
    return {"answers": answers, "panels": _panels(session)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("warm-path-golden")
    models = base / "models"
    return {
        "cold": record(base / "cache-cold", models),
        "warm": record(base / "cache-warm", models),
        "cached": record(base / "cache-warm", models),
    }


@pytest.mark.parametrize("run", ["cold", "warm", "cached"])
def test_answers_match_the_golden(runs, golden, run):
    assert runs[run]["answers"] == golden["answers"]


@pytest.mark.parametrize("run", ["cold", "warm", "cached"])
def test_panels_match_the_golden(runs, golden, run):
    assert runs[run]["panels"] == golden["panels"]


def test_golden_covers_both_pairs_and_a_live_signal(golden):
    answers = golden["answers"]
    assert len(answers) == 4 * len(PAIRS)
    # A degenerate (d(w) == 0) answer pins little, so every answer
    # except the 4-core analytic screens must carry signal.
    live = [name for name in answers
            if not name.startswith("full_scale k4")]
    assert all(float.fromhex(answers[name]["inverse_cv"]) != 0.0
               for name in live)
    assert any(answers[name]["num_strata"] > 1 for name in live)
    assert {"analytic-k4-LRU", "analytic-k2-LRU",
            "badco-k4-LRU"} <= set(golden["panels"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        payload = record(Path(scratch) / "cache", Path(scratch) / "models")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
