"""The analytics / sim perf harness and its CLI subcommand."""

import json
from pathlib import Path

from repro.cli import main
from repro.perf import run_bench, run_sim_bench, speedups, write_bench

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_analytics.json"
SCHEMA_KEYS = {"name", "seconds", "draws", "population_size"}
#: Sim-suite records add provenance (and MIPS for simulator runs).
SIM_EXTRA_KEYS = {"backend", "mips"}
#: Serve-suite records add the scheduler/LRU counters of the run.
SERVE_EXTRA_KEYS = {"backend", "hit_rate", "requests",
                    "dispatch_groups", "coalesced"}


def _smoke_records():
    # Tiny but real: 2 cores (253 workloads), few draws, single repeat.
    return run_bench(draws=50, sample_size=10, cores=2, repeat=1)


def test_records_follow_schema():
    records = _smoke_records()
    assert records, "harness produced no records"
    for record in records:
        assert set(record) == SCHEMA_KEYS
        assert record["seconds"] > 0
        assert record["population_size"] == 253
    names = [r["name"] for r in records]
    assert len(names) == len(set(names))
    # Every scalar entry has its columnar sibling.
    scalars = {n for n in names if n.endswith("-scalar")}
    for name in scalars:
        assert name.replace("-scalar", "-columnar") in names
    # The PR-7 sampling-path records are all present.
    assert {"estimator-workload-strata-fast",
            "estimator-workload-strata-pairs-loop",
            "estimator-workload-strata-pairs"} <= set(names)
    # The committed trajectory's analytics suite is exactly what the
    # harness records: a record dropped from one side only would leave
    # a hot path the gate reports missing (or one it never gates).
    from repro.report import load_bench

    committed = [r.name for r in load_bench(TRAJECTORY).records
                 if r.suite == "analytics"]
    assert sorted(committed) == sorted(names)


def test_speedups_pair_scalar_with_columnar():
    records = _smoke_records()
    ratios = speedups(records)
    assert set(ratios) == {
        "delta-wsu", "estimator-random", "estimator-workload-strata",
        "estimator-bench-strata", "estimator-workload-strata-fast",
        "estimator-workload-strata-pairs"}
    # The columnar bench-strata estimator skips the per-draw O(N)
    # strata rebuild; even at smoke scale that is a decisive win.
    assert ratios["estimator-bench-strata"] > 2


def test_write_bench_round_trips(tmp_path):
    from repro.report import SCHEMA_VERSION, load_bench

    records = _smoke_records()
    path = tmp_path / "BENCH_analytics.json"
    write_bench(path, records, profile="smoke")
    payload = json.loads(path.read_text())
    # Schema 2: an envelope with context and derived ratios; each
    # record gains its suite and the run's profile at write time.
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["profile"] == "smoke"
    assert payload["speedups"] == speedups(records)
    assert {"cpu_count", "python", "numpy"} <= set(payload["context"])
    stripped = [{k: v for k, v in r.items()
                 if k not in ("suite", "profile")}
                for r in payload["records"]]
    assert stripped == records
    assert all(r["suite"] == "analytics" and r["profile"] == "smoke"
               for r in payload["records"])
    run = load_bench(path)
    assert run.schema == SCHEMA_VERSION
    assert run.profile == "smoke"
    assert [r.name for r in run.records] == [r["name"] for r in records]


def test_load_bench_accepts_the_old_bare_list_shape(tmp_path):
    from repro.report import load_bench

    records = _smoke_records()
    path = tmp_path / "BENCH_v1.json"
    path.write_text(json.dumps(records))
    run = load_bench(path)
    assert run.schema == 1
    assert run.profile is None
    assert run.speedups == speedups(records)
    assert [r.name for r in run.records] == [r["name"] for r in records]


def test_cli_bench_writes_output(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--profile", "smoke", "--draws", "20",
                 "--sample-size", "5", "--suite", "analytics",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    record_keys = SCHEMA_KEYS | {"suite", "profile"}
    assert all(set(r) == record_keys for r in payload["records"])
    stdout = capsys.readouterr().out
    assert "speedup estimator-random" in stdout


def test_sim_bench_records_and_speedup():
    records = run_sim_bench(profile="smoke")
    by_name = {r["name"]: r for r in records}
    assert {"sim-train-models", "sim-panel-badco", "sim-calibrate-analytic",
            "sim-panel-analytic", "sim-batch-parallel-jobs1",
            "sim-batch-parallel-jobs2", "sim-batch-parallel-auto",
            "sim-workloads-detailed",
            "sim-workloads-interval"} <= set(by_name)
    for record in records:
        assert SCHEMA_KEYS <= set(record) <= SCHEMA_KEYS | SIM_EXTRA_KEYS
        assert record["seconds"] > 0
    for name in ("sim-panel-badco", "sim-panel-analytic",
                 "sim-batch-parallel-jobs1", "sim-batch-parallel-jobs2",
                 "sim-batch-parallel-auto",
                 "sim-workloads-detailed", "sim-workloads-interval"):
        assert by_name[name]["mips"] > 0
    # The acceptance bar: the analytic batch builds the same panel at
    # least 10x faster than the event-driven badco loop.  The batch
    # entry point's jobs pairing is recorded but makes no speed
    # promise (a single-core host only pays fork overhead).
    ratios = speedups(records)
    assert ratios["sim-panel"] >= 10
    assert ratios["sim-batch-parallel"] > 0


def test_cli_bench_sim_suite(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--profile", "smoke", "--suite", "sim",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert any(r["name"] == "sim-panel-analytic"
               for r in payload["records"])
    assert "speedup sim-panel" in capsys.readouterr().out


def test_pop_bench_records_and_speedup():
    from repro.perf import run_pop_bench

    records = run_pop_bench(profile="smoke")
    by_name = {r["name"]: r for r in records}
    assert {"pop-enumerate-8core", "pop-sample-8core", "pop-store-cold",
            "pop-store-warm"} == set(by_name)
    for record in records:
        assert SCHEMA_KEYS <= set(record) <= SCHEMA_KEYS | SIM_EXTRA_KEYS
        assert record["seconds"] > 0
    # The acceptance bar: the full 8-core population (4 292 145
    # workloads) enumerates in seconds, and a warm model store beats
    # the cold (training) campaign decisively.
    assert by_name["pop-enumerate-8core"]["population_size"] == 4292145
    assert by_name["pop-enumerate-8core"]["seconds"] < 60
    assert by_name["pop-sample-8core"]["population_size"] == 2000
    ratios = speedups(records)
    assert ratios["pop-store"] > 2


def test_cli_bench_pop_suite(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--profile", "smoke", "--suite", "pop",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert any(r["name"] == "pop-enumerate-8core"
               for r in payload["records"])
    assert "speedup pop-store" in capsys.readouterr().out


def test_cli_bench_pop_suite_rejects_analytics_overrides(capsys):
    code = main(["bench", "--profile", "smoke", "--suite", "pop",
                 "--draws", "5", "--output", ""])
    assert code == 2
    assert "--suite pop" in capsys.readouterr().err


def test_e2e_bench_records_and_speedup():
    from repro.perf import run_e2e_bench

    records = run_e2e_bench(profile="smoke")
    by_name = {r["name"]: r for r in records}
    assert {"e2e-8core-cold", "e2e-8core-warm", "e2e-8core-panels",
            "e2e-8core-confidence", "e2e-two-stage",
            "e2e-two-stage-refine"} == set(by_name)
    for record in records:
        assert SCHEMA_KEYS <= set(record) <= SCHEMA_KEYS | SIM_EXTRA_KEYS
        assert record["seconds"] > 0
    assert by_name["e2e-8core-cold"]["backend"] == "analytic"
    assert by_name["e2e-two-stage-refine"]["backend"] == "badco"
    # The smoke frame rank-samples the 6-benchmark 8-core population.
    assert by_name["e2e-8core-cold"]["population_size"] == 1000
    assert by_name["e2e-8core-cold"]["draws"] == 200
    # The two-stage record covers the same frame; its refine sibling's
    # population_size is the rows the budget actually bought.
    assert by_name["e2e-two-stage"]["population_size"] == 1000
    assert by_name["e2e-two-stage-refine"]["population_size"] == 6
    # The warm pipeline skips all training (asserted inside the
    # harness) and must beat the cold one decisively.
    ratios = speedups(records)
    assert ratios["e2e-8core"] > 2


def test_cli_bench_e2e_suite(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--profile", "smoke", "--suite", "e2e",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert any(r["name"] == "e2e-8core-warm"
               for r in payload["records"])
    assert "speedup e2e-8core" in capsys.readouterr().out


def test_serve_bench_records_and_speedup():
    from repro.perf import run_serve_bench

    records = run_serve_bench(profile="smoke")
    by_name = {r["name"]: r for r in records}
    assert {"serve-oneshot-warm", "serve-query-cold", "serve-query-warm",
            "serve-concurrent"} == set(by_name)
    for record in records:
        assert SCHEMA_KEYS <= set(record) <= SCHEMA_KEYS | SERVE_EXTRA_KEYS
        assert record["seconds"] > 0
    # The coalescing contract: the burst's M requests dispatched
    # strictly fewer grids than M, and the resident LRU saw hits.
    concurrent = by_name["serve-concurrent"]
    assert concurrent["dispatch_groups"] < concurrent["requests"]
    assert (concurrent["coalesced"]
            == concurrent["requests"] - concurrent["dispatch_groups"])
    assert by_name["serve-query-warm"]["hit_rate"] > 0
    # The serving win: a resident warm query beats both the daemon's
    # own cold query and the one-shot warm driver.
    ratios = speedups(records)
    assert ratios["serve-query"] > 1
    assert ratios["serve-oneshot"] > 1


def test_cli_bench_serve_suite(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--profile", "smoke", "--suite", "serve",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert any(r["name"] == "serve-query-warm"
               for r in payload["records"])
    assert "speedup serve-query" in capsys.readouterr().out


def test_checked_in_trajectory_covers_the_hot_paths():
    """BENCH_analytics.json non-regression: the reference trajectory.

    The checked-in file is the full-profile run the README quotes.
    This pins its contract through the `repro.report` tables -- the
    same TRAJECTORY_RECORDS / SPEEDUP_FLOORS / THRESHOLDS single
    source of truth the CI bench-gate diffs against, so this tier-1
    pin and the gate can never drift apart.
    """
    from pathlib import Path

    from repro.report import (
        SPEEDUP_FLOORS, TRAJECTORY_RECORDS, diff_runs, hot_path_names,
        load_bench,
    )

    path = Path(__file__).resolve().parent.parent / "BENCH_analytics.json"
    run = load_bench(path)
    names = {r.name for r in run.records}
    assert set(TRAJECTORY_RECORDS) <= names
    # The THRESHOLDS patterns all bite: every named hot path appears.
    assert {"sim-panel-analytic", "e2e-8core-warm",
            "serve-query-warm"} <= set(hot_path_names(names))
    assert all(r.seconds > 0 for r in run.records)
    for stem, floor in SPEEDUP_FLOORS.items():
        assert run.speedups[stem] >= floor, (stem, floor)
    assert run.speedups["sim-batch-parallel"] > 0
    # The committed trajectory diffed against itself is the clean
    # fixed point of the regression gate.
    assert diff_runs(run, run).ok
