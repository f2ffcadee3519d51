"""The report subsystem: records, aggregation, renderers, CLI.

Covers the regression-gate contract end to end: typed load of both
schema shapes, hypothesis properties of the aggregation core (geomean
order invariance, diff-with-self cleanliness, threshold boundary
behavior), golden-file pins of the text/CSV renderers, and the CLI
exit-code contract (a synthetic 2x slowdown of a named hot path must
exit non-zero; the committed trajectory against itself must exit
zero).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.report import (
    SCHEMA_VERSION,
    SPEEDUP_FLOORS,
    THRESHOLDS,
    BenchRun,
    MachineContext,
    ReportError,
    RunRecord,
    bench_run_from_payload,
    diff_runs,
    floors_for,
    geomean,
    geomean_speedups,
    load_bench,
    machine_context,
    render_diff,
    render_run,
    save_bench,
    suite_of,
    threshold_for,
)

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_analytics.json"


def _record(name, seconds, **extra):
    return {"name": name, "seconds": seconds, "draws": 0,
            "population_size": 100, **extra}


def _run(seconds_by_name, profile=None):
    payload = {
        "schema": 2,
        "profile": profile,
        "records": [_record(name, seconds)
                    for name, seconds in seconds_by_name.items()],
    }
    return bench_run_from_payload(payload)


#: A small trajectory exercising every gate: one gated hot path per
#: suite, the scalar/columnar ratio pair, and the paired-suite stems
#: behind every SPEEDUP_FLOORS entry.
FIXTURE_SECONDS = {
    "estimator-bench-strata-scalar": 8.0,
    "estimator-bench-strata-columnar": 0.02,
    "sim-panel-badco": 5.0,
    "sim-panel-analytic": 0.01,
    "sim-policy-axis-loop": 3.0,
    "sim-policy-axis-grid": 2.0,
    "pop-store-cold": 4.0,
    "pop-store-warm": 0.5,
    "e2e-8core-cold": 3.0,
    "e2e-8core-warm": 0.6,
    "serve-query-cold": 0.5,
    "serve-query-warm": 0.016,
    "serve-oneshot-warm": 0.55,
}


# ----------------------------------------------------------------------
# Records and schema


def test_suite_of_covers_the_five_suites():
    assert suite_of("estimator-bench-strata-scalar") == "analytics"
    assert suite_of("delta-wsu-columnar") == "analytics"
    assert suite_of("sim-panel-analytic") == "sim"
    assert suite_of("pop-store-warm") == "pop"
    assert suite_of("e2e-8core-warm") == "e2e"
    assert suite_of("serve-query-warm") == "serve"
    assert suite_of("something-else") == "other"


def test_run_record_validates_payloads():
    good = RunRecord.from_dict(_record("e2e-8core-warm", 1.5,
                                       hit_rate=0.9))
    assert good.suite == "e2e"
    assert good.extra("hit_rate") == 0.9
    with pytest.raises(ReportError):
        RunRecord.from_dict(_record("x", -1.0))
    with pytest.raises(ReportError):
        RunRecord.from_dict(_record("x", float("nan")))
    with pytest.raises(ReportError):
        RunRecord.from_dict({"name": "x", "seconds": 1.0})
    with pytest.raises(ReportError):
        RunRecord.from_dict(_record("", 1.0))


def test_round_trip_preserves_extras(tmp_path):
    payload = [_record("serve-concurrent", 1.5, requests=64,
                       dispatch_groups=12, coalesced=52,
                       backend="analytic")]
    run = bench_run_from_payload(payload)
    path = tmp_path / "bench.json"
    save_bench(path, run)
    again = load_bench(path)
    record = again.by_name["serve-concurrent"]
    assert record.extra("requests") == 64
    assert record.backend == "analytic"
    assert again.schema == SCHEMA_VERSION


def test_run_record_rejects_nonstring_backend_and_profile():
    with pytest.raises(ReportError):
        RunRecord.from_dict(_record("x", 1.0, backend=7))
    with pytest.raises(ReportError):
        RunRecord.from_dict(_record("x", 1.0, profile=["smoke"]))


def test_loaded_trajectories_reject_duplicate_names():
    """Loads validate like fresh runs: by_name must be lossless."""
    duplicated = [_record("e2e-8core-warm", 1.0),
                  _record("e2e-8core-warm", 2.0)]
    with pytest.raises(ReportError, match="duplicate"):
        bench_run_from_payload(duplicated)
    with pytest.raises(ReportError, match="duplicate"):
        bench_run_from_payload({"schema": 2, "records": duplicated})


def test_load_bench_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(ReportError):
        load_bench(path)
    path.write_text('{"schema": 99, "records": []}')
    with pytest.raises(ReportError):
        load_bench(path)
    with pytest.raises(ReportError):
        load_bench(tmp_path / "missing.json")


def test_machine_context_round_trips():
    context = machine_context()
    assert context.cpu_count >= 1
    assert context.python and context.numpy
    assert MachineContext.from_dict(context.to_dict()) == context


# ----------------------------------------------------------------------
# Aggregation properties


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=20),
       st.randoms(use_true_random=False))
def test_geomean_is_exactly_order_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert geomean(shuffled) == geomean(values)


def test_geomean_rejects_nonpositive_and_empty():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    assert geomean([4.0]) == pytest.approx(4.0)
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)


@given(st.dictionaries(
    st.sampled_from(sorted(FIXTURE_SECONDS)),
    st.floats(min_value=1e-4, max_value=1e3, allow_nan=False),
    min_size=1))
@settings(max_examples=50)
def test_diff_with_self_is_clean_modulo_floors(seconds_by_name):
    """diff(a, a) never reports regressions or missing hot paths.

    Floors can still fail on arbitrary seconds (they are absolute
    claims about the candidate, not relative ones), so the property
    pins the relative half: zero deltas, zero regressions, nothing
    missing, nothing new.
    """
    run = _run(seconds_by_name)
    diff = diff_runs(run, run)
    assert not diff.regressions
    assert not diff.missing_hot_paths
    assert not diff.new_records
    assert all(entry.relative == 0.0 for entry in diff.entries)
    assert diff.seconds_comparable


def test_diff_with_self_on_the_fixture_is_fully_clean():
    run = _run(FIXTURE_SECONDS)
    diff = diff_runs(run, run)
    assert diff.ok
    assert [check.stem for check in diff.floor_checks] == \
        sorted(SPEEDUP_FLOORS)


@given(st.floats(min_value=-0.4, max_value=3.0, allow_nan=False))
@settings(max_examples=50)
def test_threshold_boundary_is_exclusive(slowdown):
    """A hot path regresses iff its delta strictly exceeds the bar."""
    base = _run(FIXTURE_SECONDS)
    seconds = dict(FIXTURE_SECONDS)
    seconds["serve-query-warm"] *= 1.0 + slowdown
    cand = _run(seconds)
    diff = diff_runs(base, cand)
    entry = next(e for e in diff.entries if e.name == "serve-query-warm")
    threshold = threshold_for("serve-query-warm")
    assert entry.threshold == threshold
    assert entry.regressed == (entry.relative > threshold)
    # serve-query-warm is the denominator of three paired ratios, so
    # slowing it can only trip the gate through its own threshold or
    # the serve floors -- regressions must agree with the entry.
    assert (entry in diff.regressions) == entry.regressed


def test_exact_threshold_boundary_does_not_regress():
    base = _run(FIXTURE_SECONDS)
    threshold = threshold_for("e2e-8core-warm")
    seconds = dict(FIXTURE_SECONDS)
    seconds["e2e-8core-warm"] *= 1.0 + threshold
    diff = diff_runs(base, _run(seconds))
    entry = next(e for e in diff.entries if e.name == "e2e-8core-warm")
    assert entry.relative == pytest.approx(threshold)
    assert not entry.regressed


def test_threshold_scale_widens_the_gate():
    base = _run(FIXTURE_SECONDS)
    seconds = dict(FIXTURE_SECONDS)
    seconds["sim-panel-analytic"] *= 1.8          # +80% > 50% bar
    cand = _run(seconds)
    assert not diff_runs(base, cand).ok
    assert diff_runs(base, cand, threshold_scale=2.0).ok


def test_profile_mismatch_skips_seconds_but_keeps_floors():
    base = _run(FIXTURE_SECONDS, profile="full")
    seconds = {name: value * 10 for name, value in
               FIXTURE_SECONDS.items()}
    cand = _run(seconds, profile="smoke")
    diff = diff_runs(base, cand)
    assert not diff.seconds_comparable
    assert not diff.regressions          # 10x slower, but not gated
    # Smoke floors drop the cross-suite serve-vs-oneshot headline.
    assert "serve-vs-oneshot" not in {c.stem for c in diff.floor_checks}
    assert "serve-vs-oneshot" not in floors_for("smoke")
    assert "serve-vs-oneshot" in floors_for("full")
    assert diff.ok                       # uniform scaling keeps ratios


def test_missing_hot_path_fails_the_diff():
    base = _run(FIXTURE_SECONDS)
    seconds = {name: value for name, value in FIXTURE_SECONDS.items()
               if name != "serve-query-warm"}
    diff = diff_runs(base, _run(seconds))
    assert diff.missing_hot_paths == ["serve-query-warm"]
    assert not diff.ok


def test_missing_ratio_fails_the_diff():
    """A floored ratio the candidate cannot form fails, and says so."""
    base = _run(FIXTURE_SECONDS)
    seconds = {name: value for name, value in FIXTURE_SECONDS.items()
               if name != "e2e-8core-cold"}
    diff = diff_runs(base, _run(seconds))
    assert diff.missing_ratios == ["e2e-8core"]
    assert not diff.ok
    assert render_diff(diff).splitlines()[-1] == (
        "verdict: FAIL (0 regression(s), 0 missing hot path(s), "
        "0 floor failure(s), 1 missing ratio(s))")


def test_dropped_suite_is_reported_and_gated_on_request():
    """A candidate that loses a whole suite never passes silently."""
    base = _run(FIXTURE_SECONDS)
    seconds = {name: value for name, value in FIXTURE_SECONDS.items()
               if not name.startswith("serve-")}
    cand = _run(seconds)
    diff = diff_runs(base, cand)
    assert diff.missing_suites == ["serve"]
    assert diff.ok                       # subset runs stay legitimate
    strict = diff_runs(base, cand, require_suites=True)
    assert strict.missing_suites == ["serve"]
    assert not strict.ok
    text = render_diff(strict)
    assert "[missing suites (gated)]" in text and "serve" in text
    assert "1 missing suite(s)" in text
    payload = json.loads(render_diff(strict, fmt="json"))
    assert payload["missing_suites"] == ["serve"]
    assert payload["require_suites"] is True
    assert payload["ok"] is False


def test_floor_failure_fails_the_diff():
    base = _run(FIXTURE_SECONDS)
    seconds = dict(FIXTURE_SECONDS)
    # Slow the analytic panel until sim-panel drops below its 10x
    # floor while staying inside the relative threshold vs itself.
    seconds["sim-panel-analytic"] = seconds["sim-panel-badco"] / 2.0
    cand = _run(seconds)
    diff = diff_runs(cand, cand)
    failed = [c for c in diff.floor_checks if not c.ok]
    assert [c.stem for c in failed] == ["sim-panel"]
    assert not diff.ok


def test_geomean_speedups_by_suite():
    run = _run(FIXTURE_SECONDS)
    by_suite = geomean_speedups(run)
    assert {"analytics", "sim", "pop", "e2e", "serve",
            "overall"} <= set(by_suite)
    # sim-panel 5.0 / 0.01 and sim-policy-axis 3.0 / 2.0
    assert by_suite["sim"] == pytest.approx(geomean([500.0, 1.5]))
    ratios = sorted(r for r in run.speedups.values() if r > 0)
    assert by_suite["overall"] == pytest.approx(geomean(ratios))


# ----------------------------------------------------------------------
# Golden renders

GOLDEN_DIFF_TEXT = """\
bench diff: baseline profile unknown vs candidate profile unknown
seconds gating: on (threshold scale 1)

[records, worst delta first]
record      baseline s  candidate s    delta  threshold    verdict
----------  ----------  -----------  -------  ---------  ---------
fast-path     1.000000     2.000000  +100.0%     +50.0%  REGRESSED
other-path    4.000000     3.000000   -25.0%          -          -

[speedup floors]
ratio      candidate  floor      verdict
---------  ---------  -----  -----------
fast-path      1.50x  2.00x  BELOW FLOOR

verdict: FAIL (1 regression(s), 0 missing hot path(s), 1 floor failure(s))
"""

GOLDEN_DIFF_CSV = """\
name,suite,baseline_seconds,candidate_seconds,relative,threshold,gating,verdict
fast-path,other,1.000000,2.000000,+1.0000,0.5000,gated,regressed
other-path,other,4.000000,3.000000,-0.2500,,ungated,ok
"""


def _golden_diff():
    from repro.report import DiffEntry, DiffResult, FloorCheck

    return DiffResult(
        baseline_profile=None, candidate_profile=None,
        seconds_comparable=True, threshold_scale=1.0,
        entries=[
            DiffEntry(name="fast-path", suite="other",
                      baseline_seconds=1.0, candidate_seconds=2.0,
                      relative=1.0, threshold=0.5, gated=True),
            DiffEntry(name="other-path", suite="other",
                      baseline_seconds=4.0, candidate_seconds=3.0,
                      relative=-0.25, threshold=None, gated=False),
        ],
        floor_checks=[FloorCheck(stem="fast-path", ratio=1.5,
                                 floor=2.0)])


def test_render_diff_text_golden():
    assert render_diff(_golden_diff(), fmt="text") == GOLDEN_DIFF_TEXT


def test_render_diff_csv_golden():
    assert render_diff(_golden_diff(), fmt="csv") == GOLDEN_DIFF_CSV


def test_render_diff_json_is_loadable():
    payload = json.loads(render_diff(_golden_diff(), fmt="json"))
    assert payload["ok"] is False
    assert payload["entries"][0]["regressed"] is True
    assert payload["floor_checks"][0]["ok"] is False


GOLDEN_RUN_TEXT = """\
bench trajectory (schema 2, profile full)
context: cpu_count=8, python=3.11.0

[sim]
record               seconds  draws  population  backend
------------------  --------  -----  ----------  -------
sim-panel-badco     5.000000      0         100    badco
sim-panel-analytic  0.001000      0         100        -

[speedups]
ratio         value
---------  --------
sim-panel  5000.00x

[geomean speedups]
scope     geomean
-------  --------
sim      5000.00x
overall  5000.00x

[hot paths]
record               seconds  suite
------------------  --------  -----
sim-panel-analytic  0.001000  sim
"""


def test_render_run_text_golden():
    run = BenchRun(
        records=[
            RunRecord(name="sim-panel-badco", seconds=5.0, draws=0,
                      population_size=100, suite="sim",
                      profile="full", backend="badco"),
            RunRecord(name="sim-panel-analytic", seconds=0.001,
                      draws=0, population_size=100, suite="sim",
                      profile="full"),
        ],
        context=MachineContext(cpu_count=8, python="3.11.0"),
        speedups={"sim-panel": 5000.0},
        profile="full")
    rendered = render_run(run, fmt="text")
    assert [line.rstrip() for line in rendered.splitlines()] == \
        [line.rstrip() for line in GOLDEN_RUN_TEXT.splitlines()]


def test_render_run_csv_and_json():
    run = load_bench(TRAJECTORY)
    csv_text = render_run(run, fmt="csv")
    header, *rows = csv_text.splitlines()
    assert header.startswith("suite,name,seconds")
    assert len(rows) == len(run.records)
    payload = json.loads(render_run(run, fmt="json"))
    assert set(payload["suites"]) == set(run.suites)
    assert payload["speedups"] == {
        k: pytest.approx(v) for k, v in run.speedups.items()}


# ----------------------------------------------------------------------
# CLI exit-code contract


def test_cli_report_show_and_formats(capsys):
    assert main(["report", "show", str(TRAJECTORY)]) == 0
    out = capsys.readouterr().out
    assert "[analytics]" in out and "[speedups]" in out
    assert main(["report", "show", str(TRAJECTORY),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["profile"] == "full"
    assert main(["report", "show", str(TRAJECTORY),
                 "--suite", "nope"]) == 2


def test_cli_report_diff_of_committed_trajectory_with_itself(capsys):
    code = main(["report", "diff", "--baseline", str(TRAJECTORY),
                 "--candidate", str(TRAJECTORY)])
    assert code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_cli_report_diff_catches_injected_slowdown(tmp_path, capsys):
    """The acceptance criterion: a 2x hot-path slowdown exits 1."""
    payload = json.loads(TRAJECTORY.read_text())
    for record in payload["records"]:
        if record["name"] == "serve-query-warm":
            record["seconds"] *= 2
    slowed = tmp_path / "slowed.json"
    slowed.write_text(json.dumps(payload))
    code = main(["report", "diff", "--baseline", str(TRAJECTORY),
                 "--candidate", str(slowed)])
    assert code == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "verdict: FAIL" in out


def test_cli_report_diff_require_suites(tmp_path, capsys):
    payload = json.loads(TRAJECTORY.read_text())
    payload["records"] = [record for record in payload["records"]
                          if not record["name"].startswith("serve-")]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(payload))
    assert main(["report", "diff", "--baseline", str(TRAJECTORY),
                 "--candidate", str(partial)]) == 0
    capsys.readouterr()
    assert main(["report", "diff", "--baseline", str(TRAJECTORY),
                 "--candidate", str(partial), "--require-suites"]) == 1
    assert "[missing suites (gated)]" in capsys.readouterr().out


def test_cli_report_diff_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["report", "diff", "--baseline", str(TRAJECTORY),
                 "--candidate", str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert main(["report", "diff", "--baseline", str(TRAJECTORY),
                 "--candidate", str(TRAJECTORY),
                 "--threshold-scale", "0"]) == 2


def test_thresholds_name_the_documented_hot_paths():
    """The ISSUE's named hot paths are all gated by THRESHOLDS."""
    patterns = [pattern for pattern, _ in THRESHOLDS]
    assert patterns == ["estimator-*", "sim-panel-analytic",
                        "sim-uncore-requests", "e2e-8core-warm",
                        "serve-query-warm"]
    for name in ("estimator-bench-strata-columnar",
                 "sim-panel-analytic", "sim-uncore-requests",
                 "e2e-8core-warm", "serve-query-warm"):
        assert threshold_for(name) is not None
    assert threshold_for("sim-panel-badco") is None
