"""Self-checks of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q perfbench/selfcheck.py

The two workload checks set up the full-scale universe, so they take
about 15 s each.  They show that the output checks fail a wrong answer
and that the served client streams never overlap.
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import tracing, workloads  # noqa: E402


@pytest.fixture
def make_run(monkeypatch):
    runs = []

    def make(workload: str, seconds: float = 0.0, trace: bool = False):
        run = workloads.Run.create(ROOT, workload, 7, seconds, trace)
        for name, value in run.env.items():
            monkeypatch.setenv(name, value)
        runs.append(run)
        return run

    yield make
    for run in runs:
        shutil.rmtree(run.tmp, ignore_errors=True)


def test_perturbed_confidence_counts_as_a_failed_op(make_run, monkeypatch):
    from repro.api.session import Session

    original = Session.estimate_full_scale
    calls = itertools.count()

    def perturbed(self, *args, **kwargs):
        answer = original(self, *args, **kwargs)
        # The first calls compute the references; the next is the first
        # timed op.
        if next(calls) == len(workloads.PAIRS):
            name, values = next(iter(answer.confidence.items()))
            answer = dataclasses.replace(answer, confidence={
                **answer.confidence, name: (values[0] + 1e-9,) + values[1:]})
        return answer

    monkeypatch.setattr(Session, "estimate_full_scale", perturbed)
    monkeypatch.setattr(workloads, "SETUPS", 1)
    run = make_run("oneshot")
    outcome = workloads.oneshot(run)
    assert run.tally.attempted == 2 * len(workloads.PAIRS)
    assert run.tally.failed == 1
    assert "confidence" in run.tally.errors[0]
    assert outcome.metrics["p50_ms"] > 0


def test_served_run_reports_no_deduplication(make_run):
    run = make_run("served", seconds=1.0, trace=True)
    outcome = workloads.served(run)
    assert run.tally.failed == 0, run.tally.errors
    assert run.run_errors == []
    assert outcome.layers["serve.deduplicated"] == 0
    assert outcome.layers["serve.requests"] > 0
    assert outcome.layers["session.memo_hit_ratio"] == 1.0


def test_overlapping_streams_fail_the_run():
    run = workloads.Run.create(ROOT, "served", 0, 0.0, False)
    shutil.rmtree(run.tmp, ignore_errors=True)
    assert workloads._require_no_dedup(
        run, {"deduplicated": 0}, {"deduplicated": 3}) == 3
    assert run.run_errors


def test_install_and_uninstall_restore_the_program():
    import importlib

    def current():
        values = []
        for module, owner, attr, _, _ in tracing.WRAPPED:
            target = importlib.import_module(module)
            target = getattr(target, owner) if owner else target
            values.append(vars(target).get(attr))
        return values

    before = current()
    tracer = tracing.Tracer().install()
    try:
        assert all(a is not b for a, b in zip(before, current()))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))


def test_self_time_excludes_children_and_gc():
    span = tracing.Span
    spans = [span(1, "op", 0.0, 1.0, 0, 1, 0),
             span(2, "estimator.curve", 0.1, 0.6, 1, 1, 0),
             span(3, "gc", 0.2, 0.3, 2, 1, 0)]
    own = tracing.self_seconds(spans)
    assert own[1] == pytest.approx(0.5)
    assert own[2] == pytest.approx(0.4)
    table = tracing.layer_table(spans, ops=2)
    assert table["estimator.curve_ms"] == pytest.approx(200.0)
    assert table["gc.pause_ms"] == pytest.approx(50.0)
    assert table["gc.collections"] == 0.5


def test_calibration_is_the_time_weighted_speed_in_the_window():
    from perfbench import hostspeed

    sampler = hostspeed.Sampler([0, 1])
    nominal = hostspeed.NOMINAL_S
    sampler.series[0][0].extend([1.0, 2.0, 3.0])
    sampler.series[0][1].extend([nominal, 2 * nominal, 4 * nominal])
    sampler.series[1][0].extend([1.5])
    sampler.series[1][1].extend([nominal])
    # CPU 0 ran at full and half speed in [0.5, 2.5]; CPU 1 has no
    # sample there, so its nearest one (full speed) counts.
    assert sampler.factor(0.5, 2.5) == pytest.approx((0.75 + 1.0) / 2)
    assert sampler.factor(2.5, 3.5) == pytest.approx((0.25 + 1.0) / 2)
    assert hostspeed.Sampler([0]).factor(0.0, 1.0) == 1.0


def test_pair_cycle_is_a_seeded_rotation():
    cycle = workloads.pair_cycle(3)
    assert cycle == workloads.pair_cycle(3)
    start = cycle.index(workloads.PAIRS[0])
    assert cycle[start:] + cycle[:start] == list(workloads.PAIRS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
