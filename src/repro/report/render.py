"""Renderers for runs and diffs (text, JSON, CSV).

Both renderers are deterministic functions of their input -- no
clocks, no environment -- so the golden-file tests can pin the text
and CSV output byte-for-byte.
"""

from __future__ import annotations

import csv
import io
import json
from typing import List, Optional, Sequence

from repro.report.aggregate import (
    DiffResult,
    geomean_speedups,
    hot_path_records,
    suite_tables,
)
from repro.report.records import BenchRun

FORMATS = ("text", "json", "csv")


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]],
                 align: Optional[str] = None) -> str:
    """Render an aligned text table; ``align[i]`` is ``<`` or ``>``."""
    if align is None:
        align = "<" + ">" * (len(headers) - 1)
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    for row in [list(headers)] + [list(row) for row in rows]:
        lines.append("  ".join(
            f"{cell:{align[index]}{widths[index]}}"
            for index, cell in enumerate(row)).rstrip())
        if row == list(headers):
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _seconds(value: float) -> str:
    return f"{value:.6f}"


def _ratio(value: float) -> str:
    return f"{value:.2f}x"


def _percent(value: float) -> str:
    return f"{value * 100:+.1f}%"


def _csv(headers: Sequence[str],
         rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# repro report show


def render_run(run: BenchRun, fmt: str = "text",
               suite: Optional[str] = None) -> str:
    """Render one trajectory: per-suite tables, ratios, hot paths."""
    tables = suite_tables(run)
    if suite is not None:
        tables = {name: records for name, records in tables.items()
                  if name == suite}
    if fmt == "json":
        payload = {
            "schema": run.schema,
            "profile": run.profile,
            "context": run.context.to_dict(),
            "suites": {name: [record.to_dict() for record in records]
                       for name, records in tables.items()},
            "speedups": dict(sorted(run.speedups.items())),
            "geomean_speedups": geomean_speedups(run),
            "hot_paths": [record.name
                          for record in hot_path_records(run)],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        rows = [(record.suite, record.name, _seconds(record.seconds),
                 record.draws, record.population_size,
                 record.profile or "", record.backend or "")
                for records in tables.values() for record in records]
        return _csv(("suite", "name", "seconds", "draws",
                     "population_size", "profile", "backend"), rows)

    sections: List[str] = []
    header = [f"bench trajectory (schema {run.schema}, "
              f"profile {run.profile or 'unknown'})"]
    context = run.context.to_dict()
    if context:
        header.append("context: " + ", ".join(
            f"{key}={value}" for key, value in sorted(context.items())))
    sections.append("\n".join(header))
    for name, records in tables.items():
        rows = [(record.name, _seconds(record.seconds),
                 str(record.draws), str(record.population_size),
                 record.backend or "-") for record in records]
        sections.append(f"[{name}]\n" + format_table(
            ("record", "seconds", "draws", "population", "backend"),
            rows))
    if run.speedups:
        rows = [(stem, _ratio(ratio))
                for stem, ratio in sorted(run.speedups.items())]
        sections.append("[speedups]\n" + format_table(
            ("ratio", "value"), rows))
        rows = [(scope, _ratio(value))
                for scope, value in geomean_speedups(run).items()]
        sections.append("[geomean speedups]\n" + format_table(
            ("scope", "geomean"), rows))
    hot = hot_path_records(run)
    if hot:
        rows = [(record.name, _seconds(record.seconds), record.suite)
                for record in hot]
        sections.append("[hot paths]\n" + format_table(
            ("record", "seconds", "suite"), rows, align="<><"))
    return "\n\n".join(sections) + "\n"


# ----------------------------------------------------------------------
# repro report diff


def render_diff(diff: DiffResult, fmt: str = "text") -> str:
    """Render a diff verdict: ranked deltas, floors, missing records."""
    if fmt == "json":
        payload = {
            "ok": diff.ok,
            "baseline_profile": diff.baseline_profile,
            "candidate_profile": diff.candidate_profile,
            "seconds_comparable": diff.seconds_comparable,
            "threshold_scale": diff.threshold_scale,
            "entries": [{
                "name": entry.name, "suite": entry.suite,
                "baseline_seconds": entry.baseline_seconds,
                "candidate_seconds": entry.candidate_seconds,
                "relative": entry.relative,
                "threshold": entry.threshold,
                "gated": entry.gated,
                "regressed": entry.regressed,
            } for entry in diff.entries],
            "missing_hot_paths": diff.missing_hot_paths,
            "new_records": diff.new_records,
            "floor_checks": [{
                "stem": check.stem, "ratio": check.ratio,
                "floor": check.floor, "ok": check.ok,
            } for check in diff.floor_checks],
            "missing_ratios": diff.missing_ratios,
            "missing_suites": diff.missing_suites,
            "require_suites": diff.require_suites,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        rows = [(entry.name, entry.suite,
                 _seconds(entry.baseline_seconds),
                 _seconds(entry.candidate_seconds),
                 f"{entry.relative:+.4f}",
                 "" if entry.threshold is None
                 else f"{entry.threshold:.4f}",
                 "gated" if entry.gated else "ungated",
                 "regressed" if entry.regressed else "ok")
                for entry in diff.entries]
        return _csv(("name", "suite", "baseline_seconds",
                     "candidate_seconds", "relative", "threshold",
                     "gating", "verdict"), rows)

    lines = [
        f"bench diff: baseline profile "
        f"{diff.baseline_profile or 'unknown'} vs candidate profile "
        f"{diff.candidate_profile or 'unknown'}",
        "seconds gating: " + (
            f"on (threshold scale {diff.threshold_scale:g})"
            if diff.seconds_comparable else
            "off (profiles differ; presence and floors still gate)"),
    ]
    sections = ["\n".join(lines)]
    if diff.entries:
        rows = []
        for entry in diff.entries:
            if entry.regressed:
                verdict = "REGRESSED"
            elif entry.gated:
                verdict = "ok"
            else:
                verdict = "-"
            rows.append((entry.name, _seconds(entry.baseline_seconds),
                         _seconds(entry.candidate_seconds),
                         _percent(entry.relative),
                         "-" if entry.threshold is None
                         else _percent(entry.threshold), verdict))
        sections.append("[records, worst delta first]\n" + format_table(
            ("record", "baseline s", "candidate s", "delta",
             "threshold", "verdict"), rows, align="<>>>>>"))
    if diff.floor_checks or diff.missing_ratios:
        rows = [(check.stem, _ratio(check.ratio), _ratio(check.floor),
                 "ok" if check.ok else "BELOW FLOOR")
                for check in diff.floor_checks]
        rows.extend((stem, "-", "-", "MISSING")
                    for stem in sorted(diff.missing_ratios))
        sections.append("[speedup floors]\n" + format_table(
            ("ratio", "candidate", "floor", "verdict"), rows,
            align="<>>>"))
    if diff.missing_suites:
        gating = "gated" if diff.require_suites else "not gated"
        sections.append(f"[missing suites ({gating})]\n" + "\n".join(
            f"  {name}" for name in diff.missing_suites))
    if diff.missing_hot_paths:
        sections.append("[missing hot paths]\n" + "\n".join(
            f"  {name}" for name in diff.missing_hot_paths))
    if diff.new_records:
        sections.append("[new records]\n" + "\n".join(
            f"  {name}" for name in diff.new_records))
    verdict = "PASS" if diff.ok else "FAIL"
    counts = (f"{len(diff.regressions)} regression(s), "
              f"{len(diff.missing_hot_paths)} missing hot path(s), "
              f"{sum(1 for check in diff.floor_checks if not check.ok)}"
              f" floor failure(s)")
    if diff.missing_ratios:
        counts += f", {len(diff.missing_ratios)} missing ratio(s)"
    if diff.missing_suites:
        counts += f", {len(diff.missing_suites)} missing suite(s)"
    sections.append(f"verdict: {verdict} ({counts})")
    return "\n\n".join(sections) + "\n"

