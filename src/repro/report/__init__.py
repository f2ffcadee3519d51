"""Result records and regression gating over the bench trajectory
(``repro report``).

The subsystem splits into three layers:

- :mod:`repro.report.records` -- the versioned run-record schema and
  typed load/validate of ``BENCH_*.json`` trajectories;
- :mod:`repro.report.aggregate` -- suite tables, geomean speedups,
  the :data:`THRESHOLDS` / :data:`SPEEDUP_FLOORS` single source of
  truth, and :func:`diff_runs` (the regression gate);
- :mod:`repro.report.render` -- deterministic text/JSON/CSV renderers.
"""

from repro.report.aggregate import (
    SMOKE_SPEEDUP_FLOORS,
    SPEEDUP_FLOORS,
    THRESHOLDS,
    TRAJECTORY_RECORDS,
    DiffEntry,
    DiffResult,
    FloorCheck,
    diff_runs,
    floors_for,
    geomean,
    geomean_speedups,
    hot_path_names,
    hot_path_records,
    suite_tables,
    threshold_for,
)
from repro.report.records import (
    SCHEMA_VERSION,
    BenchRun,
    MachineContext,
    ReportError,
    RunRecord,
    bench_run,
    bench_run_from_payload,
    load_bench,
    machine_context,
    save_bench,
    suite_of,
)
from repro.report.render import (
    FORMATS,
    format_table,
    render_diff,
    render_run,
)

__all__ = [
    "SCHEMA_VERSION",
    "SMOKE_SPEEDUP_FLOORS",
    "SPEEDUP_FLOORS",
    "THRESHOLDS",
    "TRAJECTORY_RECORDS",
    "FORMATS",
    "BenchRun",
    "DiffEntry",
    "DiffResult",
    "FloorCheck",
    "MachineContext",
    "ReportError",
    "RunRecord",
    "bench_run",
    "bench_run_from_payload",
    "diff_runs",
    "floors_for",
    "format_table",
    "geomean",
    "geomean_speedups",
    "hot_path_names",
    "hot_path_records",
    "load_bench",
    "machine_context",
    "render_diff",
    "render_run",
    "save_bench",
    "suite_of",
    "suite_tables",
    "threshold_for",
]
