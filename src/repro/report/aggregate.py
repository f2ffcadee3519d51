"""Aggregation and regression logic over bench trajectories.

This is the single source of truth for *what the trajectory promises*:

- :data:`THRESHOLDS` -- per-record relative wall-clock thresholds for
  the named hot paths.  ``repro report diff`` gates on these, and the
  tier-1 pin in ``tests/test_perf_bench.py`` asserts through the same
  table, so the CI gate and the test can never drift apart.
- :data:`SPEEDUP_FLOORS` -- the headline speedup ratios every
  trajectory must clear (the numbers the README quotes).
- :data:`TRAJECTORY_RECORDS` -- the record names the committed
  reference trajectory must contain.

:func:`diff_runs` compares a candidate trajectory against a baseline:
seconds are gated per-record when the two runs are comparable (same
profile on the same suite scale), hot-path *presence* and the speedup
floors are checked regardless, so a smoke-profile CI run is still a
real gate without pretending its wall-clock is the reference's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.report.records import BenchRun, RunRecord

#: Per-record relative regression thresholds for the named hot paths:
#: ``(glob pattern, allowed relative slowdown)``.  First match wins.
#: 0.50 means a candidate may be up to 50% slower than the baseline
#: before the gate trips -- wide enough for shared-runner noise, tight
#: enough that a real 2x regression can never ride in.
THRESHOLDS: Tuple[Tuple[str, float], ...] = (
    ("estimator-*", 0.50),
    ("sim-panel-analytic", 0.50),
    ("sim-uncore-requests", 0.50),
    ("e2e-8core-warm", 0.50),
    ("serve-query-warm", 0.50),
)

#: Derived-ratio floors (inclusive: ratio >= floor passes).  These are
#: the headline claims of the trajectory; they hold at full *and*
#: smoke profile except where noted.
SPEEDUP_FLOORS: Dict[str, float] = {
    "estimator-bench-strata": 2.0,
    "sim-panel": 10.0,
    # A five-policy BADCO grid takes at least 25 % less time as one call
    # than per policy (the rows share their run until the LLC first
    # fills a set): 1.52-1.61x at full profile, 1.9x at smoke.
    "sim-policy-axis": 1.33,
    "pop-store": 2.0,
    "e2e-8core": 2.0,
    "serve-query": 1.0,
    "serve-vs-oneshot": 10.0,
}

#: At smoke scale the one-shot driver is so small that resident state
#: buys less than 10x, so the cross-suite serve-vs-oneshot headline is
#: only enforced on full-profile runs.
SMOKE_SPEEDUP_FLOORS: Dict[str, float] = {
    stem: floor for stem, floor in SPEEDUP_FLOORS.items()
    if stem != "serve-vs-oneshot"
}

#: Record names the committed reference trajectory must contain.
TRAJECTORY_RECORDS: Tuple[str, ...] = (
    "delta-wsu-scalar", "delta-wsu-columnar",
    "estimator-random-scalar", "estimator-random-columnar",
    "estimator-bench-strata-scalar", "estimator-bench-strata-columnar",
    "estimator-workload-strata-pairs",
    "sim-panel-badco", "sim-panel-analytic",
    "sim-batch-parallel-jobs1", "sim-batch-parallel-jobs2",
    "sim-batch-parallel-auto",
    "sim-policy-axis-loop", "sim-policy-axis-grid",
    "sim-uncore-requests",
    "pop-store-cold", "pop-store-warm",
    "e2e-8core-cold", "e2e-8core-warm",
    "e2e-two-stage", "e2e-two-stage-refine",
    "serve-oneshot-warm", "serve-query-cold",
    "serve-query-warm", "serve-concurrent",
)


def threshold_for(name: str) -> Optional[float]:
    """The gating threshold for a record name, or None (ungated)."""
    for pattern, threshold in THRESHOLDS:
        if fnmatchcase(name, pattern):
            return threshold
    return None


def hot_path_names(names: Iterable[str]) -> List[str]:
    """The subset of ``names`` matched by the THRESHOLDS table."""
    return [name for name in names if threshold_for(name) is not None]


def floors_for(profile: Optional[str]) -> Dict[str, float]:
    """The speedup floors a run at ``profile`` must clear."""
    if profile == "smoke":
        return dict(SMOKE_SPEEDUP_FLOORS)
    return dict(SPEEDUP_FLOORS)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, exactly invariant under input order.

    The logs are sorted before summation so that permuting ``values``
    can never change the float result bit-for-bit -- the property the
    hypothesis suite pins.
    """
    if not values:
        raise ValueError("geomean of an empty sequence")
    logs = []
    for value in values:
        if not value > 0:
            raise ValueError(f"geomean requires positive values, "
                             f"got {value!r}")
        logs.append(math.log(value))
    return math.exp(math.fsum(sorted(logs)) / len(logs))


def suite_tables(run: BenchRun) -> Dict[str, List[RunRecord]]:
    """Records grouped by suite, suites in first-appearance order."""
    tables: Dict[str, List[RunRecord]] = {}
    for record in run.records:
        tables.setdefault(record.suite, []).append(record)
    return tables


def hot_path_records(run: BenchRun) -> List[RunRecord]:
    """The run's records that the THRESHOLDS table gates."""
    return [record for record in run.records
            if threshold_for(record.name) is not None]


def geomean_speedups(run: BenchRun) -> Dict[str, float]:
    """Per-suite and overall geomean of the derived speedup ratios.

    Ratios are attributed to the suite of their fast-side record stem
    (``sim-panel`` -> sim); the ``"overall"`` key spans all of them.
    """
    from repro.report.records import suite_of

    by_suite: Dict[str, List[float]] = {}
    for stem, ratio in run.speedups.items():
        if ratio > 0:
            by_suite.setdefault(suite_of(stem), []).append(ratio)
    result = {suite: geomean(ratios)
              for suite, ratios in sorted(by_suite.items())}
    all_ratios = [ratio for ratio in run.speedups.values() if ratio > 0]
    if all_ratios:
        result["overall"] = geomean(all_ratios)
    return result


# ----------------------------------------------------------------------
# Diff


@dataclass(frozen=True)
class DiffEntry:
    """One record's baseline-vs-candidate wall-clock comparison."""

    name: str
    suite: str
    baseline_seconds: float
    candidate_seconds: float
    #: (candidate - baseline) / baseline; positive is slower.
    relative: float
    #: The scaled gating threshold, or None when the record is ungated.
    threshold: Optional[float]
    #: Whether the seconds comparison counts toward the verdict.
    gated: bool

    @property
    def regressed(self) -> bool:
        return (self.gated and self.threshold is not None
                and self.relative > self.threshold)

    @property
    def improved(self) -> bool:
        return self.relative < 0


@dataclass(frozen=True)
class FloorCheck:
    """One derived-ratio floor checked against the candidate."""

    stem: str
    ratio: float
    floor: float

    @property
    def ok(self) -> bool:
        return self.ratio >= self.floor


@dataclass
class DiffResult:
    """The full verdict of a baseline-vs-candidate comparison."""

    baseline_profile: Optional[str]
    candidate_profile: Optional[str]
    #: Whether wall-clock seconds were gated (profiles comparable).
    seconds_comparable: bool
    threshold_scale: float
    #: All shared records, sorted by relative slowdown, worst first.
    entries: List[DiffEntry] = field(default_factory=list)
    #: Gated baseline records absent from the candidate although the
    #: candidate covers their suite -- a silently dropped hot path.
    missing_hot_paths: List[str] = field(default_factory=list)
    #: Candidate records the baseline has never seen.
    new_records: List[str] = field(default_factory=list)
    floor_checks: List[FloorCheck] = field(default_factory=list)
    #: Floors whose ratio the candidate could not even derive.
    missing_ratios: List[str] = field(default_factory=list)
    #: Baseline suites with no candidate record at all -- an entire
    #: suite dropped from the run (e.g. bench wrote output after a
    #: suite crashed out).  Always reported; fatal iff
    #: ``require_suites``.
    missing_suites: List[str] = field(default_factory=list)
    #: Whether missing suites fail the gate (set when diffing a run
    #: that was supposed to cover every baseline suite, e.g. CI's
    #: ``--suite all`` smoke gate).
    require_suites: bool = False

    @property
    def regressions(self) -> List[DiffEntry]:
        return [entry for entry in self.entries if entry.regressed]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [entry for entry in self.entries if entry.improved]

    @property
    def ok(self) -> bool:
        return (not self.regressions and not self.missing_hot_paths
                and not self.missing_ratios
                and not (self.require_suites and self.missing_suites)
                and all(check.ok for check in self.floor_checks))


def diff_runs(baseline: BenchRun, candidate: BenchRun,
              threshold_scale: float = 1.0,
              require_suites: bool = False) -> DiffResult:
    """Compare a candidate trajectory against a baseline.

    Wall-clock seconds are gated per-record only when the two runs are
    *comparable* -- measured at the same profile (both ``None`` counts
    as comparable: two schema-1 files, or the committed trajectory
    against itself).  Hot-path presence and the candidate's speedup
    floors are enforced either way.  Baseline suites the candidate
    dropped entirely are always reported in ``missing_suites``; a
    suite-subset candidate is otherwise legitimate, so they only fail
    the gate under ``require_suites``.

    Args:
        threshold_scale: multiplies every THRESHOLDS entry -- CI uses
            a larger scale on shared runners where timer noise is
            wider than on the reference machine.
        require_suites: fail the gate when the candidate is missing an
            entire baseline suite -- set this when gating a run that
            claims full coverage (``repro bench --suite all``).
    """
    if not threshold_scale > 0:
        raise ValueError(f"threshold_scale must be positive, "
                         f"got {threshold_scale!r}")
    comparable = baseline.profile == candidate.profile
    base_by_name = baseline.by_name
    cand_by_name = candidate.by_name

    entries: List[DiffEntry] = []
    for name, base in base_by_name.items():
        cand = cand_by_name.get(name)
        if cand is None:
            continue
        threshold = threshold_for(name)
        entries.append(DiffEntry(
            name=name, suite=base.suite,
            baseline_seconds=base.seconds,
            candidate_seconds=cand.seconds,
            relative=(cand.seconds - base.seconds) / base.seconds,
            threshold=(None if threshold is None
                       else threshold * threshold_scale),
            gated=comparable and threshold is not None))
    entries.sort(key=lambda entry: (-entry.relative, entry.name))

    candidate_suites = set(candidate.suites)
    missing_suites = sorted(set(baseline.suites) - candidate_suites)
    missing_hot_paths = sorted(
        name for name in base_by_name
        if threshold_for(name) is not None
        and name not in cand_by_name
        and base_by_name[name].suite in candidate_suites)
    new_records = sorted(name for name in cand_by_name
                         if name not in base_by_name)

    floor_checks: List[FloorCheck] = []
    missing_ratios: List[str] = []
    from repro.report.records import suite_of

    for stem, floor in sorted(floors_for(candidate.profile).items()):
        ratio = candidate.speedups.get(stem)
        if ratio is None:
            # Only demand the ratio when the candidate ran the suite
            # that produces it (a pop-only run owes no serve ratios).
            if suite_of(stem) in candidate_suites:
                missing_ratios.append(stem)
            continue
        floor_checks.append(FloorCheck(stem=stem, ratio=float(ratio),
                                       floor=floor))

    return DiffResult(
        baseline_profile=baseline.profile,
        candidate_profile=candidate.profile,
        seconds_comparable=comparable,
        threshold_scale=threshold_scale,
        entries=entries,
        missing_hot_paths=missing_hot_paths,
        new_records=new_records,
        floor_checks=floor_checks,
        missing_ratios=missing_ratios,
        missing_suites=missing_suites,
        require_suites=require_suites)
