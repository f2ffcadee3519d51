"""The bench result-record schema: typed load/validate of trajectories.

``repro bench`` has always serialised a flat list of record dicts into
``BENCH_analytics.json``; this module gives those records a *versioned*
schema and a typed in-memory model so the report/regression layer can
consume any trajectory ever written:

- **schema 1** (historical): a bare JSON list of records --
  ``{"name", "seconds", "draws", "population_size"}`` plus per-suite
  extras (``backend``, ``mips``, counters).  Suite and profile are
  implicit; speedup ratios are re-derived by
  :func:`repro.perf.speedups`.
- **schema 2** (current, :data:`SCHEMA_VERSION`): an envelope
  ``{"schema", "context", "profile", "speedups", "records"}``.  Every
  record carries its ``suite`` and ``profile`` at write time, the
  envelope captures the machine context the run was measured on (CPU
  count, Python/NumPy versions, git commit) and the derived speedup
  ratios, so a trajectory is self-describing.

:func:`load_bench` accepts both shapes and always returns a
:class:`BenchRun`; :func:`save_bench` writes the current schema
atomically via :mod:`repro.ioutil`.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.ioutil import atomic_write_text

#: The envelope schema written by :func:`save_bench` / ``repro bench``.
SCHEMA_VERSION = 2

#: Record-name prefix -> bench suite (the five ``repro bench`` suites).
#: First match wins; names outside every suite map to ``"other"``.
SUITE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("delta-", "analytics"),
    ("estimator-", "analytics"),
    ("sim-", "sim"),
    ("pop-", "pop"),
    ("e2e-", "e2e"),
    ("serve-", "serve"),
)

#: Keys every record must carry (schema 1 and 2 alike).
CORE_KEYS = ("name", "seconds", "draws", "population_size")

#: Optional typed keys; everything else rides along as ``extras``.
_OPTIONAL_KEYS = ("suite", "profile", "backend", "mips")


class ReportError(ValueError):
    """A trajectory file or record failed to load or validate."""


def suite_of(name: str) -> str:
    """The bench suite a record name belongs to (by prefix)."""
    for prefix, suite in SUITE_PREFIXES:
        if name.startswith(prefix):
            return suite
    return "other"


# ----------------------------------------------------------------------
# Machine context


@dataclass(frozen=True)
class MachineContext:
    """Where a trajectory was measured (envelope-level provenance).

    Every field is optional: schema-1 files have no context at all, and
    a context gathered on a host without git simply omits the commit.
    """

    cpu_count: Optional[int] = None
    python: Optional[str] = None
    numpy: Optional[str] = None
    git_commit: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {}
        for key in ("cpu_count", "python", "numpy", "git_commit"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MachineContext":
        if not isinstance(payload, Mapping):
            raise ReportError(f"context must be an object, got "
                              f"{type(payload).__name__}")
        known = {key: payload.get(key) for key in (
            "cpu_count", "python", "numpy", "git_commit")}
        return cls(**known)           # type: ignore[arg-type]


def _git_commit() -> Optional[str]:
    """The current short commit hash, or None outside a git checkout.

    Resolved against the checkout this module lives in, not the
    process CWD -- ``repro bench`` run from another directory must
    still record the repro commit, not an unrelated repo's.
    """
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    commit = output.stdout.strip()
    return commit if output.returncode == 0 and commit else None


def machine_context() -> MachineContext:
    """Gather the live machine context for a fresh bench run."""
    import numpy

    return MachineContext(
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        git_commit=_git_commit())


# ----------------------------------------------------------------------
# Records


@dataclass(frozen=True)
class RunRecord:
    """One validated bench measurement.

    ``extras`` holds every key the harness recorded beyond the typed
    ones (scheduler counters, LRU hit rates), as a sorted tuple of
    items so records stay hashable and order-canonical.
    """

    name: str
    seconds: float
    draws: int
    population_size: int
    suite: str
    profile: Optional[str] = None
    backend: Optional[str] = None
    mips: Optional[float] = None
    extras: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_dict(cls, payload: Mapping[str, object],
                  profile: Optional[str] = None) -> "RunRecord":
        """Validate one record dict (either schema's shape).

        Args:
            payload: the raw record.
            profile: default profile for schema-1 records (their dicts
                carry none); a ``"profile"`` key in the payload wins.
        """
        if not isinstance(payload, Mapping):
            raise ReportError(f"record must be an object, got "
                              f"{type(payload).__name__}")
        missing = [key for key in CORE_KEYS if key not in payload]
        if missing:
            raise ReportError(
                f"record {payload.get('name', '?')!r} is missing "
                f"{', '.join(missing)}")
        name = payload["name"]
        if not isinstance(name, str) or not name:
            raise ReportError(f"record name must be a non-empty string, "
                              f"got {name!r}")
        seconds = payload["seconds"]
        if isinstance(seconds, bool) or \
                not isinstance(seconds, (int, float)) or \
                not math.isfinite(seconds) or seconds <= 0:
            raise ReportError(f"record {name!r}: seconds must be a finite "
                              f"positive number, got {seconds!r}")
        draws = payload["draws"]
        population = payload["population_size"]
        for label, value in (("draws", draws),
                             ("population_size", population)):
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                raise ReportError(f"record {name!r}: {label} must be a "
                                  f"non-negative integer, got {value!r}")
        suite = payload.get("suite")
        if suite is None:
            suite = suite_of(name)
        elif not isinstance(suite, str):
            raise ReportError(f"record {name!r}: suite must be a string")
        record_profile = payload.get("profile", profile)
        if record_profile is not None and \
                not isinstance(record_profile, str):
            raise ReportError(f"record {name!r}: profile must be a string")
        backend = payload.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise ReportError(f"record {name!r}: backend must be a string")
        mips = payload.get("mips")
        if mips is not None and (isinstance(mips, bool)
                                 or not isinstance(mips, (int, float))):
            raise ReportError(f"record {name!r}: mips must be a number")
        extras = tuple(sorted(
            (key, value) for key, value in payload.items()
            if key not in CORE_KEYS and key not in _OPTIONAL_KEYS))
        return cls(name=name, seconds=float(seconds), draws=draws,
                   population_size=population, suite=suite,
                   profile=record_profile, backend=backend,
                   mips=None if mips is None else float(mips),
                   extras=extras)

    def extra(self, key: str, default: object = None) -> object:
        for name, value in self.extras:
            if name == key:
                return value
        return default

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
            "draws": self.draws,
            "population_size": self.population_size,
            "suite": self.suite,
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        if self.backend is not None:
            payload["backend"] = self.backend
        if self.mips is not None:
            payload["mips"] = self.mips
        payload.update(dict(self.extras))
        return payload


@dataclass
class BenchRun:
    """One loaded (or freshly measured) trajectory."""

    records: List[RunRecord]
    context: MachineContext = field(default_factory=MachineContext)
    speedups: Dict[str, float] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION
    profile: Optional[str] = None

    @property
    def by_name(self) -> Dict[str, RunRecord]:
        return {record.name: record for record in self.records}

    @property
    def suites(self) -> List[str]:
        """Suites present, in first-appearance order."""
        ordered: Dict[str, None] = {}
        for record in self.records:
            ordered.setdefault(record.suite, None)
        return list(ordered)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "profile": self.profile,
            "context": self.context.to_dict(),
            "speedups": self.speedups,
            "records": [record.to_dict() for record in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _derive_speedups(records: Sequence[RunRecord]) -> Dict[str, float]:
    from repro.perf import speedups

    return speedups([record.to_dict() for record in records])


def _require_unique_names(records: Sequence[RunRecord],
                          source: str = "run") -> None:
    """Reject duplicate record names (``BenchRun.by_name`` would
    otherwise silently keep only the last occurrence)."""
    names = [record.name for record in records]
    if len(names) != len(set(names)):
        duplicates = sorted({name for name in names
                             if names.count(name) > 1})
        raise ReportError(f"{source}: duplicate record names: "
                          f"{', '.join(duplicates)}")


def bench_run(records: Sequence[Mapping[str, object]],
              profile: Optional[str] = None,
              context: Optional[MachineContext] = None) -> BenchRun:
    """Package live harness output as a current-schema :class:`BenchRun`.

    Tags every record with its suite and the run's profile, derives the
    speedup ratios once, and (unless given one) gathers the live
    machine context -- this is what ``repro bench`` persists.
    """
    typed = [RunRecord.from_dict(record, profile=profile)
             for record in records]
    _require_unique_names(typed)
    return BenchRun(records=typed,
                    context=machine_context() if context is None
                    else context,
                    speedups=_derive_speedups(typed),
                    profile=profile)


def bench_run_from_payload(payload: object,
                           source: str = "<payload>") -> BenchRun:
    """Typed load of either schema's JSON payload."""
    if isinstance(payload, list):
        records = [RunRecord.from_dict(record) for record in payload]
        _require_unique_names(records, source=source)
        return BenchRun(records=records, schema=1,
                        speedups=_derive_speedups(records))
    if isinstance(payload, Mapping):
        schema = payload.get("schema")
        if not isinstance(schema, int) or not 1 <= schema <= SCHEMA_VERSION:
            raise ReportError(
                f"{source}: unsupported schema {schema!r} (this build "
                f"reads 1..{SCHEMA_VERSION})")
        raw_records = payload.get("records")
        if not isinstance(raw_records, list):
            raise ReportError(f"{source}: envelope has no record list")
        profile = payload.get("profile")
        if profile is not None and not isinstance(profile, str):
            raise ReportError(f"{source}: profile must be a string")
        records = [RunRecord.from_dict(record, profile=profile)
                   for record in raw_records]
        _require_unique_names(records, source=source)
        stored = payload.get("speedups")
        if stored is not None and not isinstance(stored, Mapping):
            raise ReportError(f"{source}: speedups must be an object")
        return BenchRun(
            records=records,
            context=MachineContext.from_dict(payload.get("context", {})),
            speedups=(dict(stored) if stored
                      else _derive_speedups(records)),
            schema=schema, profile=profile)
    raise ReportError(f"{source}: expected a record list or an envelope, "
                      f"got {type(payload).__name__}")


def load_bench(path: Union[str, Path]) -> BenchRun:
    """Load and validate a trajectory file (either schema)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ReportError(f"cannot read {path}: {error}") from error
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReportError(f"{path} is not valid JSON: {error}") from error
    return bench_run_from_payload(payload, source=str(path))


def save_bench(path: Union[str, Path], run: BenchRun) -> None:
    """Atomically write a trajectory in the current schema."""
    atomic_write_text(Path(path), run.to_json() + "\n")
