"""Campaign configuration: one frozen value object, one cache key.

:class:`CampaignConfig` names everything that identifies a campaign.
Being frozen and hashable, a config doubles as the identity of a
campaign: two campaigns with equal *simulation* fields are
interchangeable, and :attr:`CampaignConfig.cache_key` names the
on-disk cache entry they share.

``jobs`` and ``cache_dir`` deliberately stay out of the cache key:
parallelism must never change results (the engine guarantees
bit-identical output for any ``jobs``), and the cache directory is a
storage location, not an experiment parameter.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, FrozenSet, Optional, Union

from repro.bench.generator import DEFAULT_TRACE_LENGTH


def resolve_jobs(jobs: int) -> int:
    """Resolve a ``jobs`` request to a concrete worker count.

    ``0`` means *auto*: one worker per available CPU (``os.cpu_count()``,
    never less than 1), so callers on a 1-core host get the serial path
    instead of paying pool overhead for nothing -- the degenerate-
    parallelism footgun the bench trajectory exposed
    (``sim-batch-parallel-jobs2`` at 0.9x jobs1 on a 1-core runner).
    Explicit positive values are honoured as given: parallelism is
    bit-identical by contract, and tests rely on forcing the pool path
    with ``jobs=2`` even where only one CPU exists.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = auto)")
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    return jobs

#: Results-format revision, part of every cache key.  Bump whenever a
#: change alters simulated IPCs for identical configs, so stale caches
#: are bypassed rather than silently served.  History:
#: v2 -- replacement-policy RNGs seeded with crc32 instead of the
#:       per-process-salted ``hash()`` (results before the fix were not
#:       reproducible across processes and cannot be trusted).
#: v3 -- one npz per key with rows keyed by suite rank (no JSON twin,
#:       no workload-key strings); the IPC values are unchanged.
RESULTS_VERSION = 3


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that identifies one simulation campaign.

    Attributes:
        backend: simulator backend name (see ``repro.api.BACKENDS``).
        cores: number of cores K.
        trace_length: uops per thread.
        seed: campaign seed (traces, policies, page layout).
        warmup_fraction: per-thread unmeasured fraction.
        jobs: worker processes for grid simulation; 1 = in-process
            serial (the default), larger values use a process pool,
            0 = auto (one worker per CPU via :func:`resolve_jobs`,
            resolved at construction so the stored field is always a
            concrete count).
        cache_dir: if set, results persist as one npz under this
            directory, named by :attr:`cache_key`.
        model_store_dir: if set, trained models (BADCO node models,
            analytic vectors, calibrations and probes) persist under this
            directory (see :mod:`repro.sim.modelstore`) and campaigns
            load instead of retraining on a hit.  Like ``cache_dir``,
            a storage location -- never part of the cache key, never a
            result-changing knob (stored artefacts round-trip
            bit-identically).
    """

    backend: str = "badco"
    cores: int = 2
    trace_length: int = DEFAULT_TRACE_LENGTH
    seed: int = 0
    warmup_fraction: float = 0.25
    jobs: int = 1
    cache_dir: Optional[Union[str, Path]] = None
    model_store_dir: Optional[Union[str, Path]] = None

    #: Fields that deliberately do NOT participate in :attr:`cache_key`:
    #: execution/storage knobs that must never change results.  Every
    #: field must either be read by ``cache_key`` or appear here -- the
    #: ``REP003`` cache-key-drift lint rule enforces the partition, so
    #: adding a field without classifying it fails ``repro lint`` (and
    #: ``tests/test_api.py`` keeps this list in sync with the fields).
    _SIGNATURE_EXCLUDE: ClassVar[FrozenSet[str]] = frozenset({
        "jobs",             # parallelism is bit-identical by contract
        "cache_dir",        # a storage location, not a parameter
        "model_store_dir",  # stored artefacts round-trip bit-identically
    })

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.trace_length < 1:
            raise ValueError("trace_length must be >= 1")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        object.__setattr__(self, "jobs", resolve_jobs(self.jobs))
        if self.cache_dir is not None and not isinstance(self.cache_dir, Path):
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if self.model_store_dir is not None and \
                not isinstance(self.model_store_dir, Path):
            object.__setattr__(self, "model_store_dir",
                               Path(self.model_store_dir))

    @property
    def cache_key(self) -> str:
        """Stable identity of the campaign's *results*.

        Covers exactly the fields that determine IPC values plus
        :data:`RESULTS_VERSION`; ``jobs`` and ``cache_dir`` are
        excluded by design.  Caches written before the versioned
        layout (no ``-v`` suffix) are deliberately not read: they
        predate the deterministic policy seeding.
        """
        return (f"{self.backend}-k{self.cores}-l{self.trace_length}"
                f"-s{self.seed}-w{int(self.warmup_fraction * 100)}"
                f"-v{RESULTS_VERSION}")

    @property
    def cache_path(self) -> Optional[Path]:
        """Where this campaign persists (``<cache_key>.npz``), or None
        without a cache_dir."""
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / f"{self.cache_key}.npz"

    def replace(self, **changes) -> "CampaignConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)
