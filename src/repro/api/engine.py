"""The campaign engine: (workload x policy) grids, serial or parallel.

:class:`Campaign` is the execution layer behind the public API.  It
runs one simulator backend over a grid of workloads and policies,
memoising per-(policy, workload) results in memory and optionally on
disk, and accumulating the wall-clock / MIPS accounting behind the
paper's Table III and the Section VII-A overhead example.

Grids are matrix-native: :meth:`Campaign.run_grid` takes a population,
a :class:`~repro.core.codematrix.CodeMatrix` or a workload sequence
(encoded once), identifies rows by suite rank (see
:mod:`repro.sim.results`) and finds each policy's pending rows with
array set operations.  Workload objects are built only for the pending
rows of event-driven simulators.

There is one grid path.  Every simulator scores pending cells through
one call, ``run_batch_grid(rows, policies)``, whose N x P x K panel
streams into the results per policy via
:meth:`~repro.sim.results.PopulationResults.record_batch`; each
policy's slice is bit-identical to its single-policy panel.  The rows
every pending policy needs go as one grid (a fresh or uniformly cached
grid, a two-policy refine included, is one call), and a policy left
alone goes by itself.  The analytic backend evaluates the policy axis
in one array expression; BADCO and interval run each row once until
its LLC first fills a set and then fork it per policy, and the detailed
backend runs a row per policy (:mod:`repro.sim.detailed`).

With ``jobs>1`` contiguous row chunks of every grid fan out over a
:class:`concurrent.futures.ProcessPoolExecutor` -- the only process
pool in the package -- with one simulator per task and one
lazily-built model builder per worker process.  The parent records the
outputs in the order the serial path would have, so the results are
bit-identical to a ``jobs=1`` run.  Every simulation is independent
(fresh uncore, fixed seeds), which is what makes this safe.

A ``model_store_dir`` attaches a persistent
:class:`~repro.sim.modelstore.ModelStore` to the builder, so trained
models, analytic vectors and calibrations load instead of being
re-derived.  A cache directory persists the results as one
``<cache_key>.npz``; a file that cannot be read back -- torn,
truncated, or ranked over another suite or core count -- is logged as
a warning and recomputed.
"""

from __future__ import annotations

import logging
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.backends import SimulatorBackend, get_backend
from repro.api.config import CampaignConfig
from repro.core.codematrix import CodeMatrix
from repro.sim.results import SUITE, PopulationResults

logger = logging.getLogger(__name__)

#: What reading a torn, truncated or foreign npz raises.
_UNREADABLE = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)


@dataclass
class CampaignTiming:
    """Wall-clock accounting of a campaign (basis of Table III)."""

    simulations: int = 0
    instructions: int = 0
    wall_seconds: float = 0.0

    @property
    def mips(self) -> float:
        """Simulation speed in million instructions per second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / 1e6 / self.wall_seconds


# ----------------------------------------------------------------------
# Worker-process plumbing.  Each pool worker holds one backend, one
# config and one lazily-created model builder; simulators are built per
# task (cheap) while builders memoise per-benchmark training (the
# expensive part) for the lifetime of the worker.

_WORKER_STATE: Dict[str, Any] = {}


def _worker_init(backend: SimulatorBackend, config: CampaignConfig,
                 builder: Optional[Any]) -> None:
    _WORKER_STATE["backend"] = backend
    _WORKER_STATE["config"] = config
    _WORKER_STATE["builder"] = builder


def _simulate_grid(backend: SimulatorBackend, config: CampaignConfig,
                   builder: Optional[Any],
                   task: Tuple[Tuple[str, ...], CodeMatrix]) -> tuple:
    """One ``run_batch_grid`` call over a task's (policies, rows);
    returns the grid's IPCs, uops and wall seconds."""
    policies, rows = task
    run = backend.make_simulator(
        config.cores, policies[0], config.trace_length, config.seed,
        builder=builder).run_batch_grid(rows, policies)
    return run.ipcs, run.instructions, run.wall_seconds


def _worker_simulate_grid(task: Tuple[Tuple[str, ...], CodeMatrix]):
    backend: SimulatorBackend = _WORKER_STATE["backend"]
    config: CampaignConfig = _WORKER_STATE["config"]
    builder = _WORKER_STATE["builder"]
    if builder is None:
        builder = backend.make_builder(config.trace_length, config.seed)
        _WORKER_STATE["builder"] = builder
    return _simulate_grid(backend, config, builder, task)


def _pool_context():
    """Fork where available (fast, inherits trained models), else spawn."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return get_context("spawn")


def _code_rows(workloads) -> Optional[CodeMatrix]:
    """A grid's rows as a code matrix (None when there are none)."""
    matrix = getattr(workloads, "code_matrix", workloads)
    if isinstance(matrix, CodeMatrix):
        return matrix if len(matrix) else None
    workloads = list(workloads)
    return CodeMatrix.from_workloads(workloads, SUITE) if workloads else None


def _chunks(rows: CodeMatrix, workers: int) -> List[CodeMatrix]:
    """``workers`` contiguous row chunks (the last may be shorter)."""
    step = (len(rows) + workers - 1) // workers
    return [rows.take(slice(start, start + step))
            for start in range(0, len(rows), step)]


# ----------------------------------------------------------------------


class Campaign:
    """Runs workloads under several policies on one simulator backend.

    Args:
        config: the campaign's identity and execution knobs.
        builder: shared model builder (for backends that use one);
            defaults to a fresh one from the backend, trained lazily.
        panel_cache: optional :class:`repro.serve.ResidentPanelCache`
            (duck-typed: ``load(path)`` and ``store(path, results)``).
            When set, cache loads go through it -- LRU'd and hit/miss
            counted -- and saves publish the live results back so
            repeat opens of the same npz skip the disk entirely.
            ``None`` (the default) keeps the one-shot per-campaign load.
    """

    def __init__(self, config: CampaignConfig,
                 builder: Optional[Any] = None,
                 panel_cache: Optional[Any] = None) -> None:
        self.config = config
        self.backend = get_backend(config.backend)
        self.builder = (builder if builder is not None
                        else self.backend.make_builder(config.trace_length,
                                                       config.seed))
        if config.model_store_dir is not None:
            from repro.sim.modelstore import attach_store

            attach_store(self.builder, config.model_store_dir)
        self.timing = CampaignTiming()
        self.panel_cache = panel_cache
        self.results = PopulationResults(config.cores, config.backend)
        self._loaded_from_cache = False
        #: Set by every mutation of ``results``; cleared by ``save``.
        #: Lets the serve daemon call ``save`` after every query without
        #: re-serialising an unchanged 10^4-row panel each time.
        self._dirty = False
        if config.cache_path is not None:
            self._try_load()

    # -- convenience views on the config -------------------------------

    @property
    def cores(self) -> int:
        return self.config.cores

    @property
    def trace_length(self) -> int:
        return self.config.trace_length

    # ------------------------------------------------------------------
    # Cache plumbing

    def _try_load(self) -> None:
        path = self.config.cache_path
        if not path.exists():
            return
        try:
            results = (self.panel_cache.load(path)
                       if self.panel_cache is not None
                       else PopulationResults.load_npz(path))
            if results.cores != self.config.cores:
                raise ValueError(f"it holds {results.cores}-core panels")
        except _UNREADABLE as error:
            logger.warning("campaign cache %s is unreadable (%s: %s); "
                           "recomputing it", path, type(error).__name__,
                           error)
            return
        self.results = results
        self._loaded_from_cache = True

    def save(self) -> None:
        """Persist results as ``<cache_key>.npz`` (no-op without a
        cache directory).

        A clean campaign (nothing recorded since the last save or cache
        load) is a no-op, so warm served queries never re-serialise an
        unchanged panel.

        Writers serialise on a per-cache-key :class:`repro.ioutil.
        FileLock` so two processes filling the same cache entry can't
        interleave their read-modify-write cycles (atomic replaces
        already keep *readers* safe).

        Lock ordering: the campaign-cache lock and the
        :class:`~repro.sim.modelstore.ModelStore` writer lock are never
        held together -- model training (store lock) completes while
        grids run, strictly before results persist (cache lock), and
        nothing under either lock acquires the other.  Any future code
        that needs both must take the store lock first, matching that
        existing order.
        """
        path = self.config.cache_path
        if path is None or (not self._dirty and path.exists()):
            return
        from repro.ioutil import FileLock

        with FileLock(path.parent / f"{self.config.cache_key}.lock"):
            self.results.save_npz(path)
        self._dirty = False
        if self.panel_cache is not None:
            # Publish the live object under the fresh file identity so
            # the next open of this npz is a cache hit, not a reload.
            self.panel_cache.store(path, self.results)

    # ------------------------------------------------------------------
    # Simulation

    def _make_simulator(self, policy: str):
        return self.backend.make_simulator(
            self.config.cores, policy, self.config.trace_length,
            self.config.seed, builder=self.builder)

    def _account(self, simulations: int, instructions: int,
                 wall: float) -> None:
        self.timing.simulations += simulations
        self.timing.instructions += instructions
        self.timing.wall_seconds += wall

    def _record(self, policy: str, rows, ipcs) -> None:
        """Stream one panel in; ``rows`` are code rows or suite ranks."""
        self.results.record_batch(policy, rows, ipcs)
        self._dirty = True

    def _pool_map(self, tasks: List[Any], workers: int) -> list:
        """Every grid task on a fresh pool, outputs in task order."""
        with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context(),
                initializer=_worker_init,
                initargs=(self.backend, self.config, self.builder)) as pool:
            return list(pool.map(_worker_simulate_grid, tasks))

    def run_grid(self, workloads, policies: Sequence[str]
                 ) -> PopulationResults:
        """Simulate every (workload, policy) pair; returns the results.

        Args:
            workloads: the grid rows -- a population, a code matrix or
                a workload sequence; a row listed twice is scored once.
            policies: the LLC policies to cover.

        ``jobs=1`` runs in-process; ``jobs>1`` distributes the pending
        cells over a process pool and records deterministically (see
        module docstring).
        """
        rows = _code_rows(workloads)
        if rows is None:
            return self.results
        if rows.cores != self.cores:
            raise ValueError(f"workloads occupy {rows.cores} cores, the "
                             f"campaign simulates {self.cores}")
        ranks = rows.ranks(SUITE)
        first = np.unique(ranks, return_index=True)[1]
        if len(first) != len(ranks):
            keep = np.sort(first)
            rows, ranks = rows.take(keep), ranks[keep]
        pending: List[Tuple[str, np.ndarray]] = []
        for policy in dict.fromkeys(policies):
            todo = np.flatnonzero(~self.results.contains(policy, ranks))
            if todo.size:
                pending.append((policy, todo))
        if pending:
            self._run_pending(rows, pending)
        return self.results

    def _run_pending(self, rows: CodeMatrix,
                     pending: List[Tuple[str, np.ndarray]]) -> None:
        """Score the pending cells in ``run_batch_grid`` calls.

        The rows every pending policy still needs go as one grid over
        all of them -- a fresh or uniformly cached grid is then a single
        call -- and this repeats while two or more policies still share
        rows; a policy left alone goes by itself.  ``jobs=1`` makes one
        call per group; otherwise every group's row chunks fan out in
        one pool map.  Rows are independent, so any chunking is
        bit-identical to a serial run, and each policy's rows are
        recorded in grid row order.
        """
        groups: List[Tuple[Tuple[str, ...], CodeMatrix]] = []
        while len(pending) > 1:
            shared = pending[0][1]
            for _, todo in pending[1:]:
                shared = np.intersect1d(shared, todo, assume_unique=True)
            if not shared.size:
                break
            groups.append((tuple(policy for policy, _ in pending),
                           rows.take(shared)))
            pending = [(policy, np.setdiff1d(todo, shared,
                                             assume_unique=True))
                       for policy, todo in pending]
            pending = [(policy, todo) for policy, todo in pending
                       if todo.size]
        groups += [((policy,), rows.take(todo)) for policy, todo in pending]
        workers = min(self.config.jobs, sum(len(g) for _, g in groups))
        if workers <= 1:
            tasks = groups
            outputs = [_simulate_grid(self.backend, self.config,
                                      self.builder, task) for task in tasks]
        else:
            for policies, group in groups:
                self._prepare_builder(group, policies)
            tasks = [(policies, chunk) for policies, group in groups
                     for chunk in _chunks(group, workers)]
            outputs = self._pool_map(tasks, workers)
        # Tasks are in row order within each group, so every policy's
        # rows are recorded exactly as a serial run records them.
        for (policies, chunk), (ipcs, instructions, wall) in zip(tasks,
                                                                 outputs):
            ranks = chunk.ranks(SUITE)
            for number, policy in enumerate(policies):
                self._record(policy, ranks, ipcs[:, number, :])
            self._account(len(chunk) * len(policies), instructions, wall)

    def _prepare_builder(self, rows: CodeMatrix,
                         policies: Sequence[str]) -> None:
        """Train (and, where supported, calibrate) in the parent process.

        Called before the pool starts, so forked workers inherit the
        trained builder (and spawned ones receive it in the initializer
        pickle) instead of re-deriving it per process.  Only the
        benchmarks the rows use are prepared.
        """
        if self.builder is None:
            return
        used = np.flatnonzero(rows.benchmark_occurrences())
        benchmarks = [rows.benchmarks[code] for code in used.tolist()]
        if hasattr(self.builder, "prepare"):
            self.builder.prepare(benchmarks, policies, self.config.cores)
        elif hasattr(self.builder, "build"):
            for benchmark in benchmarks:
                self.builder.build(benchmark)

    def reference_ipcs(self, benchmarks: Iterable[str]) -> Dict[str, float]:
        """Single-thread reference IPCs on the LRU machine, the paper's
        IPCref (memoised in the results)."""
        for benchmark in benchmarks:
            if benchmark not in self.results.reference:
                started = time.perf_counter()
                ipc = self._make_simulator("LRU").reference_ipc(benchmark)
                self._account(1, self.config.trace_length,
                              time.perf_counter() - started)
                self.results.record_reference(benchmark, ipc)
                self._dirty = True
        return dict(self.results.reference)

    def __repr__(self) -> str:
        return (f"Campaign({self.config.backend!r}, cores={self.cores}, "
                f"length={self.trace_length}, jobs={self.config.jobs}, "
                f"entries={len(self.results)})")
