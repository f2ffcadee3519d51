"""Per-(policy, workload) IPC storage, keyed by combinadic rank.

A :class:`PopulationResults` holds everything the statistics layer
needs about one simulation campaign: per-core IPCs for every workload
under every policy, plus single-thread reference IPCs for the speedup
metrics.

Rows are identified by their *suite rank*: the combinadic rank of the
workload over the sorted benchmark suite :data:`SUITE` (its index in
enumeration order, see :mod:`repro.core.codematrix`), one int64 per
row.  A session's benchmark subset maps into the suite with one array
lookup, so a workload has the same rank whichever subset enumerated it.

Each policy's IPCs are a list of *blocks* -- a rank vector plus the
matching N x K float64 panel -- appended whole by
:meth:`PopulationResults.record_batch`, the one writer, which refuses a
row already recorded.  :meth:`~PopulationResults.columnar_panel`, the
one reader, serves them to :class:`~repro.core.columnar.IpcMatrix`
consumers by rank lookup.

Persistence is NumPy ``.npz`` (:meth:`~PopulationResults.save_npz` /
:meth:`~PopulationResults.load_npz`): per policy a rank vector plus its
panel, next to the suite and K, which loads check.  Floats round-trip
as raw bytes, so a reloaded campaign is bit-identical.
:meth:`~PopulationResults.save` writes a JSON *export* (workload key ->
IPC list) for people and diff tools; nothing reads it back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.spec import benchmark_names
from repro.core.codematrix import (
    CodeMatrix,
    RankSearch,
    has_duplicates,
    multiset_count,
)
from repro.core.workload import Workload
from repro.ioutil import atomic_open, atomic_write_text

#: The benchmark universe panel ranks are taken over (sorted).
SUITE: Tuple[str, ...] = tuple(sorted(benchmark_names()))

#: One recorded block: int64 suite ranks in row order, N x K IPCs.
_Block = Tuple[np.ndarray, np.ndarray]


def suite_ranks(rows, cores: int) -> np.ndarray:
    """Suite ranks of ``cores``-wide rows, in row order.

    Args:
        rows: a :class:`~repro.core.population.WorkloadPopulation`, a
            :class:`~repro.core.codematrix.CodeMatrix`, a workload
            sequence, or a 1-D integer array that already holds ranks
            (range-checked).
        cores: K, the width every row must have.

    Raises:
        ValueError: rows of another width, a benchmark outside
            :data:`SUITE`, or ranks outside ``[0, C(B + K - 1, K))``.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise ValueError("ranks must be a 1-D integer array")
        ranks = rows.astype(np.int64, copy=False)
        if ranks.size and (ranks.min() < 0 or ranks.max()
                           >= multiset_count(len(SUITE), cores)):
            raise ValueError(f"ranks out of range for {cores} cores")
        return ranks
    matrix = getattr(rows, "code_matrix", rows)
    if not isinstance(matrix, CodeMatrix):
        workloads = list(rows)
        if not workloads:
            return np.empty(0, dtype=np.int64)
        matrix = CodeMatrix.from_workloads(workloads, SUITE)
    if matrix.cores != cores:
        raise ValueError(
            f"rows occupy {matrix.cores} cores, expected {cores}")
    return matrix.ranks(SUITE)


class PopulationResults:
    """IPC results of one campaign (one simulator, one core count).

    Args:
        cores: number of cores K.
        simulator: label of the producing simulator ("detailed",
            "badco", ...), recorded for provenance.
    """

    def __init__(self, cores: int, simulator: str) -> None:
        self.cores = cores
        self.simulator = simulator
        self._blocks: Dict[str, List[_Block]] = {}
        #: Per policy: (blocks seen, stacked ranks, their RankSearch,
        #: stacked panel), rebuilt on change.
        self._lookups: Dict[str, tuple] = {}
        self.reference: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Rank plumbing

    def _decode(self, ranks: np.ndarray) -> List[Workload]:
        return CodeMatrix.from_ranks(SUITE, self.cores, ranks).workloads()

    def _lookup(self, policy: str) -> tuple:
        """(stacked ranks, their :class:`RankSearch`, stacked panel)."""
        blocks = self._blocks[policy]
        cached = self._lookups.get(policy)
        if cached is None or cached[0] != len(blocks):
            if len(blocks) == 1:
                ranks, panel = blocks[0]
            else:
                ranks = np.concatenate([r for r, _ in blocks])
                panel = np.concatenate([m for _, m in blocks], axis=0)
            cached = (len(blocks), ranks, RankSearch(ranks), panel)
            self._lookups[policy] = cached
        return cached[1:]

    def _positions(self, policy: str, ranks: np.ndarray) -> np.ndarray:
        """Row of each rank in the policy's stacked panel (-1: absent)."""
        if policy not in self._blocks:
            return np.full(len(ranks), -1, dtype=np.int64)
        return self._lookup(policy)[1].rows(ranks)

    def contains(self, policy: str, rows) -> np.ndarray:
        """Boolean mask: which of ``rows`` (anything :func:`suite_ranks`
        takes) already have IPCs under ``policy``."""
        return self._positions(policy, suite_ranks(rows, self.cores)) >= 0

    # ------------------------------------------------------------------
    # Writing

    def record_batch(self, policy: str, workloads, ipcs: np.ndarray) -> None:
        """Append one N x K panel, without a per-workload round trip.

        Args:
            policy: the policy the panel was simulated under.
            workloads: row order of the panel -- suite ranks, a code
                matrix, a population or workloads (see
                :func:`suite_ranks`).
            ipcs: the N x K IPC matrix.
        """
        ranks = suite_ranks(workloads, self.cores)
        ipcs = np.asarray(ipcs, dtype=np.float64)
        if ipcs.shape != (len(ranks), self.cores):
            raise ValueError(
                f"expected a {len(ranks)} x {self.cores} panel, "
                f"got {ipcs.shape}")
        if has_duplicates(ranks):
            raise ValueError(f"{policy}: duplicate rows in one batch")
        recorded = int(np.count_nonzero(self._positions(policy, ranks) >= 0))
        if recorded:
            raise ValueError(f"{policy}: {recorded} rows already recorded")
        self._blocks.setdefault(policy, []).append((ranks, ipcs))

    def record_reference(self, benchmark: str, ipc: float) -> None:
        self.reference[benchmark] = ipc

    # ------------------------------------------------------------------
    # Reading

    @property
    def policies(self) -> List[str]:
        return sorted(self._blocks)

    def _common_ranks(self, policies: Sequence[str]) -> np.ndarray:
        """Sorted suite ranks recorded under every one of ``policies``."""
        common = np.empty(0, dtype=np.int64)
        for number, policy in enumerate(policies):
            ranks = self._lookup(policy)[1].ordered
            common = ranks if number == 0 else np.intersect1d(
                common, ranks, assume_unique=True)
        return common

    def _policy_matrix(self, policy: str, ranks: np.ndarray) -> np.ndarray:
        """The policy's panel aligned to ``ranks`` rows."""
        stacked, search, panel = self._lookup(policy)
        if stacked.shape == ranks.shape and np.array_equal(stacked, ranks):
            return panel                 # rows already in order: no copy
        rows = search.rows(ranks)
        missing = int(np.count_nonzero(rows < 0))
        if missing:
            raise ValueError(f"{policy}: {missing} workloads lack IPCs")
        return panel[rows]

    def columnar_panel(self, policies: Optional[Sequence[str]] = None,
                       workloads=None):
        """Index + per-policy IPC matrices for the columnar layer.

        One validated conversion feeding every downstream array
        computation (deltas, studies, estimators): each policy's panel
        is gathered by rank lookup, without a per-workload mapping.

        Args:
            policies: policies to include (default: all recorded).
            workloads: row order (default: the workloads common to the
                selected policies, in rank order, indexed straight from
                their ranks).  A
                :class:`~repro.core.population.WorkloadPopulation`
                brings its own index; a
                :class:`~repro.core.codematrix.CodeMatrix` is indexed
                over its codes.

        Returns:
            ``(index, matrices)``: the
            :class:`~repro.core.columnar.WorkloadIndex` and a dict of
            policy name to :class:`~repro.core.columnar.IpcMatrix`.
        """
        from repro.core.columnar import IpcMatrix, WorkloadIndex

        chosen = list(policies) if policies is not None else self.policies
        if workloads is None:
            ranks = self._common_ranks(chosen)
            index = WorkloadIndex(CodeMatrix.from_ranks(
                SUITE, self.cores, ranks).compact())
        else:
            if hasattr(workloads, "code_matrix"):    # a WorkloadPopulation
                index = workloads.index
            elif isinstance(workloads, CodeMatrix):
                index = WorkloadIndex(workloads)
            else:
                index = WorkloadIndex(CodeMatrix.from_workloads(
                    list(workloads)))
            ranks = index.matrix.ranks(SUITE)
        return index, {policy: IpcMatrix(index,
                                         self._policy_matrix(policy, ranks))
                       for policy in chosen}

    def __len__(self) -> int:
        return sum(len(ranks) for blocks in self._blocks.values()
                   for ranks, _ in blocks)

    @property
    def nbytes(self) -> int:
        """Bytes of the stored panels: IPCs, their int64 ranks and the
        reference IPCs."""
        return sum(int(ranks.nbytes) + int(matrix.nbytes)
                   for blocks in self._blocks.values()
                   for ranks, matrix in blocks) + 8 * len(self.reference)

    # ------------------------------------------------------------------
    # Persistence

    def to_json(self) -> str:
        """The JSON export: per policy, workload key -> IPC list in
        recording order."""
        ipcs = {}
        for policy in self.policies:
            ranks, _, panel = self._lookup(policy)
            ipcs[policy] = {workload.key(): row for workload, row in
                            zip(self._decode(ranks), panel.tolist())}
        return json.dumps({"cores": self.cores, "simulator": self.simulator,
                           "reference": self.reference, "ipcs": ipcs})

    def save(self, path: Path) -> None:
        """Write the JSON export (:meth:`to_json`) atomically."""
        atomic_write_text(path, self.to_json())

    def save_npz(self, path: Path) -> None:
        """Persist as NumPy arrays (the campaign-cache format).

        Per policy: one int64 suite-rank vector plus the matching
        N x K float64 panel, in recording order; the suite and K ride
        along so a load can refuse panels ranked over another universe.
        Members are stored uncompressed: float64 IPC panels barely
        deflate.
        """
        arrays: Dict[str, np.ndarray] = {
            "suite": np.array(SUITE, dtype=str),
            "cores": np.array(self.cores, dtype=np.int64),
            "simulator": np.array(self.simulator),
            "reference_names": np.array(sorted(self.reference), dtype=str),
            "reference_values": np.array(
                [self.reference[b] for b in sorted(self.reference)],
                dtype=np.float64),
            "policy_names": np.array(self.policies, dtype=str),
        }
        for number, policy in enumerate(self.policies):
            ranks, _, panel = self._lookup(policy)
            arrays[f"ranks_{number}"] = ranks
            arrays[f"ipcs_{number}"] = panel
        with atomic_open(path, "wb") as handle:
            np.savez(handle, **arrays)

    @staticmethod
    def load_npz(path: Path) -> "PopulationResults":
        """Inverse of :meth:`save_npz`.

        Raises:
            ValueError: the file ranks its rows over another benchmark
                suite, or holds malformed ranks or panels (as well as
                whatever :func:`numpy.load` raises on a torn file).
            zipfile.BadZipFile: a member fails the CRC-32 check of
                :func:`numpy.load` (a bit-flipped file).
        """
        with np.load(path, allow_pickle=False) as data:
            if tuple(data["suite"].tolist()) != SUITE:
                raise ValueError(
                    f"{path}: rows are ranked over another benchmark suite")
            results = PopulationResults(int(data["cores"]),
                                        str(data["simulator"]))
            names = data["reference_names"]
            values = data["reference_values"]
            for name, value in zip(names.tolist(), values.tolist()):
                results.reference[str(name)] = value
            for number, policy in enumerate(data["policy_names"].tolist()):
                results.record_batch(str(policy), data[f"ranks_{number}"],
                                     data[f"ipcs_{number}"])
        return results

    def __repr__(self) -> str:
        return (f"PopulationResults(cores={self.cores}, "
                f"simulator={self.simulator!r}, policies={self.policies}, "
                f"entries={len(self)})")
