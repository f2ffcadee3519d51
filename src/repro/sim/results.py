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
:meth:`PopulationResults.record_batch` (batch backends) or one row at a
time by :meth:`~PopulationResults.record` (per-workload simulators).
:meth:`~PopulationResults.columnar_panel` serves them to
:class:`~repro.core.columnar.IpcMatrix` consumers by rank lookup;
:class:`~repro.core.workload.Workload` objects are built only by the
per-workload views (:meth:`~PopulationResults.ipc_table`, ...).

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
from repro.core.codematrix import CodeMatrix, has_duplicates, multiset_count
from repro.core.workload import Workload
from repro.ioutil import atomic_open, atomic_write_text

IpcVector = List[float]

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
        #: Per policy: (blocks seen, stacked ranks, sorted ranks, their
        #: rows in the stacked panel, stacked panel), rebuilt on change.
        self._lookups: Dict[str, tuple] = {}
        self.reference: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Rank plumbing

    def _decode(self, ranks: np.ndarray) -> List[Workload]:
        return CodeMatrix.from_ranks(SUITE, self.cores, ranks).workloads()

    def _lookup(self, policy: str) -> tuple:
        """(stacked ranks, sorted ranks, sort order, stacked panel)."""
        blocks = self._blocks[policy]
        cached = self._lookups.get(policy)
        if cached is None or cached[0] != len(blocks):
            if len(blocks) == 1:
                ranks, panel = blocks[0]
            else:
                ranks = np.concatenate([r for r, _ in blocks])
                panel = np.concatenate([m for _, m in blocks], axis=0)
            order = np.argsort(ranks, kind="stable")
            cached = (len(blocks), ranks, ranks[order], order, panel)
            self._lookups[policy] = cached
        return cached[1:]

    def _positions(self, policy: str, ranks: np.ndarray) -> np.ndarray:
        """Row of each rank in the policy's stacked panel (-1: absent)."""
        if policy not in self._blocks:
            return np.full(len(ranks), -1, dtype=np.int64)
        _, ordered, order, _ = self._lookup(policy)
        if not len(ordered):
            return np.full(len(ranks), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(ordered, ranks), len(ordered) - 1)
        return np.where(ordered[at] == ranks, order[at], -1)

    def _row(self, policy: str, workload: Workload) -> int:
        """The workload's row in the policy's stacked panel (-1: absent
        or not a row of this campaign at all)."""
        if workload.k != self.cores or any(b not in SUITE for b in workload):
            return -1
        return int(self._positions(
            policy, suite_ranks([workload], self.cores))[0])

    def contains(self, policy: str, rows) -> np.ndarray:
        """Boolean mask: which of ``rows`` (anything :func:`suite_ranks`
        takes) already have IPCs under ``policy``."""
        return self._positions(policy, suite_ranks(rows, self.cores)) >= 0

    # ------------------------------------------------------------------
    # Writing

    def record(self, policy: str, workload: Workload,
               ipcs: Sequence[float]) -> None:
        """Store one workload's IPCs; re-recording a workload replaces
        its row (last write wins)."""
        if len(ipcs) != workload.k:
            raise ValueError(
                f"{workload}: expected {workload.k} IPCs, got {len(ipcs)}")
        rank = suite_ranks([workload], self.cores)
        row = int(self._positions(policy, rank)[0])
        if row < 0:
            self._blocks.setdefault(policy, []).append(
                (rank, np.array([ipcs], dtype=np.float64)))
            return
        # Replace in a private copy: blocks may be read-only file maps.
        ranks, _, _, panel = self._lookup(policy)
        panel = np.array(panel, dtype=np.float64)
        panel[row] = ipcs
        self._blocks[policy] = [(ranks, panel)]
        self._lookups.pop(policy)

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
            ranks = self._lookup(policy)[1]
            common = ranks if number == 0 else np.intersect1d(
                common, ranks, assume_unique=True)
        return common

    def workloads(self, policy: str) -> List[Workload]:
        return self._decode(self._common_ranks([policy]))

    def common_workloads(self) -> List[Workload]:
        """Workloads simulated under *every* recorded policy."""
        return self._decode(self._common_ranks(self.policies))

    def ipcs(self, policy: str, workload: Workload) -> IpcVector:
        row = self._row(policy, workload)
        if row < 0:
            raise KeyError(policy if policy not in self._blocks
                           else workload)
        return self._lookup(policy)[3][row].tolist()

    def ipc_table(self, policy: str) -> Dict[Workload, IpcVector]:
        """The per-workload IPC table of one policy (a new dict).

        Builds one :class:`Workload` per row; array consumers should
        prefer :meth:`columnar_panel`.
        """
        ranks, _, _, panel = self._lookup(policy)
        return dict(zip(self._decode(ranks), panel.tolist()))

    def has(self, policy: str, workload: Workload) -> bool:
        return self._row(policy, workload) >= 0

    def _policy_matrix(self, policy: str, ranks: np.ndarray) -> np.ndarray:
        """The policy's panel aligned to ``ranks`` rows."""
        stacked, _, _, panel = self._lookup(policy)
        if stacked.shape == ranks.shape and np.array_equal(stacked, ranks):
            return panel                 # rows already in order: no copy
        rows = self._positions(policy, ranks)
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
                selected policies, sorted).  A
                :class:`~repro.core.population.WorkloadPopulation` or a
                :class:`~repro.core.codematrix.CodeMatrix` is indexed
                zero-copy over its codes (no workload round trip).

        Returns:
            ``(index, matrices)``: the
            :class:`~repro.core.columnar.WorkloadIndex` and a dict of
            policy name to :class:`~repro.core.columnar.IpcMatrix`.
        """
        from repro.core.columnar import IpcMatrix, WorkloadIndex

        chosen = list(policies) if policies is not None else self.policies
        if workloads is None:
            workloads = self._decode(self._common_ranks(chosen))
        if hasattr(workloads, "code_matrix"):    # a WorkloadPopulation
            index = workloads.index
        elif isinstance(workloads, CodeMatrix):
            index = WorkloadIndex.from_code_matrix(workloads)
        else:
            index = WorkloadIndex(tuple(workloads))
        ranks = CodeMatrix(index.benchmarks, index.codes).ranks(SUITE)
        return index, {policy: IpcMatrix(index,
                                         self._policy_matrix(policy, ranks))
                       for policy in chosen}

    def __len__(self) -> int:
        return sum(len(ranks) for blocks in self._blocks.values()
                   for ranks, _ in blocks)

    @property
    def nbytes(self) -> int:
        """Bytes of the stored panels: IPCs, their int64 ranks and the
        reference IPCs.  For mmap'd blocks this is address space, not
        resident memory."""
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
            ranks, _, _, panel = self._lookup(policy)
            ipcs[policy] = {workload.key(): row for workload, row in
                            zip(self._decode(ranks), panel.tolist())}
        return json.dumps({"cores": self.cores, "simulator": self.simulator,
                           "reference": self.reference, "ipcs": ipcs})

    def save(self, path: Path) -> None:
        """Write the JSON export (:meth:`to_json`) atomically."""
        atomic_write_text(path, self.to_json())

    def save_npz(self, path: Path, compressed: bool = False) -> None:
        """Persist as NumPy arrays (the campaign-cache format).

        Per policy: one int64 suite-rank vector plus the matching
        N x K float64 panel, in recording order; the suite and K ride
        along so a load can refuse panels ranked over another universe.

        Uncompressed (the default): float64 IPC panels barely deflate,
        and only ``ZIP_STORED`` members can be served by
        :meth:`load_npz`'s ``mmap_mode`` path (the serve daemon's
        resident panels map the cache file instead of materialising
        it).  Pass ``compressed=True`` to trade the mmap fast path for
        a smaller file.
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
            ranks, _, _, panel = self._lookup(policy)
            arrays[f"ranks_{number}"] = ranks
            arrays[f"ipcs_{number}"] = panel
        save = np.savez_compressed if compressed else np.savez
        with atomic_open(path, "wb") as handle:
            save(handle, **arrays)

    @staticmethod
    def load_npz(path: Path,
                 mmap_mode: Optional[str] = None) -> "PopulationResults":
        """Inverse of :meth:`save_npz`.

        Args:
            path: the ``.npz`` file to read.
            mmap_mode: if ``"r"``, IPC panels stored uncompressed in
                the zip are served as read-only :class:`numpy.memmap`
                views over the file instead of being read into memory
                -- the ``repro serve`` daemon's resident-panel path.
                Pages are faulted in on first touch and shared between
                processes mapping the same file; a concurrent writer
                that atomically replaces the file leaves existing
                mappings on the old inode, so a loaded results object
                is always an internally consistent snapshot.
                Compressed members (and the small rank and metadata
                arrays) are read eagerly.

        Raises:
            ValueError: the file ranks its rows over another benchmark
                suite, or holds malformed ranks or panels (as well as
                whatever :func:`numpy.load` raises on a torn file).
        """
        mapped: Dict[str, np.ndarray] = {}
        if mmap_mode is not None:
            mapped = _mmap_npz_members(path, prefix="ipcs_")
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
                panel = mapped.get(f"ipcs_{number}")
                if panel is None:
                    panel = data[f"ipcs_{number}"]
                results.record_batch(str(policy), data[f"ranks_{number}"],
                                     panel)
        return results

    def __repr__(self) -> str:
        return (f"PopulationResults(cores={self.cores}, "
                f"simulator={self.simulator!r}, policies={self.policies}, "
                f"entries={len(self)})")


def _mmap_npz_members(path: Path, prefix: str) -> Dict[str, np.ndarray]:
    """Read-only memmaps of the uncompressed ``prefix*`` npz members.

    A ``ZIP_STORED`` member of an npz archive is its ``.npy`` payload
    byte for byte, so the array data can be mapped in place: walk the
    member's local file header (30 fixed bytes + name + extra field --
    read from the *local* record, whose extra field may differ from the
    central directory's), parse the npy header right behind it, and
    :class:`numpy.memmap` the payload at the resulting offset.

    Members that are compressed, object-typed, or oddly shaped are
    simply skipped (the caller falls back to the eager ``np.load``
    read), as is the whole archive on any parse error -- mmap is a fast
    path, never a correctness dependency.
    """
    import zipfile

    from numpy.lib import format as npy_format

    path = Path(path)
    members: Dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
            for info in archive.infolist():
                name = info.filename
                if not (name.startswith(prefix) and name.endswith(".npy")):
                    continue
                if info.compress_type != zipfile.ZIP_STORED:
                    continue
                raw.seek(info.header_offset)
                header = raw.read(30)
                if len(header) != 30 or header[:4] != b"PK\x03\x04":
                    continue
                name_length = int.from_bytes(header[26:28], "little")
                extra_length = int.from_bytes(header[28:30], "little")
                raw.seek(info.header_offset + 30 + name_length
                         + extra_length)
                version = npy_format.read_magic(raw)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        npy_format.read_array_header_1_0(raw)
                elif version == (2, 0):
                    shape, fortran, dtype = \
                        npy_format.read_array_header_2_0(raw)
                else:
                    continue
                if dtype.hasobject:
                    continue
                members[name[: -len(".npy")]] = np.memmap(
                    path, dtype=dtype, mode="r", offset=raw.tell(),
                    shape=shape, order="F" if fortran else "C")
    except (OSError, ValueError, zipfile.BadZipFile):
        return {}
    return members
