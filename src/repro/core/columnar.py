"""Columnar analytics core: indexed, NumPy-backed statistics.

The statistics stack historically worked on ``Mapping[Workload, ...]``
tables, which makes every metric, delta and Monte-Carlo draw an
interpreter-level loop.  This module is the array-backed alternative:

- :class:`WorkloadIndex` -- the unique rows of one code matrix (row i
  of every array is the same workload everywhere), found by rank;
- :class:`IpcMatrix` -- the N x K per-core IPCs of one microarchitecture
  as a float64 matrix, validated once at construction;
- :class:`DeltaColumn` -- d(w) for all N workloads as one vector, the
  input of the vectorized estimator and of workload stratification.

Bit-compatibility contract: every reduction here reproduces the legacy
pure-Python result *bit for bit*.  Sums accumulate column by column in
the same left-to-right order as ``sum()``; element-wise ops (division,
multiplication, ``np.log``/``np.exp``) are IEEE-identical to their
scalar counterparts.  The golden tests in
``tests/test_columnar_parity.py`` pin this down for every metric family
and sampling method.  (The one deliberate exception:
:func:`repro.core.delta.delta_statistics` on an *array* uses NumPy's
pairwise summation, which can differ from the scalar path in the last
ulp; the mean/std are O(N) one-time summaries, not decision
statistics.)
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.codematrix import CodeMatrix, RankSearch, has_duplicates
from repro.core.metrics import ReferenceIpcs, ThroughputMetric
from repro.core.workload import Workload


def _preview(items: Sequence, limit: int = 5) -> str:
    shown = ", ".join(str(x) for x in items[:limit])
    more = len(items) - limit
    return shown + (f", ... {more} more" if more > 0 else "")


class WorkloadIndex:
    """The rows of one code matrix, each workload once.

    Row ``i`` is the matrix's row ``i`` everywhere, so any array whose
    axis 0 has length ``len(index)`` reads per workload.  The index is
    a view: :attr:`codes` *is* the matrix's code array, and
    :attr:`workloads` are built from it on first use (a population and
    its index share them).  Rows are checked unique once, on their
    combinadic ranks, when the index is made; every lookup then goes
    through ranks over :attr:`benchmarks` and one sorted search
    (:class:`~repro.core.codematrix.RankSearch`).

    Args:
        matrix: a :class:`~repro.core.codematrix.CodeMatrix`.

    Raises:
        ValueError: the matrix is empty or repeats a row.
    """

    __slots__ = ("matrix", "_search", "_workloads")

    def __init__(self, matrix: CodeMatrix) -> None:
        if len(matrix) == 0:
            raise ValueError("empty workload index")
        if has_duplicates(matrix.ranks()):
            raise ValueError("duplicate workloads in index")
        self.matrix = matrix
        self._search: Optional[RankSearch] = None
        self._workloads: Optional[Tuple[Workload, ...]] = None

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        """The sorted benchmark universe the codes index."""
        return self.matrix.benchmarks

    @property
    def cores(self) -> int:
        return self.matrix.cores

    @property
    def codes(self) -> np.ndarray:
        """N x K benchmark codes (position in :attr:`benchmarks`)."""
        return self.matrix.codes

    @property
    def workloads(self) -> Tuple[Workload, ...]:
        """The indexed workloads, in row order (built on first use)."""
        if self._workloads is None:
            self._workloads = tuple(self.matrix.workloads())
        return self._workloads

    # ------------------------------------------------------------------
    # Row lookups

    def rank_rows(self, ranks: np.ndarray) -> np.ndarray:
        """Row of each combinadic rank over :attr:`benchmarks`, as int64.

        Raises:
            KeyError: a rank's workload is not in the index.
        """
        if self._search is None:
            self._search = RankSearch(self.matrix.ranks())
        rows = self._search.rows(ranks)
        if np.any(rows < 0):
            raise KeyError("workload not in this index")
        return rows

    def rows(self, workloads: Sequence[Workload]) -> np.ndarray:
        """Row numbers for a workload sequence, as int64."""
        if not len(workloads):
            return np.empty(0, dtype=np.int64)
        try:
            matrix = CodeMatrix.from_workloads(workloads, self.benchmarks)
        except ValueError:      # a benchmark outside the universe
            raise KeyError("workload not in this index") from None
        if matrix.cores != self.cores:
            raise KeyError("workload not in this index")
        return self.rank_rows(matrix.ranks())

    def row(self, workload: Workload) -> int:
        try:
            return int(self.rows((workload,))[0])
        except KeyError:
            raise KeyError(f"{workload} is not in this index") from None

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, row):
        """The workload at ``row`` (one row decoded while the workloads
        are unbuilt), or a slice of :attr:`workloads`."""
        if self._workloads is None and isinstance(row, int):
            return self.matrix.row_workload(row)
        return self.workloads[row]

    def __iter__(self) -> Iterator[Workload]:
        return iter(self.workloads)

    def __contains__(self, workload: Workload) -> bool:
        if not isinstance(workload, Workload):
            return False
        try:
            self.rows((workload,))
        except KeyError:
            return False
        return True

    def same_rows(self, other: "WorkloadIndex") -> bool:
        """Whether two indexes hold the same workloads in the same order.

        Whatever benchmark universe each side was encoded over: equal
        universes compare codes, others the ranks over their union.
        """
        if other is self:
            return True
        if len(self) != len(other) or self.cores != other.cores:
            return False
        if self.benchmarks == other.benchmarks:
            return bool(np.array_equal(self.codes, other.codes))
        union = sorted(set(self.benchmarks) | set(other.benchmarks))
        return bool(np.array_equal(self.matrix.ranks(union),
                                   other.matrix.ranks(union)))

    def reference_vector(self, reference: ReferenceIpcs) -> np.ndarray:
        """Reference IPCs aligned with :attr:`benchmarks` codes.

        Validates once that every benchmark has a reference value.
        """
        missing = [b for b in self.benchmarks if b not in reference]
        if missing:
            raise ValueError(
                f"{len(missing)} benchmarks lack reference IPCs "
                f"({_preview(missing)})")
        return np.array([reference[b] for b in self.benchmarks],
                        dtype=np.float64)

    def __repr__(self) -> str:
        return (f"WorkloadIndex(N={len(self)}, K={self.cores}, "
                f"B={len(self.benchmarks)})")


class IpcMatrix:
    """N x K per-core IPCs of one microarchitecture, indexed rows.

    Args:
        index: row interpretation.
        values: the N x K float64 matrix.
    """

    __slots__ = ("index", "values")

    def __init__(self, index: WorkloadIndex, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(index), index.cores):
            raise ValueError(
                f"expected a {len(index)} x {index.cores} matrix, "
                f"got {values.shape}")
        self.index = index
        self.values = values

    def __repr__(self) -> str:
        return f"IpcMatrix({self.values.shape[0]} x {self.values.shape[1]})"


# ----------------------------------------------------------------------
# Vectorized metric evaluation

def throughputs(metric: ThroughputMetric, ipcs: IpcMatrix,
                reference: Optional[ReferenceIpcs] = None) -> np.ndarray:
    """t(w) of eq. (1) for every workload at once.

    Bit-identical to calling
    :meth:`~repro.core.metrics.ThroughputMetric.workload_throughput`
    per workload.
    """
    index = ipcs.index
    if metric.uses_reference:
        if reference is None:
            raise ValueError(f"{metric.name} needs reference IPCs")
        ref = index.reference_vector(reference)
        ratios = ipcs.values / ref[index.codes]
    else:
        ratios = ipcs.values
    return metric.workload_throughputs(ratios)


class DeltaColumn:
    """d(w) for every indexed workload, as one float64 vector.

    The columnar counterpart of the ``Mapping[Workload, float]`` delta
    tables: built once from two IPC matrices
    (:func:`delta_column_from_matrices`), consumed by the vectorized
    estimator and by workload stratification.

    Args:
        index: row interpretation.
        values: d(w) per row.
    """

    __slots__ = ("index", "values")

    def __init__(self, index: WorkloadIndex, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(index),):
            raise ValueError(
                f"expected {len(index)} d(w) values, got {values.shape}")
        self.index = index
        self.values = values

    @staticmethod
    def from_mapping(index: WorkloadIndex,
                     delta: Mapping[Workload, float]) -> "DeltaColumn":
        """Align a legacy d(w) table with an index.

        All missing workloads are detected with one set difference.
        """
        missing = sorted(set(index.workloads) - set(delta.keys()))
        if missing:
            raise ValueError(
                f"{len(missing)} workloads lack d(w) values "
                f"({_preview(missing)})")
        values = np.fromiter((delta[w] for w in index.workloads),
                             dtype=np.float64, count=len(index))
        return DeltaColumn(index, values)

    def as_mapping(self) -> Dict[Workload, float]:
        """The legacy dict view (row order preserved)."""
        return dict(zip(self.index.workloads, self.values.tolist()))

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"DeltaColumn(N={len(self)})"


#: Anything the estimator accepts as a d(w) table.
DeltaLike = Union[DeltaColumn, Mapping[Workload, float], np.ndarray]


def as_delta_column(index: WorkloadIndex, delta: DeltaLike) -> DeltaColumn:
    """Coerce a mapping / array / DeltaColumn to a DeltaColumn."""
    if isinstance(delta, DeltaColumn):
        if not delta.index.same_rows(index):
            raise ValueError("delta column indexed by different workloads")
        return delta
    if isinstance(delta, np.ndarray):
        return DeltaColumn(index, delta)
    return DeltaColumn.from_mapping(index, delta)


def delta_column_from_matrices(variable, ipcs_x: IpcMatrix,
                               ipcs_y: IpcMatrix) -> DeltaColumn:
    """d(w) for every row of two IPC matrices sharing one index.

    The one d(w) column builder; ``variable`` is a
    :class:`~repro.core.delta.DeltaVariable`.  The matrices were
    validated when they were built, so nothing is re-checked here.
    """
    if ipcs_x.index is not ipcs_y.index:
        raise ValueError("IPC matrices must share an index")
    tx = throughputs(variable.metric, ipcs_x, variable.reference)
    ty = throughputs(variable.metric, ipcs_y, variable.reference)
    return DeltaColumn(ipcs_x.index,
                       variable.values_from_throughputs(tx, ty))
