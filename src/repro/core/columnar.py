"""Columnar analytics core: indexed, NumPy-backed statistics.

The statistics stack historically worked on ``Mapping[Workload, ...]``
tables, which makes every metric, delta and Monte-Carlo draw an
interpreter-level loop.  This module is the array-backed alternative:

- :class:`WorkloadIndex` -- a stable workload <-> row mapping (row i of
  every array is the same workload everywhere);
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

from typing import Dict, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.metrics import ReferenceIpcs, ThroughputMetric
from repro.core.workload import Workload


def _preview(items: Sequence, limit: int = 5) -> str:
    shown = ", ".join(str(x) for x in items[:limit])
    more = len(items) - limit
    return shown + (f", ... {more} more" if more > 0 else "")


class WorkloadIndex:
    """A stable, ordered workload <-> row mapping.

    Row numbers are assigned by position in ``workloads`` and never
    change, so any array whose axis 0 has length ``len(index)`` can be
    interpreted per-workload.  Built from a population (which preserves
    its enumeration order), any workload sequence, or -- zero-copy --
    straight from a :class:`~repro.core.codematrix.CodeMatrix`: the
    matrix *is* the index's :attr:`codes`, and the workload tuple and
    row dictionary are materialised only if something asks for them.

    Args:
        workloads: the workloads, in row order (must be unique and all
            occupy the same number of cores).
        benchmarks: the benchmark universe (sorted); defaults to the
            names appearing in the workloads.  Reference-IPC vectors
            and the per-slot code matrix are aligned to it.
    """

    __slots__ = ("cores", "benchmarks", "_workloads", "_size", "_rows",
                 "_codes", "_encoded", "_encoded_order")

    def __init__(self, workloads: Sequence[Workload],
                 benchmarks: Optional[Sequence[str]] = None) -> None:
        self._workloads: Optional[tuple] = tuple(workloads)
        if not self._workloads:
            raise ValueError("empty workload index")
        self._size = len(self._workloads)
        self.cores = self._workloads[0].k
        if any(w.k != self.cores for w in self._workloads):
            raise ValueError("all workloads must have the same core count")
        self._rows: Optional[Dict[Workload, int]] = {
            w: i for i, w in enumerate(self._workloads)}
        if len(self._rows) != self._size:
            raise ValueError("duplicate workloads in index")
        if benchmarks is None:
            benchmarks = sorted({b for w in self._workloads for b in w})
        self.benchmarks = tuple(sorted(benchmarks))
        self._codes: Optional[np.ndarray] = None
        self._encoded: Optional[np.ndarray] = None
        self._encoded_order: Optional[np.ndarray] = None

    @staticmethod
    def from_code_matrix(matrix) -> "WorkloadIndex":
        """Zero-copy index over a code matrix's rows.

        The matrix becomes :attr:`codes` directly -- no ``Workload``
        tuples are built, so indexing the full 8-core population costs
        O(N x K) integers.  Row uniqueness is validated once on the
        combinadic ranks (which, unlike the base-B packed keys, fit an
        int64 for every population an int64 rank can address).

        Args:
            matrix: a :class:`~repro.core.codematrix.CodeMatrix` with
                unique, sorted rows.
        """
        from repro.core.codematrix import has_duplicates, rank_codes

        if len(matrix) == 0:
            raise ValueError("empty workload index")
        index = WorkloadIndex.__new__(WorkloadIndex)
        index._workloads = None
        index._size = len(matrix)
        index.cores = matrix.cores
        index.benchmarks = matrix.benchmarks
        index._rows = None
        index._codes = matrix.codes
        index._encoded = None
        index._encoded_order = None
        if has_duplicates(rank_codes(matrix.codes, matrix.num_benchmarks)):
            raise ValueError("duplicate workloads in index")
        return index

    @staticmethod
    def from_population(population) -> "WorkloadIndex":
        """Index a :class:`~repro.core.population.WorkloadPopulation`.

        Rows follow the population's own order, so ``rows == arange``
        for iteration over the population.  Populations backed by a
        code matrix are indexed zero-copy (see
        :meth:`from_code_matrix`); prefer ``population.index``, which
        memoises the result.
        """
        matrix = getattr(population, "code_matrix", None)
        if matrix is not None:
            return WorkloadIndex.from_code_matrix(matrix)
        return WorkloadIndex(tuple(population.workloads),
                             population.benchmarks)

    # ------------------------------------------------------------------
    # Row lookups

    @property
    def workloads(self) -> tuple:
        """The indexed workloads, in row order (materialised lazily)."""
        if self._workloads is None:
            names = self.benchmarks
            self._workloads = tuple(
                Workload.from_sorted(tuple(names[c] for c in row))
                for row in self._codes.tolist())
        return self._workloads

    def _row_map(self) -> Dict[Workload, int]:
        if self._rows is None:
            self._rows = {w: i for i, w in enumerate(self.workloads)}
        return self._rows

    def row(self, workload: Workload) -> int:
        try:
            return self._row_map()[workload]
        except KeyError:
            raise KeyError(f"{workload} is not in this index") from None

    def rows(self, workloads: Sequence[Workload]) -> np.ndarray:
        """Row numbers for a workload sequence, as int64."""
        lookup = self._row_map()
        return np.fromiter((lookup[w] for w in workloads),
                           dtype=np.int64, count=len(workloads))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Workload]:
        return iter(self.workloads)

    def __contains__(self, workload: Workload) -> bool:
        return workload in self._row_map()

    def same_rows(self, other: "WorkloadIndex") -> bool:
        """Whether two indexes map the same workloads to the same rows.

        Compares code matrices when both sides have them (no workload
        materialisation), falling back to tuple equality.
        """
        if other is self:
            return True
        if self._codes is not None and other._codes is not None \
                and self.benchmarks == other.benchmarks:
            return (self._codes.shape == other._codes.shape
                    and bool(np.array_equal(self._codes, other._codes)))
        return self.workloads == other.workloads

    # ------------------------------------------------------------------
    # Benchmark codes

    @property
    def codes(self) -> np.ndarray:
        """N x K benchmark codes (position in :attr:`benchmarks`)."""
        if self._codes is None:
            code = {name: i for i, name in enumerate(self.benchmarks)}
            flat = np.fromiter(
                (code[b] for w in self.workloads for b in w),
                dtype=np.int64, count=len(self.workloads) * self.cores)
            self._codes = flat.reshape(len(self.workloads), self.cores)
        return self._codes

    def encode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Pack sorted per-slot codes into one int64 key per workload.

        Big-endian base-B packing, so keys sort in the same order as
        the code tuples (and as the workloads' lexicographic order).
        """
        base = max(len(self.benchmarks), 2)
        if base ** self.cores > 2**62:
            raise ValueError("workload key does not fit in int64")
        keys = np.zeros(codes.shape[0], dtype=np.int64)
        for j in range(codes.shape[1]):
            keys = keys * base + codes[:, j]
        return keys

    @property
    def encoded(self) -> np.ndarray:
        """Packed key per row (see :meth:`encode_codes`)."""
        if self._encoded is None:
            self._encoded = self.encode_codes(self.codes)
        return self._encoded

    def rows_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Rows of workloads given as sorted per-slot code matrices.

        Vectorized membership lookup via binary search over the packed
        keys; raises if any workload is missing from the index.
        """
        if self._encoded_order is None:
            self._encoded_order = np.argsort(self.encoded, kind="stable")
        order = self._encoded_order
        keys = self.encode_codes(codes)
        pos = np.searchsorted(self.encoded[order], keys)
        if np.any(pos >= len(order)) or \
                np.any(self.encoded[order[np.minimum(pos, len(order) - 1)]]
                       != keys):
            raise KeyError("constructed workload not in index")
        return order[pos]

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

    @staticmethod
    def from_code_matrix(matrix, values: np.ndarray) -> "IpcMatrix":
        """Zero-copy panel over a code matrix's rows.

        Pairs an N x K IPC panel with a
        :class:`~repro.core.codematrix.CodeMatrix` without ever
        materialising workload tuples (see
        :meth:`WorkloadIndex.from_code_matrix`).
        """
        return IpcMatrix(WorkloadIndex.from_code_matrix(matrix), values)

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
