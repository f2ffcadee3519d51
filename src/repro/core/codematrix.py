"""Matrix-native workload populations: code matrices and combinadics.

A workload over a sorted benchmark suite of B names is a nondecreasing
K-tuple of benchmark indices ("codes").  This module makes that integer
row the *canonical* representation of a population member: an N x K
code matrix holds N workloads in O(N x K) integer memory, with
:class:`~repro.core.workload.Workload` objects materialised only when a
consumer genuinely needs names.

The combinatorics run on the stars-and-bars bijection.  A code row
``c_0 <= c_1 <= ... <= c_{K-1}`` maps to the strictly increasing
combination ``a_j = c_j + j`` over ``n = B + K - 1`` symbols, so the
lexicographic order of code rows equals the lexicographic order of
K-combinations -- and of ``itertools.combinations_with_replacement``
over the sorted suite.  That gives every workload a *combinadic rank*
in ``[0, C(n, K))``:

- :func:`rank_codes` / :func:`unrank_codes` convert whole rank vectors
  to code matrices (and back) in a K-step vectorized loop -- each step
  is one ``np.searchsorted`` against a precomputed binomial column, so
  the full 8-core population (C(29, 8) = 4 292 145 workloads) unranks
  in well under a second;
- :func:`enumerate_codes` is ``unrank_codes(arange(N))``: vectorized
  exhaustive enumeration in ``combinations_with_replacement`` order;
- uniform sampling without replacement draws ``size`` distinct ranks
  (one ``rng.sample`` over the rank range -- no per-draw rejection loop)
  and unranks them, which both scales to the 8-core population and
  keeps the draw exactly uniform over multisets.

:func:`rank_scalar` / :func:`unrank_scalar` are deliberately
*independent* pure-Python implementations (linear block walks instead
of binomial-column bisection); the golden tests pin the vectorized
paths bit-identical to them.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.workload import Workload

#: Ranks are int64; populations beyond this cannot be indexed.
_MAX_RANK = 2 ** 62

#: Process-level memo of exhaustive enumerations, keyed by
#: (sorted benchmark tuple, cores) -- see :meth:`CodeMatrix.full`.
_FULL_CACHE: Dict[Tuple[Tuple[str, ...], int], np.ndarray] = {}
_FULL_CACHE_LOCK = threading.Lock()


def clear_enumeration_cache() -> None:
    """Drop every memoised :meth:`CodeMatrix.full` enumeration.

    Matrices already handed out keep their (shared, read-only) arrays;
    only the process-level memo releases its references.
    """
    with _FULL_CACHE_LOCK:
        _FULL_CACHE.clear()


def enumeration_cache_info() -> Dict[str, int]:
    """Entries and resident bytes of the :meth:`CodeMatrix.full` memo."""
    with _FULL_CACHE_LOCK:
        return {"entries": len(_FULL_CACHE),
                "bytes": sum(a.nbytes for a in _FULL_CACHE.values())}


def multiset_count(num_benchmarks: int, cores: int) -> int:
    """C(B + K - 1, K): number of K-multisets over B benchmarks."""
    if num_benchmarks < 1 or cores < 1:
        raise ValueError("need at least one benchmark and one core")
    return math.comb(num_benchmarks + cores - 1, cores)


def binomial_table(n: int, kmax: int) -> np.ndarray:
    """Pascal's triangle as an (n+1) x (kmax+1) int64 matrix.

    ``table[i, m] == C(i, m)``; column ``m`` is nondecreasing in ``i``
    (strictly increasing for ``i >= m``), which is what lets the
    unranking loop bisect it.
    """
    if math.comb(n, min(kmax, n // 2)) >= _MAX_RANK:
        raise ValueError(f"C({n}, {kmax}) does not fit in an int64 rank")
    table = np.zeros((n + 1, kmax + 1), dtype=np.int64)
    table[:, 0] = 1
    for i in range(1, n + 1):
        table[i, 1:] = table[i - 1, 1:] + table[i - 1, :kmax]
    return table


def _code_dtype(num_benchmarks: int) -> np.dtype:
    """The smallest signed dtype holding every benchmark code."""
    if num_benchmarks <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def rank_codes(codes: np.ndarray, num_benchmarks: int,
               validate: bool = True) -> np.ndarray:
    """Combinadic ranks of sorted code rows, vectorized.

    Args:
        codes: an N x K integer matrix, each row nondecreasing with
            values in ``[0, num_benchmarks)``.
        num_benchmarks: B, the benchmark-universe size.
        validate: check the row invariants (skip only for matrices this
            module produced itself).

    Returns:
        int64 ranks in ``[0, C(B + K - 1, K))``, in row order.
    """
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected an N x K matrix, got shape {codes.shape}")
    count, cores = codes.shape
    if validate and count:
        if codes.min() < 0 or codes.max() >= num_benchmarks:
            raise ValueError("benchmark codes out of range")
        if cores > 1 and np.any(codes[:, 1:] < codes[:, :-1]):
            raise ValueError("code rows must be sorted nondecreasing")
    n = num_benchmarks + cores - 1
    table = binomial_table(n, cores)
    ranks = np.zeros(count, dtype=np.int64)
    lo = np.zeros(count, dtype=np.int64)
    for j in range(cores):
        m = cores - j
        column = table[:, m]
        a = codes[:, j].astype(np.int64) + j
        # Combinations with first remaining element in [lo, a):
        # hockey-stick sum C(n-lo, m) - C(n-a, m).
        ranks += column[n - lo] - column[n - a]
        lo = a + 1
    return ranks


def has_duplicates(ranks: np.ndarray) -> bool:
    """Whether a 1-D rank vector repeats a value (one sort; cheaper
    than ``np.unique`` for the integer vectors ranks are)."""
    ordered = np.sort(ranks)
    return bool(np.any(ordered[1:] == ordered[:-1]))


def unrank_codes(ranks: Iterable[int], num_benchmarks: int,
                 cores: int) -> np.ndarray:
    """Code rows of combinadic ranks, vectorized (inverse of rank).

    Each of the K steps finds every row's next combination element with
    one binary search over a binomial column, so the cost is
    O(K * N log(B + K)) with no Python-level per-row work.

    Args:
        ranks: ranks in ``[0, C(B + K - 1, K))``.
        num_benchmarks: B, the benchmark-universe size.
        cores: K, the row width.

    Returns:
        An N x K sorted code matrix in the module's compact dtype.
    """
    remaining = np.array(list(ranks) if not isinstance(ranks, np.ndarray)
                         else ranks, dtype=np.int64)
    if remaining.ndim != 1:
        raise ValueError("ranks must be one-dimensional")
    n = num_benchmarks + cores - 1
    table = binomial_table(n, cores)
    total = table[n, cores]
    if remaining.size and (remaining.min() < 0 or remaining.max() >= total):
        raise ValueError(f"ranks must lie in [0, {total})")
    remaining = remaining.copy()
    codes = np.empty((remaining.shape[0], cores),
                     dtype=_code_dtype(num_benchmarks))
    lo = np.zeros(remaining.shape[0], dtype=np.int64)
    for j in range(cores):
        m = cores - j
        column = table[:, m]
        block = column[n - lo]          # combos left with element >= lo
        # The element a maximises C(n - a, m) >= block - rank; column m
        # is nondecreasing in its index i = n - a, so the minimal such
        # i is a left bisection.
        i = np.searchsorted(column, block - remaining, side="left")
        remaining -= block - column[i]
        a = n - i
        codes[:, j] = a - j
        lo = a + 1
    return codes


def enumerate_codes(num_benchmarks: int, cores: int) -> np.ndarray:
    """The full population as one sorted code matrix.

    Row ``r`` is the rank-``r`` workload, so rows follow
    ``itertools.combinations_with_replacement`` order over the sorted
    suite (pinned by the golden parity tests).
    """
    total = multiset_count(num_benchmarks, cores)
    return unrank_codes(np.arange(total, dtype=np.int64), num_benchmarks,
                        cores)


def sample_ranks(total: int, size: int, rng: random.Random) -> np.ndarray:
    """``size`` distinct ranks drawn uniformly from ``[0, total)``.

    One ``rng.sample`` over the (virtual) rank range -- Python's
    selection-set algorithm, O(size) for large populations -- returned
    sorted so the unranked code matrix comes out in enumeration order.
    """
    if not 0 < size <= total:
        raise ValueError(f"sample size must be in [1, {total}]")
    return np.array(sorted(rng.sample(range(total), size)), dtype=np.int64)


# ----------------------------------------------------------------------
# Scalar references (independent algorithm, used by the parity tests)

def rank_scalar(codes: Sequence[int], num_benchmarks: int) -> int:
    """Combinadic rank of one sorted code row (pure-Python reference)."""
    cores = len(codes)
    n = num_benchmarks + cores - 1
    rank = 0
    lo = 0
    for j, code in enumerate(codes):
        m = cores - j
        a = code + j
        if not lo - j <= code < num_benchmarks:
            raise ValueError(f"code {code} out of range at position {j}")
        for x in range(lo, a):
            rank += math.comb(n - 1 - x, m - 1)
        lo = a + 1
    return rank


def unrank_scalar(rank: int, num_benchmarks: int,
                  cores: int) -> Tuple[int, ...]:
    """Sorted code row of one rank (pure-Python reference).

    Walks the first-element blocks linearly instead of bisecting a
    binomial column, so it shares no code path with
    :func:`unrank_codes`.
    """
    total = multiset_count(num_benchmarks, cores)
    if not 0 <= rank < total:
        raise ValueError(f"rank must lie in [0, {total})")
    n = num_benchmarks + cores - 1
    out: List[int] = []
    lo = 0
    for j in range(cores):
        m = cores - j
        a = lo
        while True:
            block = math.comb(n - 1 - a, m - 1)
            if rank < block:
                break
            rank -= block
            a += 1
        out.append(a - j)
        lo = a + 1
    return tuple(out)


# ----------------------------------------------------------------------


class CodeMatrix:
    """An N x K benchmark-index matrix over a sorted suite.

    The canonical population representation: integer rows instead of
    :class:`Workload` objects, with workloads materialised only on
    demand.  Rows are sorted code tuples; construction classmethods
    guarantee (or validate) that invariant.

    Args:
        benchmarks: the sorted benchmark universe the codes index.
        codes: the N x K sorted integer matrix (not copied).
    """

    __slots__ = ("benchmarks", "codes")

    def __init__(self, benchmarks: Sequence[str], codes: np.ndarray) -> None:
        self.benchmarks: Tuple[str, ...] = tuple(benchmarks)
        if list(self.benchmarks) != sorted(self.benchmarks):
            raise ValueError("benchmarks must be sorted")
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError(
                f"expected an N x K matrix, got shape {codes.shape}")
        self.codes = codes

    # -- construction --------------------------------------------------

    @classmethod
    def full(cls, benchmarks: Sequence[str], cores: int) -> "CodeMatrix":
        """The exhaustive population, in enumeration (rank) order.

        Memoised per process: re-enumerating the same (suite, cores)
        universe is the single most expensive population operation
        (the 8-core 22-benchmark population is 4 292 145 rows, ~2.8 s
        and ~69 MB of int16), and long-lived processes -- above all the
        ``repro serve`` daemon -- ask for it once per query.  Repeat
        calls share one read-only code array (the matrix itself is a
        cheap view over it), so the enumeration is paid once per
        process and per universe.

        Memory behaviour: cached arrays live until
        :func:`clear_enumeration_cache` (or process exit).  One entry
        costs ``C(B + K - 1, K) * K`` int16/int32 cells -- 69 MB for
        the full 8-core suite, kilobytes for the 2/4-core populations.
        The shared array is marked non-writeable so no consumer can
        corrupt a sibling population.
        """
        ordered = tuple(sorted(benchmarks))
        key = (ordered, cores)
        with _FULL_CACHE_LOCK:
            codes = _FULL_CACHE.get(key)
        if codes is None:
            codes = enumerate_codes(len(ordered), cores)
            codes.setflags(write=False)
            with _FULL_CACHE_LOCK:
                codes = _FULL_CACHE.setdefault(key, codes)
        return cls(ordered, codes)

    @classmethod
    def sample(cls, benchmarks: Sequence[str], cores: int, size: int,
               rng: random.Random) -> "CodeMatrix":
        """A uniform without-replacement sample, in enumeration order.

        Draws ``size`` distinct ranks analytically and unranks them --
        no duplicate-rejection loop, no per-draw re-sorting, no
        dependence of the cost on how close ``size`` is to the
        population size.
        """
        ordered = sorted(benchmarks)
        total = multiset_count(len(ordered), cores)
        ranks = sample_ranks(total, size, rng)
        return cls(ordered, unrank_codes(ranks, len(ordered), cores))

    @classmethod
    def from_ranks(cls, benchmarks: Sequence[str], cores: int,
                   ranks: Iterable[int]) -> "CodeMatrix":
        """The workloads at the given combinadic ranks, in given order."""
        ordered = sorted(benchmarks)
        return cls(ordered, unrank_codes(ranks, len(ordered), cores))

    @classmethod
    def from_workloads(cls, workloads: Sequence[Workload],
                       benchmarks: Optional[Sequence[str]] = None,
                       ) -> "CodeMatrix":
        """Encode explicit workloads (row order preserved).

        Args:
            workloads: the members; all must share one core count.
            benchmarks: the universe (default: the names appearing in
                the workloads).  Every workload name must be in it.
        """
        if not workloads:
            raise ValueError("empty workload list")
        cores = workloads[0].k
        if any(w.k != cores for w in workloads):
            raise ValueError("all workloads must have the same core count")
        if benchmarks is None:
            benchmarks = sorted({b for w in workloads for b in w})
        ordered = tuple(sorted(benchmarks))
        code = {name: i for i, name in enumerate(ordered)}
        try:
            flat = np.fromiter(
                (code[b] for w in workloads for b in w),
                dtype=_code_dtype(len(ordered)),
                count=len(workloads) * cores)
        except KeyError as error:
            raise ValueError(
                f"workload benchmark {error.args[0]!r} is not in the "
                f"given benchmark universe") from None
        return cls(ordered, flat.reshape(len(workloads), cores))

    # -- views ---------------------------------------------------------

    @property
    def cores(self) -> int:
        """K, the row width."""
        return self.codes.shape[1]

    @property
    def num_benchmarks(self) -> int:
        """B, the benchmark-universe size."""
        return len(self.benchmarks)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def ranks(self, universe: Optional[Sequence[str]] = None) -> np.ndarray:
        """Combinadic rank of every row (int64).

        Args:
            universe: a sorted benchmark suite containing this matrix's
                benchmarks; ranks are then taken over it instead of over
                :attr:`benchmarks`.  A subset's codes map into the
                larger suite with one array lookup, which keeps rows
                sorted, so the ranks of one workload agree across every
                subset of the same suite.
        """
        if universe is None or tuple(universe) == self.benchmarks:
            return rank_codes(self.codes, self.num_benchmarks, validate=False)
        universe = tuple(universe)
        position = {name: code for code, name in enumerate(universe)}
        missing = [name for name in self.benchmarks if name not in position]
        if missing:
            raise ValueError(f"benchmarks {missing} are not in the universe")
        lookup = np.array([position[name] for name in self.benchmarks],
                          dtype=np.int64)
        return rank_codes(lookup[self.codes], len(universe), validate=False)

    def take(self, rows) -> "CodeMatrix":
        """The given rows (indices or a boolean mask), in that order."""
        return CodeMatrix(self.benchmarks, self.codes[rows])

    def row_workload(self, row: int) -> Workload:
        """Materialise one row as a :class:`Workload`."""
        names = self.benchmarks
        return Workload.from_sorted(
            tuple(names[c] for c in self.codes[row].tolist()))

    def workloads(self) -> List[Workload]:
        """Materialise every row (one :class:`Workload` per row)."""
        names = self.benchmarks
        return [Workload.from_sorted(tuple(names[c] for c in row))
                for row in self.codes.tolist()]

    def benchmark_occurrences(self) -> np.ndarray:
        """Per-benchmark slot counts over the whole matrix (length B)."""
        return np.bincount(self.codes.ravel().astype(np.int64, copy=False),
                           minlength=self.num_benchmarks)

    def __repr__(self) -> str:
        return (f"CodeMatrix(N={len(self)}, K={self.cores}, "
                f"B={self.num_benchmarks}, dtype={self.codes.dtype})")
