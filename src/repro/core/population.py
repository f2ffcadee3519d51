"""Workload populations: enumeration, counting and uniform sampling.

With B benchmarks and K identical cores, the population of distinct
workloads is the set of K-multisets over B symbols, of size
C(B + K - 1, K) -- 253 for the paper's 22 benchmarks on 2 cores, 12650
on 4 cores, and 4 292 145 on 8 cores (which is why the paper samples
10000 workloads there instead of enumerating).

Since the code-matrix refactor a population is a *lazy view* over an
N x K integer benchmark-index matrix (:class:`~repro.core.codematrix.
CodeMatrix`): enumeration and uniform sampling are vectorized
stars-and-bars / combinadic operations, counts come from column
statistics, and :class:`~repro.core.workload.Workload` objects are
materialised only when a consumer iterates.  The 8-core full population
therefore costs O(N x K) integers to enumerate, not 4.3 M Python
objects.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from repro.core.codematrix import CodeMatrix, multiset_count
from repro.core.workload import Workload


def population_size(num_benchmarks: int, cores: int) -> int:
    """C(B + K - 1, K): number of K-multisets over B benchmarks."""
    return multiset_count(num_benchmarks, cores)


def enumerate_workloads(benchmarks: Sequence[str], cores: int) -> Iterator[Workload]:
    """All distinct workloads, in lexicographic order."""
    for combo in itertools.combinations_with_replacement(sorted(benchmarks), cores):
        yield Workload(combo)


def sample_workload(benchmarks: Sequence[str], cores: int,
                    rng: random.Random) -> Workload:
    """Draw one workload uniformly from the multiset population.

    Uniformity over *multisets* (not over ordered tuples) uses the
    stars-and-bars bijection: a sorted draw of K positions without
    replacement from B + K - 1 maps to a unique multiset.  Drawing
    benchmarks independently would over-weight workloads with repeated
    benchmarks relative to the population.

    (Population construction no longer draws through this one-at-a-time
    path -- it samples ranks and unranks them in bulk, see
    :mod:`repro.core.codematrix` -- but single draws remain useful for
    ad-hoc workload picks, e.g. Table III's timing probes.)
    """
    ordered = sorted(benchmarks)
    b = len(ordered)
    positions = sorted(rng.sample(range(b + cores - 1), cores))
    # position p at draw-rank j corresponds to benchmark index p - j.
    chosen = [ordered[p - j] for j, p in enumerate(positions)]
    return Workload(chosen)


class WorkloadPopulation:
    """A workload population (or large sample), backed by a code matrix.

    For 2 and 4 cores this is the complete population; for 8 cores the
    paper (and this class, via ``max_size``) uses a large uniform sample
    standing in for the intractable full population.

    The population is *lazy*: construction builds only the N x K
    benchmark-index matrix (exhaustive populations by vectorized
    enumeration, sampled ones by drawing distinct combinadic ranks and
    unranking -- no rejection loop).  ``len``, membership,
    :meth:`benchmark_occurrences` and the columnar layer all work off
    the matrix; :class:`~repro.core.workload.Workload` objects exist
    only once something iterates or indexes, and then once, in the
    :attr:`index`.

    Args:
        benchmarks: the benchmark suite names.
        cores: number of cores K.
        max_size: if the true population exceeds this, draw a uniform
            sample of this size instead of enumerating (mirrors the
            paper's 10000-workload 8-core population).
        seed: RNG seed for the sampled case.
    """

    def __init__(self, benchmarks: Sequence[str], cores: int,
                 max_size: Optional[int] = None, seed: int = 0) -> None:
        self.benchmarks = tuple(sorted(benchmarks))
        self.cores = cores
        self.true_size = population_size(len(self.benchmarks), cores)
        self.is_exhaustive = max_size is None or self.true_size <= max_size
        self._index = None
        if self.is_exhaustive:
            self.code_matrix = CodeMatrix.full(self.benchmarks, cores)
        else:
            rng = random.Random(seed)
            self.code_matrix = CodeMatrix.sample(self.benchmarks, cores,
                                                 max_size, rng)

    @classmethod
    def from_workloads(cls, workloads: Sequence[Workload],
                       benchmarks: Optional[Sequence[str]] = None,
                       ) -> "WorkloadPopulation":
        """A population wrapping an explicit workload list.

        The sampling frame of judged-by-detailed experiments (the
        paper's Fig. 7) is the detailed-simulated subset, not a
        combinatorial enumeration; this builds that frame without
        private-attribute surgery.  The result is never exhaustive
        (it is a subsample by construction).

        Args:
            workloads: the frame members, in row order as given
                (callers sort if they need a canonical order).
            benchmarks: the benchmark universe; defaults to the names
                appearing in the workloads.
        """
        matrix = CodeMatrix.from_workloads(workloads, benchmarks)
        frame = cls.__new__(cls)
        frame.benchmarks = matrix.benchmarks
        frame.cores = matrix.cores
        frame.true_size = population_size(len(frame.benchmarks), frame.cores)
        frame.is_exhaustive = False
        frame._index = None
        frame.code_matrix = matrix
        return frame

    @property
    def index(self):
        """The population's :class:`~repro.core.columnar.WorkloadIndex`.

        A view over the code matrix, memoised, so estimators, sampling
        plans and panels share one instance -- and one cache of
        :class:`Workload` objects (:attr:`workloads`).
        """
        if self._index is None:
            from repro.core.columnar import WorkloadIndex

            self._index = WorkloadIndex(self.code_matrix)
        return self._index

    @property
    def workloads(self) -> Sequence[Workload]:
        """The workloads in row order (the index's, built on first use)."""
        return self.index.workloads

    def __len__(self) -> int:
        return len(self.code_matrix)

    def __iter__(self) -> Iterator[Workload]:
        return iter(self.workloads)

    def __getitem__(self, index):
        return self.index[index]

    def __contains__(self, workload: Workload) -> bool:
        if self.is_exhaustive:
            # Every multiset over the suite is a member.
            return (isinstance(workload, Workload)
                    and workload.k == self.cores
                    and all(name in self.benchmarks for name in workload))
        return workload in self.index

    def benchmark_occurrences(self) -> dict:
        """Total occurrences of each benchmark across the population.

        In the exhaustive population every benchmark occurs the same
        number of times -- the symmetry behind balanced random sampling
        (Section VI-A of the paper).  Computed from code-matrix column
        counts (one ``bincount``), not by walking workload objects.
        """
        counts = self.code_matrix.benchmark_occurrences()
        return dict(zip(self.benchmarks, counts.tolist()))

    def __repr__(self) -> str:
        kind = "exhaustive" if self.is_exhaustive else "sampled"
        return (f"WorkloadPopulation(B={len(self.benchmarks)}, K={self.cores}, "
                f"{len(self)} workloads, {kind})")
