"""Code matrices: enumeration order, combinadic rank/unrank, sampling."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.spec import benchmark_names
from repro.core.codematrix import (
    CodeMatrix,
    enumerate_codes,
    multiset_count,
    rank_codes,
    rank_scalar,
    sample_ranks,
    unrank_codes,
    unrank_scalar,
)
from repro.core.columnar import IpcMatrix, WorkloadIndex
from repro.core.population import WorkloadPopulation
from repro.core.workload import Workload

SUITE_NAMES = benchmark_names()

# ----------------------------------------------------------------------
# Golden enumeration-order parity (the paper's exact populations)


@pytest.mark.parametrize("cores,expected", [(2, 253), (4, 12650)])
def test_enumeration_matches_itertools_order(cores, expected):
    """Code-matrix enumeration == combinations_with_replacement order."""
    names = benchmark_names()
    matrix = CodeMatrix.full(names, cores)
    assert len(matrix) == expected
    reference = [
        Workload(combo) for combo in
        itertools.combinations_with_replacement(sorted(names), cores)]
    assert matrix.workloads() == reference


def test_enumeration_rows_are_their_own_ranks():
    matrix = CodeMatrix.full([f"b{i}" for i in range(7)], 3)
    assert np.array_equal(matrix.ranks(), np.arange(len(matrix)))


# ----------------------------------------------------------------------
# Rank / unrank round trips, vectorized vs the scalar reference


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=23),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 62))
def test_unrank_rank_round_trip(b, k, raw_rank):
    total = multiset_count(b, k)
    rank = raw_rank % total
    code = unrank_scalar(rank, b, k)
    assert len(code) == k
    assert all(0 <= c < b for c in code)
    assert tuple(sorted(code)) == code
    assert rank_scalar(code, b) == rank
    # Vectorized paths agree bit for bit with the scalar reference.
    matrix = unrank_codes(np.array([rank]), b, k)
    assert tuple(matrix[0].tolist()) == code
    assert rank_codes(matrix, b).tolist() == [rank]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=21), min_size=1,
                max_size=8))
def test_rank_unrank_of_workload_codes(codes):
    """unrank(rank(w)) == w for arbitrary sorted code rows."""
    b, k = 22, len(codes)
    row = tuple(sorted(codes))
    rank = rank_scalar(row, b)
    assert unrank_scalar(rank, b, k) == row
    ranks = rank_codes(np.array([row]), b)
    assert np.array_equal(unrank_codes(ranks, b, k)[0],
                          np.array(row))


def test_rank_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        rank_codes(np.array([[2, 1]]), 5)       # not sorted
    with pytest.raises(ValueError):
        rank_codes(np.array([[0, 5]]), 5)       # out of range
    with pytest.raises(ValueError):
        unrank_codes(np.array([multiset_count(5, 2)]), 5, 2)


# ----------------------------------------------------------------------
# The 8-core full population: seconds and O(N x K) integer memory


def test_eight_core_full_population_scales():
    names = benchmark_names()
    codes = enumerate_codes(len(names), 8)
    assert codes.shape == (4292145, 8)
    # Integer memory, not 4.3 M Python objects: the matrix itself is
    # the population (int16 suffices for 22 benchmarks).
    assert codes.dtype.kind == "i"
    assert codes.nbytes == codes.shape[0] * codes.shape[1] * codes.itemsize
    # Spot-check rank round trips across the range.
    picks = np.array([0, 1, 4096, 4292144, 2146072], dtype=np.int64)
    assert np.array_equal(rank_codes(codes[picks], len(names)), picks)


def test_eight_core_sampling_matches_scalar_unrank():
    """Matrix-path samples are bit-identical to scalar unranking."""
    names = benchmark_names()
    seed = 11
    matrix = CodeMatrix.sample(names, 8, 500, random.Random(seed))
    # Re-draw the same ranks and unrank each one with the independent
    # scalar reference implementation.
    total = multiset_count(len(names), 8)
    ranks = sample_ranks(total, 500, random.Random(seed))
    assert np.array_equal(matrix.ranks(), ranks)
    for rank, row in zip(ranks.tolist(), matrix.codes.tolist()):
        assert unrank_scalar(rank, len(names), 8) == tuple(row)


def test_sampling_is_without_replacement_and_sorted():
    matrix = CodeMatrix.sample([f"b{i}" for i in range(22)], 8, 1000,
                               random.Random(3))
    ranks = matrix.ranks()
    assert len(np.unique(ranks)) == 1000
    assert np.array_equal(ranks, np.sort(ranks))


def test_sample_size_bounds():
    with pytest.raises(ValueError):
        sample_ranks(10, 11, random.Random(0))
    with pytest.raises(ValueError):
        sample_ranks(10, 0, random.Random(0))


# ----------------------------------------------------------------------
# CodeMatrix views and the zero-copy columnar constructors


def test_from_workloads_round_trip_and_validation():
    workloads = [Workload(["b", "a"]), Workload(["c", "c"])]
    matrix = CodeMatrix.from_workloads(workloads)
    assert matrix.benchmarks == ("a", "b", "c")
    assert matrix.workloads() == workloads
    with pytest.raises(ValueError):
        CodeMatrix.from_workloads(workloads, benchmarks=["a", "b"])
    with pytest.raises(ValueError):
        CodeMatrix.from_workloads([])


def test_benchmark_occurrences_by_column_counts():
    matrix = CodeMatrix.full(["a", "b", "c"], 2)
    counts = matrix.benchmark_occurrences()
    # C(4, 2) = 6 workloads x 2 slots; symmetric suite: 4 each.
    assert counts.tolist() == [4, 4, 4]


def test_workload_index_from_code_matrix_is_zero_copy():
    matrix = CodeMatrix.full([f"b{i}" for i in range(6)], 3)
    index = WorkloadIndex(matrix)
    assert index.matrix is matrix
    assert index.codes is matrix.codes
    assert index._workloads is None          # nothing materialised yet
    assert len(index) == len(matrix)
    # Lazy materialisation on demand, in row order.
    assert index.workloads == tuple(matrix.workloads())
    assert index.row(matrix.row_workload(5)) == 5


def test_workload_index_from_code_matrix_rejects_duplicates():
    workload = Workload(["a", "b"])
    matrix = CodeMatrix.from_workloads([workload, workload])
    with pytest.raises(ValueError, match="duplicate workloads"):
        WorkloadIndex(matrix)


def test_a_population_frame_with_a_duplicate_row_has_no_index():
    workload = Workload(["a", "b"])
    frame = WorkloadPopulation.from_workloads(
        [workload, Workload(["a", "a"]), workload])
    with pytest.raises(ValueError, match="duplicate workloads"):
        frame.index


def test_ipc_matrix_from_code_matrix():
    matrix = CodeMatrix.full(["a", "b", "c"], 2)
    values = np.arange(len(matrix) * 2, dtype=np.float64).reshape(-1, 2)
    panel = IpcMatrix(WorkloadIndex(matrix), values)
    assert panel.index.codes is matrix.codes
    assert np.array_equal(panel.values, values)


def test_index_from_code_matrix_survives_huge_universes():
    """Uniqueness and lookups run on combinadic ranks, which fit an
    int64 where a base-B packed key (100**10 > 2**62) would not."""
    names = [f"bench{i:03d}" for i in range(100)]
    matrix = CodeMatrix.sample(names, 10, 50, random.Random(0))
    index = WorkloadIndex(matrix)
    assert len(index) == 50
    assert index.rows(matrix.workloads()[::-1]).tolist() == \
        list(range(49, -1, -1))


def test_index_lookups_go_by_rank():
    frame = [Workload(["c", "c"]), Workload(["a", "b"]), Workload(["b", "c"])]
    index = WorkloadIndex(CodeMatrix.from_workloads(frame, ["a", "b", "c"]))
    assert index.rows([frame[2], frame[0]]).tolist() == [2, 0]
    assert index.row(frame[1]) == 1
    assert index.rows([]).tolist() == []
    assert frame[0] in index
    assert Workload(["a", "a"]) not in index     # same universe, absent
    assert Workload(["a", "z"]) not in index     # outside the universe
    assert Workload(["a", "b", "c"]) not in index          # another K
    assert "a" not in index
    with pytest.raises(KeyError, match="not in this index"):
        index.row(Workload(["a", "a"]))
    with pytest.raises(KeyError):
        index.rows([frame[0], Workload(["a", "z"])])
    ranks = CodeMatrix.from_workloads(frame, ["a", "b", "c"]).ranks()
    assert index.rank_rows(ranks[::-1]).tolist() == [2, 1, 0]


def test_same_rows_holds_across_benchmark_universes():
    frame = [Workload(["gcc", "mcf"]), Workload(["astar", "gcc"])]
    own = WorkloadIndex(CodeMatrix.from_workloads(frame))
    wide = WorkloadIndex(CodeMatrix.from_workloads(frame, SUITE_NAMES))
    assert own.benchmarks != wide.benchmarks
    assert own.same_rows(wide) and wide.same_rows(own)
    swapped = WorkloadIndex(CodeMatrix.from_workloads(frame[::-1],
                                                      SUITE_NAMES))
    assert not own.same_rows(swapped)
    shorter = WorkloadIndex(CodeMatrix.from_workloads(frame[:1],
                                                      SUITE_NAMES))
    assert not own.same_rows(shorter)


def test_compact_keeps_rows_over_the_benchmarks_they_use():
    matrix = CodeMatrix.from_workloads(
        [Workload(["c", "e"]), Workload(["a", "c"])], ["a", "b", "c", "d", "e"])
    compact = matrix.compact()
    assert compact.benchmarks == ("a", "c", "e")
    assert compact.workloads() == matrix.workloads()
    assert compact.codes.dtype == matrix.codes.dtype
    assert compact.compact() is compact
