"""Population enumeration, counting identities and uniform sampling."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.codematrix import CodeMatrix, unrank_scalar
from repro.core.population import (
    WorkloadPopulation,
    enumerate_workloads,
    population_size,
    sample_workload,
)
from repro.core.workload import Workload


def test_paper_population_sizes():
    """The counts quoted in the paper for 22 benchmarks."""
    assert population_size(22, 2) == 253
    assert population_size(22, 4) == 12650


def test_population_size_is_multiset_coefficient():
    assert population_size(3, 2) == 6     # aa ab ac bb bc cc
    assert population_size(5, 1) == 5
    assert population_size(1, 8) == 1


def test_population_size_rejects_degenerate():
    with pytest.raises(ValueError):
        population_size(0, 2)
    with pytest.raises(ValueError):
        population_size(5, 0)


def test_enumeration_matches_count():
    names = ["a", "b", "c", "d"]
    workloads = list(enumerate_workloads(names, 3))
    assert len(workloads) == population_size(4, 3)
    assert len(set(workloads)) == len(workloads)


def test_every_benchmark_occurs_equally_in_full_population():
    """The symmetry behind balanced random sampling (Section VI-A)."""
    pop = WorkloadPopulation(["a", "b", "c", "d", "e"], 3)
    occurrences = pop.benchmark_occurrences()
    assert len(set(occurrences.values())) == 1


def test_sampled_population_when_too_large():
    pop = WorkloadPopulation([f"b{i}" for i in range(22)], 8,
                             max_size=100, seed=1)
    assert not pop.is_exhaustive
    assert len(pop) == 100
    assert len(set(pop.workloads)) == 100


def test_exhaustive_when_under_cap():
    pop = WorkloadPopulation(["a", "b", "c"], 2, max_size=100)
    assert pop.is_exhaustive
    assert len(pop) == 6


def test_uniform_multiset_sampling_is_uniform():
    """Stars-and-bars sampling hits each multiset equally often."""
    rng = random.Random(7)
    names = ["a", "b", "c"]
    counts = Counter()
    draws = 12000
    for _ in range(draws):
        counts[sample_workload(names, 2, rng)] = counts.get(
            sample_workload(names, 2, rng), 0) + 1
    # 6 possible workloads; each should get ~1/6 of the draws.
    for workload, count in counts.items():
        assert abs(count / draws - 1 / 6) < 0.03, workload


def test_sample_workload_members_come_from_suite():
    rng = random.Random(3)
    for _ in range(50):
        w = sample_workload(["x", "y"], 4, rng)
        assert set(w) <= {"x", "y"}
        assert w.k == 4


# ----------------------------------------------------------------------
# The code-matrix backing (lazy view, unrank-based sampling)


def _materialised(pop) -> bool:
    """Whether the population's (index's) workload cache is built."""
    return pop._index is not None and pop._index._workloads is not None


def test_population_is_lazy_until_iterated():
    pop = WorkloadPopulation([f"b{i}" for i in range(10)], 4)
    # Size, occurrences and membership work straight off the matrix.
    assert len(pop) == population_size(10, 4)
    assert not _materialised(pop)
    assert sum(pop.benchmark_occurrences().values()) == 4 * len(pop)
    assert not _materialised(pop)
    assert Workload(["b0"] * 4) in pop
    assert Workload(["zz"] * 4) not in pop
    assert not _materialised(pop)
    # Single-row indexing materialises one workload, not the list.
    assert pop[0] == Workload(["b0"] * 4)
    assert pop[-1] == Workload(["b9"] * 4)
    assert not _materialised(pop)
    # Iteration materialises (once), into the index's cache.
    assert list(pop)[0] == pop[0]
    assert _materialised(pop)
    assert pop.workloads is pop.index.workloads


def test_population_matches_enumeration_order():
    names = ["c", "a", "b"]
    pop = WorkloadPopulation(names, 2)
    assert list(pop) == list(enumerate_workloads(names, 2))


def test_sampled_population_draws_via_unrank():
    """The sampled branch is distinct sorted ranks, scalar-verifiable."""
    names = [f"b{i}" for i in range(22)]
    pop = WorkloadPopulation(names, 8, max_size=200, seed=9)
    assert not pop.is_exhaustive
    assert len(pop) == 200
    ranks = pop.code_matrix.ranks()
    assert len(np.unique(ranks)) == 200
    assert np.array_equal(ranks, np.sort(ranks))        # enumeration order
    for rank, workload in zip(ranks.tolist(), pop):
        names_at_rank = tuple(
            pop.benchmarks[c] for c in unrank_scalar(rank, 22, 8))
        assert tuple(workload) == names_at_rank


def test_sampled_population_membership():
    names = [f"b{i}" for i in range(22)]
    pop = WorkloadPopulation(names, 8, max_size=50, seed=2)
    inside = pop[10]
    assert inside in pop
    assert not _materialised(pop)        # found by rank, not by a set
    # A workload over the suite that was (almost surely) not drawn.
    outside = Workload([names[0]] * 8)
    assert (outside in pop) == (outside in set(pop.workloads))


def test_from_workloads_keeps_code_matrix_in_caller_order():
    frame = [Workload(["b", "b"]), Workload(["a", "b"])]
    pop = WorkloadPopulation.from_workloads(frame, benchmarks=["a", "b", "c"])
    assert list(pop) == frame
    assert isinstance(pop.code_matrix, CodeMatrix)
    assert pop.code_matrix.workloads() == frame
    assert not pop.is_exhaustive
    assert pop.benchmark_occurrences() == {"a": 1, "b": 3, "c": 0}


def test_population_index_is_memoised_and_zero_copy():
    pop = WorkloadPopulation(["a", "b", "c"], 2)
    index = pop.index
    assert index is pop.index
    assert index.codes is pop.code_matrix.codes
    assert len(index) == len(pop)
