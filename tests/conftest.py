"""Shared fixtures: tiny traces and populations sized for fast tests."""

import numpy as np
import pytest

from repro.bench.spec import benchmark_names
from repro.core.columnar import IpcMatrix
from repro.core.population import WorkloadPopulation
from repro.core.sampling import WorkloadStratification

#: Trace length used by simulation tests: big enough for pipelines and
#: caches to reach steady state, small enough to keep the suite fast.
TEST_TRACE_LENGTH = 3000


def ipc_matrix(index, table):
    """An :class:`IpcMatrix` over ``index`` from a workload -> per-core
    IPC list mapping (the tests' dict-shaped oracle inputs)."""
    return IpcMatrix(index, np.array([table[w] for w in index.workloads],
                                     dtype=np.float64))


@pytest.fixture(scope="session")
def suite_names():
    return benchmark_names()


@pytest.fixture(scope="session")
def small_population():
    """A 2-core population over 6 benchmarks: C(7, 2) = 21 workloads."""
    names = benchmark_names()[:4] + ["mcf", "libquantum"]
    return WorkloadPopulation(names, 2)


@pytest.fixture(scope="session")
def four_core_population():
    """A 4-core population over 5 benchmarks: C(8, 4) = 70 workloads."""
    names = ["povray", "gcc", "mcf", "libquantum", "hmmer"]
    return WorkloadPopulation(names, 4)


@pytest.fixture
def strata_cuts(monkeypatch):
    """Every stratifier ``WorkloadStratification.from_column`` builds,
    in order."""
    built = []
    from_column = WorkloadStratification.from_column

    def counted(delta, *args, **kwargs):
        built.append(from_column(delta, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(WorkloadStratification, "from_column", counted)
    return built
