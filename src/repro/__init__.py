"""repro: benchmark-combination selection for multicore throughput.

A full reproduction of Velasquez, Michaud & Seznec, "Selecting
Benchmark Combinations for the Evaluation of Multicore Throughput"
(ISPASS 2013), as a reusable library:

- ``repro.api`` -- the public face: the :class:`Session` facade, the
  pluggable simulator-backend registry (``detailed`` / ``badco`` /
  ``interval``), frozen :class:`CampaignConfig` campaign identities and
  the serial/parallel campaign engine.
- ``repro.core`` -- the paper's contribution: throughput metrics, the
  CLT confidence model (W = 8 cv^2), four workload-sampling methods
  (random, balanced random, benchmark stratification, workload
  stratification) and the Section VII practical guideline.
- ``repro.bench`` -- a synthetic 22-benchmark SPEC CPU2006 stand-in
  suite with deterministic trace generation.
- ``repro.cpu`` / ``repro.mem`` -- the detailed out-of-order core model
  and the memory hierarchy (caches, LRU/RND/FIFO/DIP/DRRIP replacement,
  prefetchers, TLBs, DRAM, shared uncore).
- ``repro.sim`` -- the three simulator families behind the backends.
- ``repro.experiments`` -- one driver per table / figure of the paper.

Quickstart::

    from repro import Session

    session = Session(scale="small", seed=0, jobs=4)
    study = session.study("LRU", "DIP", metric="IPCT", cores=2,
                          backend="badco")
    print(study.inverse_cv, study.guideline())
"""

from repro.core import (
    BalancedRandomSampling,
    BenchmarkStratification,
    ConfidenceEstimator,
    DeltaColumn,
    DeltaVariable,
    GuidelineDecision,
    HSU,
    IPCT,
    IpcMatrix,
    METRICS,
    OverheadModel,
    PolicyComparisonStudy,
    SAMPLING_METHODS,
    SamplingMethod,
    SimpleRandomSampling,
    ThroughputMetric,
    WeightedSample,
    Workload,
    WorkloadIndex,
    WorkloadPopulation,
    WorkloadStratification,
    WSU,
    classify_benchmarks,
    confidence_from_cv,
    delta_statistics,
    metric_by_name,
    population_size,
    recommend_method,
    required_sample_size,
)
from repro.bench import SPEC_2006, BenchmarkSpec, MpkiClass, benchmark_names
from repro.mem import POLICY_NAMES
from repro.sim import (
    BadcoModelBuilder,
    BadcoSimulator,
    DetailedSimulator,
    IntervalProfileBuilder,
    IntervalSimulator,
    PopulationResults,
)
from repro.api import (
    BACKENDS,
    Campaign,
    CampaignConfig,
    CampaignTiming,
    Scale,
    Session,
    SimulatorBackend,
    UnknownBackendError,
    backend_names,
    get_backend,
    register_backend,
)
from repro.experiments import POLICY_PAIRS

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # api
    "Session", "Scale", "CampaignConfig", "Campaign", "CampaignTiming",
    "BACKENDS", "SimulatorBackend", "UnknownBackendError",
    "register_backend", "get_backend", "backend_names",
    # core
    "Workload", "WorkloadPopulation", "population_size",
    "WorkloadIndex", "IpcMatrix", "DeltaColumn",
    "ThroughputMetric", "IPCT", "WSU", "HSU", "METRICS", "metric_by_name",
    "DeltaVariable", "delta_statistics",
    "confidence_from_cv", "required_sample_size",
    "SamplingMethod", "WeightedSample", "SimpleRandomSampling",
    "BalancedRandomSampling", "BenchmarkStratification",
    "WorkloadStratification", "SAMPLING_METHODS",
    "ConfidenceEstimator", "classify_benchmarks",
    "GuidelineDecision", "OverheadModel", "recommend_method",
    "PolicyComparisonStudy",
    # bench
    "SPEC_2006", "BenchmarkSpec", "MpkiClass", "benchmark_names",
    # mem
    "POLICY_NAMES",
    # sim
    "DetailedSimulator", "BadcoSimulator", "BadcoModelBuilder",
    "IntervalSimulator", "IntervalProfileBuilder",
    "PopulationResults",
    # experiments
    "POLICY_PAIRS",
]
