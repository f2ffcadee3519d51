"""Performance harness for the hot paths (``repro bench``).

Five suites, written to the same ``BENCH_analytics.json`` trajectory:

- *analytics* (:func:`run_bench`) -- the statistics stack: Monte-Carlo
  confidence estimation and d(w) construction, legacy scalar vs
  columnar (NumPy) implementations, on a synthetic population;
- *sim* (:func:`run_sim_bench`) -- the simulation layer: per-backend
  panel-build time and MIPS for a (workloads x policies) grid, the
  event-driven ``badco`` loop against the ``analytic`` batch path,
  with model training and calibration costs recorded separately (they
  are one-off and shared, the way Section VII-A charges them);
- *pop* (:func:`run_pop_bench`) -- the population layer: vectorized
  enumeration and uniform sampling of the 8-core full population
  (4 292 145 workloads as one code matrix), and a model-store cold vs
  warm analytic campaign (the warm run loads every trained artefact
  from disk instead of training);
- *e2e* (:func:`run_e2e_bench`) -- the whole pipeline in one driver
  (:meth:`repro.api.Session.estimate_full_scale`): rank-sample the
  8-core population, score analytic panels through the batch engine,
  run stratified confidence estimation -- once against an empty model
  store (``e2e-8core-cold``: training included) and once against the
  store the first run filled (``e2e-8core-warm``: zero training runs).
  The suite then times :meth:`~repro.api.Session.estimate_two_stage`
  against the warm store (``e2e-two-stage``: analytic screen plus a
  budgeted badco refine, with the refine phase broken out as
  ``e2e-two-stage-refine``).  The sim suite likewise records one
  BADCO campaign grid on the engine's process pool at ``jobs`` 1, 2
  and 0 (``sim-batch-parallel-jobs1`` / ``-jobs2`` / ``-auto``,
  bit-identical panels; ``-auto`` is one worker per CPU -- the ratio
  is what process fan-out buys on the host), and one five-policy BADCO
  grid twice: per policy through ``run_batch``
  (``sim-policy-axis-loop``) and as one grid call whose rows run once
  until their LLC first fills a set (``sim-policy-axis-grid``; the
  ratio is what that shared prefix saves, on any host);
- *serve* (:func:`run_serve_bench`) -- the resident-state daemon
  (:mod:`repro.serve`): the same e2e frame answered by ``repro serve``
  over a Unix socket.  ``serve-query-cold`` is the daemon's first
  query (sessions, populations and panels built once, against a warm
  model store); ``serve-query-warm`` repeats it with everything
  resident and must be bit-identical to the one-shot driver;
  ``serve-oneshot-warm`` is that one-shot warm driver baseline (a
  fresh session per invocation, the CLI's cost model); and
  ``serve-concurrent`` is a burst of distinct-pair clients whose
  overlapping grids coalesce into fewer dispatches (request /
  dispatch-group / coalesced counters and the resident panel LRU hit
  rate ride along as record extras).

Results serialise as a list of records::

    {"name": ..., "seconds": ..., "draws": ..., "population_size": ...}

``draws`` is 0 for entries that are not Monte-Carlo loops.  Sim and
store records add ``"backend"`` and, for simulator runs, ``"mips"``.
The scalar/columnar pairing is by name suffix
(``estimator-random-scalar`` vs ``estimator-random-columnar``); the sim
panel pairing is ``sim-panel-badco`` vs ``sim-panel-analytic``, the
policy-axis one ``sim-policy-axis-loop`` vs ``sim-policy-axis-grid``; the
store pairing is ``pop-store-cold`` vs ``pop-store-warm``; the driver
pairing is ``e2e-8core-cold`` vs ``e2e-8core-warm``; the serve
pairings are ``serve-query-cold`` / ``serve-oneshot-warm`` (and,
cross-suite, ``e2e-8core-warm``) vs ``serve-query-warm``.

The analytics suite additionally records
``estimator-workload-strata-pairs-loop``/``-pairs`` (per-pair
estimator loop vs the fig6 pair-batched
:meth:`~repro.core.estimator.PairedConfidenceEstimator.pair_curves`).
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.spec import benchmark_names
from repro.core.columnar import IpcMatrix, delta_column_from_matrices
from repro.core.delta import DeltaVariable
from repro.core.estimator import ConfidenceEstimator, PairedConfidenceEstimator
from repro.core.metrics import WSU
from repro.core.population import WorkloadPopulation
from repro.core.sampling import (
    BenchmarkStratification,
    SimpleRandomSampling,
    WorkloadStratification,
)

#: The acceptance configuration: 1000 draws, samples of 30 workloads.
DEFAULT_DRAWS = 1000
DEFAULT_SAMPLE_SIZE = 30
DEFAULT_CORES = 4

#: Profiles: (cores, draws, population cap).  "full" is the reference
#: configuration recorded in BENCH_analytics.json; "smoke" is sized for
#: CI (a couple of seconds end to end).
PROFILES: Dict[str, Dict[str, int]] = {
    "full": {"cores": DEFAULT_CORES, "draws": DEFAULT_DRAWS,
             "max_population": 0},
    "smoke": {"cores": 2, "draws": 200, "max_population": 0},
}

#: Sim-suite profiles: grid sizes for the panel-build comparison.
#: ``benchmarks`` counts suite names (picked to span the three MPKI
#: classes), ``sample`` caps the slow event-driven backends' slice.
SIM_PROFILES: Dict[str, Dict[str, int]] = {
    "full": {"cores": 2, "trace_length": 16000, "benchmarks": 10,
             "max_population": 0, "sample": 4},
    "smoke": {"cores": 2, "trace_length": 3000, "benchmarks": 6,
              "max_population": 0, "sample": 2},
}

#: Policies exercised by the sim suite (one scan-resistant pair).
SIM_POLICIES = ("LRU", "DIP")

#: Rows of the sim suite's five-policy BADCO grid, at either profile.
SIM_AXIS_ROWS = 12

#: Pop-suite profiles.  ``cores``/``sample`` size the 8-core
#: enumeration / sampling measurements (the population is always the
#: full 22-benchmark suite); ``store_*`` size the model-store cold/warm
#: campaign (trace length and benchmark count dominate its cost).
POP_PROFILES: Dict[str, Dict[str, int]] = {
    "full": {"cores": 8, "sample": 10000, "store_benchmarks": 6,
             "store_cores": 2, "store_trace_length": 3000},
    "smoke": {"cores": 8, "sample": 2000, "store_benchmarks": 3,
              "store_cores": 2, "store_trace_length": 2000},
}


#: E2e-suite profiles: the driver's frame/draw sizes.  ``benchmarks``
#: is 0 for the full 22-name suite (the paper's 4 292 145-workload
#: 8-core population, rank-sampled down to ``sample``).
E2E_PROFILES: Dict[str, Dict[str, object]] = {
    "full": {"benchmarks": 0, "cores": 8, "sample": 10000,
             "draws": DEFAULT_DRAWS, "sizes": (DEFAULT_SAMPLE_SIZE,),
             "refine_budget": 40},
    "smoke": {"benchmarks": 6, "cores": 8, "sample": 1000,
              "draws": 200, "sizes": (20,), "refine_budget": 6},
}

#: Serve-suite profiles: the e2e frame, served by a resident daemon.
#: Sized exactly like E2E_PROFILES so ``serve-query-warm`` pairs
#: meaningfully against the one-shot warm driver records.
SERVE_PROFILES: Dict[str, Dict[str, object]] = {
    "full": {"benchmarks": 0, "cores": 8, "sample": 10000,
             "draws": DEFAULT_DRAWS, "sizes": (DEFAULT_SAMPLE_SIZE,)},
    "smoke": {"benchmarks": 6, "cores": 8, "sample": 1000,
              "draws": 200, "sizes": (20,)},
}

#: The concurrent-burst policy pairs (distinct from the warm query's
#: LRU/DIP so the burst needs genuinely new panels to coalesce).
SERVE_BURST_PAIRS = (("LRU", "NRU"), ("LRU", "SRRIP"),
                     ("NRU", "DIP"), ("SRRIP", "SHIP"))


def _time(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds for one call."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(draws: int = DEFAULT_DRAWS,
              sample_size: int = DEFAULT_SAMPLE_SIZE,
              cores: int = DEFAULT_CORES,
              max_population: Optional[int] = None,
              seed: int = 0,
              repeat: int = 3) -> List[Dict[str, object]]:
    """Time the hot paths on a synthetic population.

    The population is combinatorial (the 22 synthetic SPEC benchmarks
    at ``cores``); IPC tables are synthetic as well -- the harness
    measures the *statistics* layer, not the simulators.

    Returns:
        Bench records (see module docstring), scalar and columnar
        variants side by side.
    """
    names = benchmark_names()
    population = WorkloadPopulation(names, cores, max_size=max_population,
                                    seed=seed)
    rng = random.Random(seed)
    ipcs_x = {w: [0.4 + rng.random() for _ in range(w.k)]
              for w in population}
    ipcs_y = {w: [0.4 + rng.random() for _ in range(w.k)]
              for w in population}
    reference = {b: 0.7 + rng.random() for b in names}
    variable = DeltaVariable(WSU, reference)
    index = population.index

    records: List[Dict[str, object]] = []

    def record(name: str, seconds: float, mc_draws: int) -> None:
        records.append({
            "name": name,
            "seconds": seconds,
            "draws": mc_draws,
            "population_size": len(population),
        })

    # --- d(w) construction: per-workload loop vs one array expression
    # over IPC matrices built from the same tables outside the timer.
    workloads = list(population)
    matrix_x = IpcMatrix(index, [ipcs_x[w] for w in index.workloads])
    matrix_y = IpcMatrix(index, [ipcs_y[w] for w in index.workloads])
    record("delta-wsu-scalar",
           _time(lambda: variable.table(workloads, ipcs_x, ipcs_y), repeat),
           0)
    record("delta-wsu-columnar",
           _time(lambda: delta_column_from_matrices(variable, matrix_x,
                                                    matrix_y), repeat),
           0)

    # --- Monte-Carlo confidence: the dominant wall-clock cost.
    delta = delta_column_from_matrices(variable, matrix_x, matrix_y)
    estimator = ConfidenceEstimator(population, delta, draws=draws)
    mapping = delta.as_mapping()

    labels = ("low", "mid", "high")
    classes = {b: labels[i % 3] for i, b in enumerate(names)}
    methods = [
        ("random", SimpleRandomSampling(), repeat),
        ("workload-strata",
         WorkloadStratification(mapping,
                                min_stratum=max(10, len(population) // 40)),
         repeat),
        # The scalar path re-derives the class strata from the whole
        # population on every draw, so this one is timed once.
        ("bench-strata", BenchmarkStratification(classes), 1),
    ]
    for label, method, tries in methods:
        record(f"estimator-{label}-scalar",
               _time(lambda m=method: estimator.confidence_scalar(
                   m, sample_size, seed=seed), tries),
               draws)
        record(f"estimator-{label}-columnar",
               _time(lambda m=method: estimator.confidence(
                   m, sample_size, seed=seed), tries),
               draws)

    # --- fig6-style pair batching: four policy pairs, one shared row
    # gather (pair_curves) against the per-pair estimator loop.
    from repro.core.columnar import DeltaColumn

    gen = np.random.default_rng(seed)
    pair_deltas = {
        f"pair{p}": DeltaColumn(
            index, delta.values + gen.normal(0.0, 0.05, len(population)))
        for p in range(4)}
    stratifiers = {
        key: WorkloadStratification.from_column(
            column, min_stratum=max(10, len(population) // 40))
        for key, column in pair_deltas.items()}
    paired = PairedConfidenceEstimator(population, pair_deltas, draws=draws)

    def pair_loop() -> None:
        for key, column in pair_deltas.items():
            ConfidenceEstimator(population, column, draws=draws).curve(
                stratifiers[key], (sample_size,), seed=seed)

    record("estimator-workload-strata-pairs-loop", _time(pair_loop, repeat),
           draws)
    record("estimator-workload-strata-pairs",
           _time(lambda: paired.pair_curves(
               stratifiers, (sample_size,), seed=seed), repeat),
           draws)
    return records


def _pick_sim_benchmarks(count: int) -> List[str]:
    """A class-balanced benchmark subset for the sim grid."""
    from repro.bench.spec import SPEC_2006, MpkiClass

    by_class = {cls: [s.name for s in SPEC_2006 if s.mpki_class is cls]
                for cls in MpkiClass}
    count = min(count, len(SPEC_2006))
    picked: List[str] = []
    position = 0
    while len(picked) < count:
        for cls in (MpkiClass.LOW, MpkiClass.MEDIUM, MpkiClass.HIGH):
            names = by_class[cls]
            if position < len(names) and len(picked) < count:
                picked.append(names[position])
        position += 1
    return sorted(picked)


def run_sim_bench(profile: str = "smoke",
                  seed: int = 0) -> List[Dict[str, object]]:
    """Time the simulation layer: event-driven loop vs analytic batch.

    Builds the same (population x SIM_POLICIES) panel on the ``badco``
    and ``analytic`` backends (training shared, calibration timed
    separately) and measures single-workload MIPS for the ``detailed``
    and ``interval`` backends on a small slice.

    Returns:
        Bench records; ``sim-panel-badco`` / ``sim-panel-analytic``
        carry the headline panel-build seconds.
    """
    from repro.api import Campaign, CampaignConfig
    from repro.sim.analytic import AnalyticModelBuilder

    parameters = SIM_PROFILES[profile]
    cores = parameters["cores"]
    trace_length = parameters["trace_length"]
    names = _pick_sim_benchmarks(parameters["benchmarks"])
    population = WorkloadPopulation(
        names, cores, max_size=parameters["max_population"] or None,
        seed=seed)
    workloads = list(population)
    policies = list(SIM_POLICIES)

    records: List[Dict[str, object]] = []

    def record(name: str, backend: str, seconds: float,
               mips: Optional[float] = None) -> None:
        entry: Dict[str, object] = {
            "name": name,
            "seconds": seconds,
            "draws": 0,
            "population_size": len(population),
            "backend": backend,
        }
        if mips is not None:
            entry["mips"] = mips
        records.append(entry)

    # --- shared model training (both backends replay these models).
    from repro.sim.badco.model import BadcoModelBuilder

    badco_builder = BadcoModelBuilder(trace_length, seed)
    start = time.perf_counter()
    for name in names:
        badco_builder.build(name)
    record("sim-train-models", "badco", time.perf_counter() - start)

    # --- the event-driven badco grid: one Python loop per workload.
    config = CampaignConfig(backend="badco", cores=cores,
                            trace_length=trace_length, seed=seed)
    campaign = Campaign(config, builder=badco_builder)
    start = time.perf_counter()
    campaign.run_grid(population, policies)
    record("sim-panel-badco", "badco", time.perf_counter() - start,
           campaign.timing.mips)

    # --- the engine's process pool on the warm builder: one BADCO grid
    # at jobs=1, 2 and 0 (auto, one worker per CPU), no cache
    # (bit-equal panels; the ratio records what process fan-out buys --
    # about 1x on a single-core host, where it only pays fork overhead).
    grid_policies = list(SIM_POLICIES[1:])
    panels = {}
    for label, jobs in (("jobs1", 1), ("jobs2", 2), ("auto", 0)):
        config = CampaignConfig(backend="badco", cores=cores,
                                trace_length=trace_length, seed=seed,
                                jobs=jobs)
        campaign = Campaign(config, builder=badco_builder)
        start = time.perf_counter()
        campaign.run_grid(population, grid_policies)
        seconds = time.perf_counter() - start
        record(f"sim-batch-parallel-{label}", "badco", seconds,
               campaign.timing.instructions / seconds / 1e6)
        _, matrices = campaign.results.columnar_panel(grid_policies,
                                                      population)
        panels[label] = matrices[grid_policies[0]].values
    assert np.array_equal(panels["jobs1"], panels["jobs2"]), \
        "the jobs=2 engine grid diverged from jobs=1"
    assert np.array_equal(panels["jobs1"], panels["auto"]), \
        "the auto-sized engine grid diverged from jobs=1"

    # --- the policy axis: the paper's five policies over a slice of the
    # population, per policy through run_batch and as one grid call
    # (bit-equal panels; each row runs once until its LLC first fills
    # a set, then forks per policy).
    from repro.mem.replacement import POLICY_NAMES
    from repro.sim.badco import BadcoSimulator

    rows = workloads[:SIM_AXIS_ROWS]
    simulators = [BadcoSimulator(cores, policy, builder=badco_builder,
                                 trace_length=trace_length, seed=seed)
                  for policy in POLICY_NAMES]
    start = time.perf_counter()
    loop = [simulator.run_batch(rows) for simulator in simulators]
    seconds = time.perf_counter() - start
    record("sim-policy-axis-loop", "badco", seconds,
           sum(run.instructions for run in loop) / seconds / 1e6)
    start = time.perf_counter()
    grid = simulators[0].run_batch(rows, POLICY_NAMES)
    seconds = time.perf_counter() - start
    record("sim-policy-axis-grid", "badco", seconds,
           grid.instructions / seconds / 1e6)
    assert all(np.array_equal(grid.ipcs[:, column, :], run.ipcs)
               for column, run in enumerate(loop)), \
        "the five-policy grid diverged from its per-policy batches"

    # --- the analytic batch path: calibration, then one array call.
    analytic_builder = AnalyticModelBuilder(trace_length, seed,
                                            badco_builder=badco_builder)
    start = time.perf_counter()
    analytic_builder.prepare(names, policies, cores)
    record("sim-calibrate-analytic", "analytic",
           time.perf_counter() - start)
    config = CampaignConfig(backend="analytic", cores=cores,
                            trace_length=trace_length, seed=seed)
    campaign = Campaign(config, builder=analytic_builder)
    start = time.perf_counter()
    campaign.run_grid(population, policies)
    record("sim-panel-analytic", "analytic", time.perf_counter() - start,
           campaign.timing.mips)

    # --- MIPS of the slow event-driven backends on a small slice.
    sample = workloads[:parameters["sample"]]
    for backend in ("detailed", "interval"):
        config = CampaignConfig(backend=backend, cores=cores,
                                trace_length=trace_length, seed=seed)
        campaign = Campaign(config)
        start = time.perf_counter()
        campaign.run_grid(sample, policies[:1])
        record(f"sim-workloads-{backend}", backend,
               time.perf_counter() - start, campaign.timing.mips)
    return records


def run_pop_bench(profile: str = "smoke",
                  seed: int = 0) -> List[Dict[str, object]]:
    """Time the population layer: enumeration, sampling, model store.

    Enumerates the 8-core full population (4 292 145 workloads) as one
    code matrix, draws a uniform sample of it through the population's
    unrank path, and runs the same analytic campaign twice against a
    fresh model store -- cold (training everything) and warm (loading
    every trained artefact from disk).

    Returns:
        Bench records; ``pop-enumerate-8core`` / ``pop-sample-8core``
        carry the population-scale seconds, ``pop-store-cold`` vs
        ``pop-store-warm`` the persistence win.
    """
    from repro.api import Campaign, CampaignConfig
    from repro.core.codematrix import CodeMatrix
    from repro.core.population import population_size

    parameters = POP_PROFILES[profile]
    names = benchmark_names()
    cores = parameters["cores"]
    total = population_size(len(names), cores)
    records: List[Dict[str, object]] = []

    def record(name: str, seconds: float, population: int,
               backend: Optional[str] = None) -> None:
        entry: Dict[str, object] = {
            "name": name,
            "seconds": seconds,
            "draws": 0,
            "population_size": population,
        }
        if backend is not None:
            entry["backend"] = backend
        records.append(entry)

    start = time.perf_counter()
    matrix = CodeMatrix.full(names, cores)
    record(f"pop-enumerate-{cores}core", time.perf_counter() - start, total)
    assert len(matrix) == total
    del matrix

    start = time.perf_counter()
    sampled = WorkloadPopulation(names, cores,
                                 max_size=parameters["sample"], seed=seed)
    record(f"pop-sample-{cores}core", time.perf_counter() - start,
           len(sampled))

    grid_names = _pick_sim_benchmarks(parameters["store_benchmarks"])
    grid_population = WorkloadPopulation(grid_names,
                                         parameters["store_cores"])
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "models"
        config = CampaignConfig(
            backend="analytic", cores=parameters["store_cores"],
            trace_length=parameters["store_trace_length"], seed=seed,
            model_store_dir=store_dir)
        for label in ("cold", "warm"):
            campaign = Campaign(config)    # fresh builder each time
            start = time.perf_counter()
            campaign.run_grid(grid_population, list(SIM_POLICIES))
            campaign.reference_ipcs(grid_names)
            record(f"pop-store-{label}", time.perf_counter() - start,
                   len(grid_population), backend="analytic")
    return records


def run_e2e_bench(profile: str = "smoke",
                  seed: int = 0) -> List[Dict[str, object]]:
    """Time the full-scale driver end to end, cold vs warm store.

    Runs :meth:`repro.api.Session.estimate_full_scale` twice against
    one model store: the cold run trains/calibrates everything, the
    warm run (a fresh session and a fresh campaign cache, so panels
    are re-scored rather than loaded) performs zero training runs.
    Phase seconds of the warm run are recorded separately.

    Returns:
        Bench records; ``e2e-8core-cold`` vs ``e2e-8core-warm`` carry
        the pipeline totals, ``e2e-8core-panels`` /
        ``e2e-8core-confidence`` the warm run's dominant phases.
    """
    from repro.api import Session

    parameters = E2E_PROFILES[profile]
    count = int(parameters["benchmarks"])  # type: ignore[arg-type]
    names = _pick_sim_benchmarks(count) if count else benchmark_names()
    cores = int(parameters["cores"])  # type: ignore[arg-type]
    records: List[Dict[str, object]] = []

    def record(name: str, seconds: float, population: int,
               draws: int = 0, backend: str = "analytic") -> None:
        records.append({
            "name": name, "seconds": seconds, "draws": draws,
            "population_size": population, "backend": backend,
        })

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "models"
        for label in ("cold", "warm"):
            session = Session(
                "small", seed=seed, benchmarks=names,
                cache_dir=Path(tmp) / f"cache-{label}",
                model_store_dir=store)
            start = time.perf_counter()
            estimate = session.estimate_full_scale(
                "LRU", "DIP", cores=cores,
                sample=int(parameters["sample"]),  # type: ignore[arg-type]
                draws=int(parameters["draws"]),  # type: ignore[arg-type]
                sample_sizes=tuple(parameters["sizes"]))  # type: ignore
            record(f"e2e-{cores}core-{label}",
                   time.perf_counter() - start,
                   estimate.population_size, estimate.draws)
            if label == "warm":
                assert estimate.training_runs == 0, \
                    "warm driver run retrained models"
                for phase in ("panels", "confidence"):
                    record(f"e2e-{cores}core-{phase}",
                           estimate.timings[phase],
                           estimate.population_size,
                           estimate.draws if phase == "confidence" else 0)

        # --- the two-stage driver against the warm store: analytic
        # screen over the whole frame plus a budgeted badco refine
        # (the refine phase is the budget's marginal cost).
        session = Session("small", seed=seed, benchmarks=names,
                          cache_dir=Path(tmp) / "cache-two-stage",
                          model_store_dir=store)
        budget = int(parameters["refine_budget"])  # type: ignore[arg-type]
        start = time.perf_counter()
        two_stage = session.estimate_two_stage(
            "LRU", "DIP", cores=cores,
            sample=int(parameters["sample"]),  # type: ignore[arg-type]
            draws=int(parameters["draws"]),  # type: ignore[arg-type]
            sample_sizes=tuple(parameters["sizes"]),  # type: ignore
            refine_backend="badco", refine_budget=budget)
        record("e2e-two-stage", time.perf_counter() - start,
               two_stage.population_size, two_stage.draws)
        record("e2e-two-stage-refine", two_stage.timings["refine"],
               two_stage.refined, backend="badco")
    return records


def run_serve_bench(profile: str = "smoke",
                    seed: int = 0) -> List[Dict[str, object]]:
    """Time the resident-state daemon against the one-shot driver.

    Primes a model store, times the one-shot warm driver
    (``serve-oneshot-warm``: a fresh session per invocation, the CLI's
    cost model), then starts a :class:`~repro.serve.server.ReproServer`
    on a Unix socket over the same store and times the served path:
    the daemon's first query (``serve-query-cold``), the fully
    resident repeat (``serve-query-warm``, asserted bit-identical to
    the one-shot estimate), and a burst of concurrent distinct-pair
    clients (``serve-concurrent``) whose overlapping grids must
    coalesce into fewer dispatches than requests.

    Returns:
        Bench records; ``serve-oneshot-warm`` vs ``serve-query-warm``
        carries the headline serving win, and the concurrent record's
        ``dispatch_groups`` / ``coalesced`` extras plus the warm
        record's ``hit_rate`` document the scheduler and LRU at work.
    """
    import dataclasses
    from concurrent.futures import ThreadPoolExecutor

    from repro.api import Session
    from repro.serve import ReproClient, ReproServer, ResidentState

    parameters = SERVE_PROFILES[profile]
    count = int(parameters["benchmarks"])  # type: ignore[arg-type]
    names = _pick_sim_benchmarks(count) if count else benchmark_names()
    cores = int(parameters["cores"])  # type: ignore[arg-type]
    sample = int(parameters["sample"])  # type: ignore[arg-type]
    draws = int(parameters["draws"])  # type: ignore[arg-type]
    sizes = tuple(parameters["sizes"])  # type: ignore[arg-type]
    records: List[Dict[str, object]] = []

    def record(name: str, seconds: float, population: int,
               mc_draws: int = 0, **extras: object) -> None:
        entry: Dict[str, object] = {
            "name": name, "seconds": seconds, "draws": mc_draws,
            "population_size": population, "backend": "analytic",
        }
        entry.update(extras)
        records.append(entry)

    query = dict(baseline="LRU", candidate="DIP", scale="small",
                 seed=seed, benchmarks=list(names), cores=cores,
                 sample=sample, draws=draws, sample_sizes=list(sizes))

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "models"
        # Prime the model store once; training cost is the pop/e2e
        # suites' story, not this one's.
        Session("small", seed=seed, benchmarks=names,
                cache_dir=Path(tmp) / "cache-prime",
                model_store_dir=store).estimate_full_scale(
            "LRU", "DIP", cores=cores, sample=sample, draws=draws,
            sample_sizes=sizes)

        # The one-shot baseline: what every CLI invocation pays even
        # with a warm store (fresh session, fresh campaign cache).
        start = time.perf_counter()
        oneshot = Session(
            "small", seed=seed, benchmarks=names,
            cache_dir=Path(tmp) / "cache-oneshot",
            model_store_dir=store).estimate_full_scale(
            "LRU", "DIP", cores=cores, sample=sample, draws=draws,
            sample_sizes=sizes)
        record("serve-oneshot-warm", time.perf_counter() - start,
               oneshot.population_size, oneshot.draws)
        assert oneshot.training_runs == 0, \
            "one-shot warm baseline retrained models"

        state = ResidentState(cache_dir=Path(tmp) / "cache-serve",
                              model_store_dir=store)
        with ReproServer(state, socket_path=Path(tmp) / "serve.sock") \
                as server, ReproClient(server.address) as client:
            start = time.perf_counter()
            served = client.estimate(**query)
            record("serve-query-cold", time.perf_counter() - start,
                   served.population_size, served.draws)

            warm_seconds = _time(lambda: client.estimate(**query),
                                 repeat=5)
            warm = client.estimate(**query)
            mine = dataclasses.asdict(oneshot)
            theirs = dataclasses.asdict(warm)
            mine.pop("timings")
            theirs.pop("timings")
            assert mine == theirs, \
                "served warm estimate diverged from the one-shot driver"

            # The concurrent burst: distinct pairs over one population
            # universe, one client connection each.
            before = client.stats()["scheduler"]

            def burst(pair):
                with ReproClient(server.address) as worker:
                    return worker.estimate(
                        **{**query, "baseline": pair[0],
                           "candidate": pair[1]})

            start = time.perf_counter()
            with ThreadPoolExecutor(
                    max_workers=len(SERVE_BURST_PAIRS)) as pool:
                burst_estimates = list(pool.map(burst, SERVE_BURST_PAIRS))
            burst_seconds = time.perf_counter() - start
            assert all(e.training_runs == 0 for e in burst_estimates)
            counters = client.stats()["scheduler"]
            groups = (counters["dispatch_groups"]
                      - before["dispatch_groups"])
            coalesced = counters["coalesced"] - before["coalesced"]

            # A same-universe query from a different session (the
            # benchmarks in another order: a new session key, the same
            # campaign signature) exercises the resident panel LRU's
            # hit path.
            client.estimate(**{**query, "benchmarks": names[::-1]})

            panel = client.stats()["panel_cache"]
            lookups = panel["hits"] + panel["misses"]
            record("serve-query-warm", warm_seconds,
                   warm.population_size, warm.draws,
                   hit_rate=(panel["hits"] / lookups if lookups else 0.0))
            record("serve-concurrent", burst_seconds,
                   served.population_size, served.draws,
                   requests=len(SERVE_BURST_PAIRS),
                   dispatch_groups=groups, coalesced=coalesced)
    return records


def speedups(records: List[Dict[str, object]]) -> Dict[str, float]:
    """Wall-clock ratios: scalar/columnar pairs plus the paired suites."""
    by_name = {str(r["name"]): float(r["seconds"]) for r in records}
    ratios: Dict[str, float] = {}
    for name, seconds in by_name.items():
        if not name.endswith("-scalar"):
            continue
        stem = name[:-len("-scalar")]
        columnar = by_name.get(stem + "-columnar")
        if columnar:
            ratios[stem] = seconds / columnar
    for stem, slow, fast in (("sim-panel", "sim-panel-badco",
                              "sim-panel-analytic"),
                             ("sim-batch-parallel",
                              "sim-batch-parallel-jobs1",
                              "sim-batch-parallel-jobs2"),
                             ("sim-policy-axis", "sim-policy-axis-loop",
                              "sim-policy-axis-grid"),
                             ("pop-store", "pop-store-cold",
                              "pop-store-warm"),
                             ("e2e-8core", "e2e-8core-cold",
                              "e2e-8core-warm"),
                             ("estimator-workload-strata-pairs",
                              "estimator-workload-strata-pairs-loop",
                              "estimator-workload-strata-pairs"),
                             ("serve-query", "serve-query-cold",
                              "serve-query-warm"),
                             ("serve-oneshot", "serve-oneshot-warm",
                              "serve-query-warm"),
                             ("serve-vs-oneshot", "e2e-8core-warm",
                              "serve-query-warm")):
        numerator = by_name.get(slow)
        denominator = by_name.get(fast)
        if numerator and denominator:
            ratios[stem] = numerator / denominator
    return ratios


def write_bench(path: Path, records: List[Dict[str, object]],
                profile: Optional[str] = None) -> None:
    """Persist a bench run as a schema-2 trajectory envelope.

    Records gain their ``suite`` and the run's ``profile`` at write
    time, and the envelope carries the machine context plus the
    derived speedup ratios (see :mod:`repro.report.records`; the
    loader still accepts the historical bare-list shape).
    """
    # Imported lazily: repro.report imports this module for speedups().
    from repro.report.records import bench_run, save_bench

    save_bench(path, bench_run(records, profile=profile))
