"""The fluent entry point: one object from scale to verdict.

:class:`Session` owns everything a study needs -- populations, shared
model builders, simulation campaigns, the on-disk cache -- and exposes
the paper's workflow as one call chain::

    from repro.api import Session

    study = Session(scale="small", seed=0).study(
        "LRU", "DIP", metric="IPCT", cores=2, backend="badco")
    print(study.inverse_cv, study.guideline())

Campaigns are memoised per (backend, cores) and shared with everything
else the session produces, so asking for a study, then the raw results,
then a second metric never re-simulates.  ``jobs>1`` runs campaign
grids on a process pool (bit-identical results, see
:mod:`repro.api.engine`).

The two estimators share one staged pipeline: a panels-and-d(w) stage
(memoised per full frame) and a confidence stage.
:meth:`Session.estimate_two_stage`'s screen *is* that pipeline, so it
replays the d(w) of an earlier :meth:`Session.estimate_full_scale` on
the same frame.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.backends import get_backend
from repro.api.config import CampaignConfig
from repro.api.engine import Campaign
from repro.api.scales import (
    Scale,
    ScaleLike,
    ScaleParameters,
    coerce_scale,
    default_cache_dir,
    default_model_store_dir,
    scale_parameters,
)
from repro.bench.spec import benchmark_names
from repro.core.metrics import ThroughputMetric, metric_by_name
from repro.core.population import WorkloadPopulation
from repro.core.study import PolicyComparisonStudy
from repro.core.workload import Workload
from repro.heap import retain_freed_heap
from repro.mem.replacement import POLICY_NAMES, validate_policy_name
from repro.sim.results import PopulationResults

MetricLike = Union[str, ThroughputMetric]

#: Confidence-curve sample sizes W of both estimators by default.
DEFAULT_SAMPLE_SIZES = (10, 30, 100)

#: Core count K of both estimators by default (the paper's full scale).
DEFAULT_CORES = 8


def _metric(metric: MetricLike) -> ThroughputMetric:
    return metric_by_name(metric) if isinstance(metric, str) else metric


@dataclass(frozen=True)
class _DeltaStage:
    """What :meth:`Session._delta_stage` hands the estimators."""

    population: WorkloadPopulation
    delta: Any                  # DeltaColumn over the staged rows
    statistics: Any             # its DeltaStatistics
    training_runs: int          # builder runs the panels cost
    seconds: Tuple[float, float, float]   # population, panels, delta


@dataclass(frozen=True)
class FullScaleEstimate:
    """Outcome of one end-to-end full-scale estimation run.

    The driver's report card: what was compared, on how large a
    population frame (enumerated or rank-sampled from the true
    combinatorial population), the population verdict (1/cv), the
    Monte-Carlo confidence per sampling method and sample size, plus
    the accounting that shows the pipeline's cost profile -- phase
    wall-clock seconds and how many training/calibration runs the
    campaign actually performed (zero against a warm model store).

    Attributes:
        baseline / candidate: the compared LLC policies (X and Y).
        metric: throughput-metric name (d(w) is built from it).
        backend: simulator backend that scored the panels.
        cores: K, the machine's core count.
        population_size: workloads actually scored (the frame).
        true_population_size: C(B + K - 1, K) of the full population.
        sampled: whether the frame is a distinct-rank sample of the
            full population rather than the exhaustive enumeration.
        draws: Monte-Carlo resamples per (method, size) point.
        num_strata: workload strata built from the d(w) column.
        inverse_cv: 1/cv of d(w) over the frame (the Fig. 4/5 bar).
        sample_sizes: the W values of the confidence curves.
        confidence: per sampling-method confidence curve values.
        training_runs: BADCO trainings + calibration anchors
            performed during this call (0 == fully warm store).
        timings: wall-clock seconds per phase ("population",
            "panels", "delta", "confidence").
    """

    baseline: str
    candidate: str
    metric: str
    backend: str
    cores: int
    population_size: int
    true_population_size: int
    sampled: bool
    draws: int
    num_strata: int
    inverse_cv: float
    sample_sizes: Tuple[int, ...]
    confidence: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    training_runs: int = 0
    timings: Dict[str, float] = field(default_factory=dict)

    def _frame(self) -> str:
        return "  population frame: " + (
            f"{self.population_size} of {self.true_population_size} "
            f"workloads (rank-sampled)" if self.sampled
            else f"all {self.population_size} workloads")

    def _curve_lines(self, confidence: Dict[str, Tuple[float, ...]],
                     indent: str) -> List[str]:
        lines = [f"{indent}{'W':>6}  " + "  ".join(
            f"{name:>16}" for name in confidence)]
        for i, size in enumerate(self.sample_sizes):
            lines.append(f"{indent}{size:6d}  " + "  ".join(
                f"{series[i]:16.3f}" for series in confidence.values()))
        return lines

    def _phases(self) -> str:
        return "  phase seconds: " + ", ".join(
            f"{phase} {seconds:.2f}"
            for phase, seconds in self.timings.items())

    @staticmethod
    def _runs(runs: int) -> str:
        return f"{runs}" + ("  (warm model store)" if runs == 0 else "")

    def rows(self) -> List[str]:
        """Printable report (used by ``repro estimate``)."""
        lines = [
            f"{self.candidate} vs {self.baseline} ({self.metric}, "
            f"{self.cores} cores, {self.backend} backend)",
            self._frame(),
            f"  1/cv = {self.inverse_cv:+.3f}   "
            f"(strata: {self.num_strata}, draws: {self.draws})",
            "  training/calibration runs this call: "
            + self._runs(self.training_runs),
            *self._curve_lines(self.confidence, "  "),
            self._phases(),
        ]
        if self.inverse_cv == 0.0 and self.num_strata == 1:
            lines.append(
                "  note: d(w) is identically zero -- this backend cannot "
                "separate the pair at this scale (scaled traces never "
                "stress the large multi-core LLC; see the README's "
                "analytic-accuracy caveat).  The pipeline itself ran end "
                "to end; use an event-driven backend or longer traces "
                "for a verdict.")
        return lines


@dataclass(frozen=True)
class TwoStageEstimate(FullScaleEstimate):
    """Outcome of one two-stage (screen + refine) estimation run.

    The inherited :class:`FullScaleEstimate` fields describe the FINAL
    estimate: ``inverse_cv`` and ``confidence`` are computed over the
    spliced d(w) column (screened values with the refined rows patched
    in), ``backend`` is the screening backend that scored the full
    panel, and ``training_runs`` counts the screening phase only.  The
    extra fields carry the refine stage and the screen-vs-refine
    disagreement accounting.

    Attributes:
        refine_backend: event-driven backend that re-scored the
            selected rows.
        refine_budget: rows requested for refinement.
        refined: rows actually refined (budget clamped to the frame).
        floor_allocated: d(w) == 0 cells forced into the budget so the
            screen cannot hide no-signal regions from refinement.
        screen_inverse_cv: 1/cv of the screening-stage d(w).
        screen_confidence: stage-1 confidence curves (same methods and
            sample sizes as the final ``confidence``).
        refine_training_runs: trainings/calibrations the refine
            backend performed (0 == fully warm store).
        max_shift / mean_shift: max and mean |refined - screened| over
            the refined rows.
        sign_flips: refined rows whose d(w) changed sign (including to
            or from zero) -- the rows where the screen's verdict was
            wrong, not merely imprecise.
    """

    refine_backend: str = ""
    refine_budget: int = 0
    refined: int = 0
    floor_allocated: int = 0
    screen_inverse_cv: float = 0.0
    screen_confidence: Dict[str, Tuple[float, ...]] = \
        field(default_factory=dict)
    refine_training_runs: int = 0
    max_shift: float = 0.0
    mean_shift: float = 0.0
    sign_flips: int = 0

    def rows(self) -> List[str]:
        """Printable two-stage report (used by ``repro estimate``)."""
        lines = [
            f"{self.candidate} vs {self.baseline} ({self.metric}, "
            f"{self.cores} cores, two-stage: {self.backend} screen -> "
            f"{self.refine_backend} refine)",
            self._frame(),
            f"  stage 1 (screen, {self.backend}):",
            f"    1/cv = {self.screen_inverse_cv:+.3f}   "
            f"(draws: {self.draws})",
            "    training/calibration runs: "
            + self._runs(self.training_runs),
        ]
        lines.extend(self._curve_lines(self.screen_confidence, "    "))
        lines.extend([
            f"  stage 2 (refine, {self.refine_backend}):",
            f"    refined {self.refined} of {self.population_size} rows "
            f"(budget {self.refine_budget}, "
            f"{self.floor_allocated} no-signal floor cells)",
            "    training/calibration runs: "
            + self._runs(self.refine_training_runs),
            f"    refined-vs-screened d(w): max shift "
            f"{self.max_shift:.4g}, mean shift {self.mean_shift:.4g}, "
            f"sign flips {self.sign_flips}",
            "  final (spliced) estimate:",
            f"    1/cv = {self.inverse_cv:+.3f}   "
            f"(strata: {self.num_strata}, draws: {self.draws})",
        ])
        lines.extend(self._curve_lines(self.confidence, "    "))
        lines.append(self._phases())
        return lines


class Session:
    """Owns populations, builders and campaigns for one configuration.

    Args:
        scale: experiment size (:class:`Scale` or its name).
        seed: global seed (traces, populations, resampling).
        jobs: worker processes for campaign grids (1 = serial).
        backend: default simulator backend for studies and results.
        cache_dir: on-disk campaign cache; defaults per
            :func:`repro.api.scales.default_cache_dir`.
        model_store_dir: persistent trained-model store (see
            :mod:`repro.sim.modelstore`); defaults per
            :func:`repro.api.scales.default_model_store_dir` (a
            ``models/`` subdirectory of the cache), an empty string
            disables it.
        benchmarks: benchmark suite (default: the 22 SPEC stand-ins).
        panel_cache: optional resident panel cache (see
            :class:`repro.serve.ResidentPanelCache`) threaded into the
            session's campaigns, so npz cache loads are LRU'd and
            shared across sessions.  ``None`` (the default, and the
            one-shot CLI path) keeps per-campaign loads.

    Constructing a session applies the process-wide heap policy of
    :func:`repro.heap.retain_freed_heap` (glibc only, once per
    process, no switch): freed NumPy temporaries stay in the heap, so a
    repeat estimate reuses its pages instead of faulting fresh ones.
    The cost is that RSS stays near its high-water mark between
    estimates; the high-water mark itself does not grow.
    """

    def __init__(self, scale: ScaleLike = Scale.MEDIUM, *, seed: int = 0,
                 jobs: int = 1, backend: str = "badco",
                 cache_dir: Optional[Path] = None,
                 model_store_dir: Optional[Union[str, Path]] = None,
                 benchmarks: Optional[Sequence[str]] = None,
                 panel_cache: Optional[Any] = None) -> None:
        retain_freed_heap()
        self.scale = coerce_scale(scale)
        self.parameters: ScaleParameters = scale_parameters(self.scale)
        self.seed = seed
        self.jobs = jobs
        self.backend = get_backend(backend).name
        self.cache_dir = (cache_dir if cache_dir is not None
                          else default_cache_dir())
        if model_store_dir is None:
            self.model_store_dir = default_model_store_dir(self.cache_dir)
        elif str(model_store_dir) == "":
            self.model_store_dir = None
        else:
            self.model_store_dir = Path(model_store_dir)
        self.benchmarks = list(benchmarks or benchmark_names())
        self.policies = list(POLICY_NAMES)
        self.panel_cache = panel_cache
        self._populations: Dict[Tuple[int, Optional[int]],
                                WorkloadPopulation] = {}
        self._builders: Dict[Tuple[str, int], Any] = {}
        self._campaigns: Dict[Tuple[str, int], Campaign] = {}
        # Whole-frame d(w) memo of both estimators: (backend, cores,
        # sample, baseline, candidate, metric) -> (DeltaColumn, stats).
        # Panels are append-only and reference IPCs cached, so the
        # column is a pure function of the key; one entry costs one
        # float64 column (~80 KB at the paper's 10 000-row frame).
        self._delta_memo: Dict[Tuple[Any, ...], Tuple[Any, Any]] = {}

    # ------------------------------------------------------------------
    # Building blocks

    def population(self, cores: int = 2,
                   sample: Optional[int] = None) -> WorkloadPopulation:
        """The (possibly capped) workload population for a core count.

        Args:
            cores: number of cores K.
            sample: override the frame size (None = the scale's cap).
                Memoised per ``(cores, sample)``, so repeat estimates
                with an explicit frame size (the serve daemon's common
                case) never re-enumerate or re-rank-sample.

        Raises:
            ValueError: ``sample`` is None and the scale has no cap for
                ``cores``.
        """
        pop = self._populations.get((cores, sample))
        if pop is None:
            caps = self.parameters.population_cap
            if sample is None and cores not in caps:
                raise ValueError(
                    f"scale {self.scale.value!r} has a population cap "
                    f"only for {', '.join(map(str, sorted(caps)))} "
                    f"cores, not {cores}; pass sample=N to set the "
                    f"frame size")
            cap = sample if sample is not None else caps[cores]
            pop = WorkloadPopulation(self.benchmarks, cores,
                                     max_size=cap, seed=self.seed)
            self._populations[(cores, sample)] = pop
        return pop

    def detailed_sample(self, cores: int = 2) -> List[Workload]:
        """The paper's "250 randomly selected workloads" (scaled).

        Drawn uniformly from the population without replacement, with a
        seed independent of the population's own.
        """
        population = self.population(cores)
        count = min(self.parameters.detailed_sample, len(population))
        rng = random.Random((self.seed << 8) ^ cores)
        return sorted(rng.sample(list(population), count))

    def builder(self, backend: Optional[str] = None) -> Any:
        """The session's shared model builder for one backend.

        One builder per (backend, trace length), so each benchmark's
        model is trained at most once per session (``None`` for
        backends that need no builder, e.g. ``detailed``).  The
        ``analytic`` builder wraps the session's ``badco`` builder, so
        mixed-backend sessions (validation studies, ablations) share
        one set of trained node models.
        """
        name = get_backend(backend or self.backend).name
        key = (name, self.parameters.trace_length)
        if key not in self._builders:
            if name == "analytic":
                from repro.sim.analytic import AnalyticModelBuilder

                builder = AnalyticModelBuilder(
                    self.parameters.trace_length, self.seed,
                    badco_builder=self.builder("badco"))
            else:
                builder = get_backend(name).make_builder(
                    self.parameters.trace_length, self.seed)
            if self.model_store_dir is not None:
                from repro.sim.modelstore import attach_store

                attach_store(builder, self.model_store_dir)
            self._builders[key] = builder
        return self._builders[key]

    def config(self, backend: Optional[str] = None,
               cores: int = 2) -> CampaignConfig:
        """The campaign config this session uses for (backend, cores)."""
        return CampaignConfig(
            backend=get_backend(backend or self.backend).name, cores=cores,
            trace_length=self.parameters.trace_length, seed=self.seed,
            jobs=self.jobs, cache_dir=self.cache_dir,
            model_store_dir=self.model_store_dir)

    def campaign(self, backend: Optional[str] = None,
                 cores: int = 2) -> Campaign:
        """The memoised campaign for (backend, cores)."""
        config = self.config(backend, cores)
        key = (config.backend, cores)
        campaign = self._campaigns.get(key)
        if campaign is None:
            campaign = Campaign(config, builder=self.builder(config.backend),
                                panel_cache=self.panel_cache)
            self._campaigns[key] = campaign
        return campaign

    # ------------------------------------------------------------------
    # Results and studies

    def results(self, backend: Optional[str] = None, cores: int = 2,
                policies: Optional[Sequence[str]] = None,
                workloads=None,
                reference: bool = True) -> PopulationResults:
        """IPCs for a workload grid, simulated as needed and cached.

        Args:
            backend: simulator backend (session default if None).
            cores: number of cores K.
            policies: LLC policies to cover (default: the paper's five).
            workloads: the grid rows -- a population, a code matrix or
                a workload list (default: the whole population for this
                core count).
            reference: also measure single-thread reference IPCs (for
                the WSU/HSU speedup metrics).
        """
        campaign = self.campaign(backend, cores)
        campaign.run_grid(
            workloads if workloads is not None else self.population(cores),
            ([validate_policy_name(p) for p in policies]
             if policies is not None else self.policies))
        if reference:
            campaign.reference_ipcs(self.benchmarks)
        campaign.save()
        return campaign.results

    def panel(self, backend: Optional[str] = None, cores: int = 2,
              policies: Optional[Sequence[str]] = None):
        """Columnar view of a campaign: index + per-policy IPC matrices.

        The array-native entry point for custom analytics: simulates
        (or loads) the population grid like :meth:`results`, then
        returns ``(index, matrices, reference)`` where ``index`` is a
        :class:`~repro.core.columnar.WorkloadIndex` over the population,
        ``matrices`` maps each policy to its
        :class:`~repro.core.columnar.IpcMatrix`, and ``reference`` is
        the single-thread reference IPC table.
        """
        chosen = ([validate_policy_name(p) for p in policies]
                  if policies is not None else self.policies)
        results = self.results(backend, cores, policies=chosen)
        index, matrices = results.columnar_panel(
            chosen, self.population(cores))
        return index, matrices, results.reference

    def study(self, baseline: str, candidate: str, *,
              metric: MetricLike = "IPCT", cores: int = 2,
              backend: Optional[str] = None) -> PolicyComparisonStudy:
        """Does ``candidate`` outperform ``baseline``?  The whole loop.

        Simulates the population under both policies on the chosen
        backend (plus single-thread references), builds the d(w) table
        and returns the :class:`~repro.core.study.PolicyComparisonStudy`
        carrying cv, the analytical confidence model, empirical
        confidence and the Section VII guideline.
        """
        metric_obj = _metric(metric)
        baseline = validate_policy_name(baseline)
        candidate = validate_policy_name(candidate)
        _, matrices, reference = self.panel(
            backend, cores, policies=[baseline, candidate])
        return PolicyComparisonStudy(
            self.population(cores), matrices[baseline],
            matrices[candidate], metric_obj, reference)

    def estimate_is_warm(self, baseline: str = "LRU",
                         candidate: str = "DIP", *,
                         metric: MetricLike = "IPCT",
                         cores: int = DEFAULT_CORES,
                         sample: Optional[int] = None,
                         backend: Optional[str] = None,
                         **_confidence_knobs) -> bool:
        """Whether :meth:`estimate_full_scale` would hit the d(w) memo.

        A cheap probe for the serve scheduler: a warm estimate is pure
        reads (memoised d(w) column plus the seeded confidence draws),
        so neither the coalescing window nor the shared grid dispatch
        buys it anything.  Extra keywords (``draws``, ``sample_sizes``,
        ``min_stratum``) only shape the confidence phase and are
        ignored.  Unknown policies, metrics or backends simply report
        cold -- :meth:`estimate_full_scale` owns the error.
        """
        try:
            key = (get_backend(backend or "analytic").name, cores, sample,
                   validate_policy_name(baseline),
                   validate_policy_name(candidate), _metric(metric).name)
        except (KeyError, ValueError):
            return False
        return key in self._delta_memo

    def estimate_full_scale(self, baseline: str = "LRU",
                            candidate: str = "DIP", *,
                            metric: MetricLike = "IPCT",
                            cores: int = DEFAULT_CORES,
                            sample: Optional[int] = None,
                            draws: Optional[int] = None,
                            sample_sizes: Sequence[int] = DEFAULT_SAMPLE_SIZES,
                            min_stratum: Optional[int] = None,
                            backend: Optional[str] = None
                            ) -> FullScaleEstimate:
        """The paper's full-scale scenario, end to end.

        Composes every matrix-native layer into one driver: enumerate
        (or rank-sample, when the scale caps the frame) the ``cores``
        population as a :class:`~repro.core.codematrix.CodeMatrix`,
        score the whole N x P x K panel through the batch engine (the
        ``analytic`` backend's ``run_batch_grid``, with trained models
        and calibrations served from the session's model store), build
        the d(w) column, and measure Monte-Carlo confidence with
        simple random and workload-stratified sampling (vectorized
        draws).  At FULL scale with ``cores=8`` this is the paper's
        4 292 145-workload scenario with a 10 000-workload frame.

        Repeat estimates of the same ``(backend, cores, sample,
        baseline, candidate, metric)`` within one session -- including
        the screen of :meth:`estimate_two_stage` -- replay a memoised
        d(w) column instead of re-extracting the panel: bit-identical
        by construction (panels are append-only, the reference IPCs
        cached), so a warm call pays only the seeded Monte-Carlo
        confidence draws.  :meth:`estimate_is_warm` probes the memo.

        Args:
            baseline / candidate: the LLC policies to compare (X, Y).
            metric: throughput metric for d(w) (name or object).
            cores: machine core count (8 = the paper's full-scale).
            sample: override the frame size (None = the scale's
                population cap; the frame is rank-sampled whenever the
                cap is below the true population size).
            draws: Monte-Carlo resamples (None = the scale's draws).
            sample_sizes: confidence-curve sample sizes W.
            min_stratum: W_T for workload stratification (None = the
                paper's 50, raised to frame/40 for large frames).
            backend: batch-capable simulator backend (default
                ``analytic``).

        Returns:
            A :class:`FullScaleEstimate` report.
        """
        metric_obj = _metric(metric)
        baseline = validate_policy_name(baseline)
        candidate = validate_policy_name(candidate)
        backend = get_backend(backend or "analytic").name
        stage = self._delta_stage(backend, cores, sample, baseline,
                                  candidate, metric_obj)
        timings = dict(zip(("population", "panels", "delta"),
                           stage.seconds))
        started = time.perf_counter()
        fields = self._confidence_stage(stage.population, stage.delta,
                                        draws, sample_sizes, min_stratum)
        timings["confidence"] = time.perf_counter() - started
        return FullScaleEstimate(
            baseline=baseline, candidate=candidate, metric=metric_obj.name,
            backend=backend, cores=cores,
            inverse_cv=stage.statistics.inverse_cv,
            training_runs=stage.training_runs, timings=timings, **fields)

    def estimate_two_stage(self, baseline: str = "LRU",
                           candidate: str = "DIP", *,
                           metric: MetricLike = "IPCT",
                           cores: int = DEFAULT_CORES,
                           sample: Optional[int] = None,
                           draws: Optional[int] = None,
                           sample_sizes: Sequence[int] = DEFAULT_SAMPLE_SIZES,
                           min_stratum: Optional[int] = None,
                           refine_backend: str = "badco",
                           refine_budget: Optional[int] = None,
                           refine_frac: Optional[float] = None,
                           screen_backend: str = "analytic"
                           ) -> TwoStageEstimate:
        """Analytic screening plus a budgeted event-driven refine pass.

        Stage 1 scores the whole frame with the cheap screening backend
        (exactly :meth:`estimate_full_scale`'s stages, sharing its d(w)
        memo); stage 2 spends a simulation budget re-scoring the rows
        the screen says matter most on an event-driven backend, splices
        the refined d(w) back into the column, and re-estimates.  Row
        selection ranks by screening signal -- normalised |d(w)| plus
        each row's contribution to the cv spread |d(w) - mean| -- with
        an explicit floor allocation for d(w) == 0 cells: a share of
        the budget is always spent on evenly-spaced no-signal rows, so
        an analytic screen that flattens a region to zero (the known
        scaled-trace caveat) cannot hide that region from refinement.

        The refine pass runs through the campaign engine: both
        policies' rows go to a ``badco`` or ``interval`` backend as one
        ``run_batch_grid`` call, each row running once until its LLC
        first fills a set, and with ``jobs > 1`` the selected rows are
        chunk-sharded over the engine's process pool, one grid call
        per chunk -- results are bit-identical for any ``jobs``.

        Args:
            baseline / candidate / metric / cores / sample / draws /
                sample_sizes / min_stratum: exactly as
                :meth:`estimate_full_scale`.
            refine_backend: event-driven backend for the refine pass
                (``badco`` or ``interval``).
            refine_budget: number of rows to refine (clamped to the
                frame size).  Exactly one of ``refine_budget`` /
                ``refine_frac`` must be given.
            refine_frac: fraction of the frame to refine, in (0, 1].
            screen_backend: batch-capable backend for stage 1
                (default ``analytic``).

        Returns:
            A :class:`TwoStageEstimate` report.
        """
        import numpy as np

        from repro.core.columnar import DeltaColumn
        from repro.core.delta import delta_statistics

        if (refine_budget is None) == (refine_frac is None):
            raise ValueError(
                "exactly one of refine_budget / refine_frac is required")
        if refine_frac is not None and not 0.0 < refine_frac <= 1.0:
            raise ValueError("refine_frac must be in (0, 1]")
        if refine_budget is not None and refine_budget < 1:
            raise ValueError("refine_budget must be >= 1")
        metric_obj = _metric(metric)
        baseline = validate_policy_name(baseline)
        candidate = validate_policy_name(candidate)
        screen_backend = get_backend(screen_backend).name
        refine_backend = get_backend(refine_backend).name
        knobs = (draws, sample_sizes, min_stratum)

        # ---- stage 1: the full-scale stages on the screening backend -
        screen = self._delta_stage(screen_backend, cores, sample, baseline,
                                   candidate, metric_obj)
        population = screen.population
        timings = dict(zip(("population", "screen-panels", "screen-delta"),
                           screen.seconds))
        started = time.perf_counter()
        screen_fields = self._confidence_stage(population, screen.delta,
                                               *knobs)
        timings["screen-confidence"] = time.perf_counter() - started

        # ---- rank: screening signal + no-signal floor allocation -----
        started = time.perf_counter()
        budget = (refine_budget if refine_budget is not None
                  else max(1, round(refine_frac * len(population))))
        budget = min(budget, len(population))
        rows, floor_count = self._refine_rows(screen.delta.values, budget)
        timings["rank"] = time.perf_counter() - started

        # ---- stage 2: the same panels + d(w) stage on the rows -------
        refine = self._delta_stage(refine_backend, cores, sample, baseline,
                                   candidate, metric_obj, rows=rows)
        timings["refine"] = sum(refine.seconds)

        # ---- splice + final estimate ---------------------------------
        started = time.perf_counter()
        refined_values = refine.delta.values
        screened_values = screen.delta.values[rows]
        spliced = screen.delta.values.copy()
        spliced[rows] = refined_values
        statistics = delta_statistics(spliced)
        fields = self._confidence_stage(
            population, DeltaColumn(screen.delta.index, spliced), *knobs)
        timings["splice-confidence"] = time.perf_counter() - started

        shifts = np.abs(refined_values - screened_values)
        return TwoStageEstimate(
            baseline=baseline, candidate=candidate, metric=metric_obj.name,
            backend=screen_backend, cores=cores,
            inverse_cv=statistics.inverse_cv,
            training_runs=screen.training_runs, timings=timings, **fields,
            refine_backend=refine_backend, refine_budget=budget,
            refined=len(rows), floor_allocated=floor_count,
            screen_inverse_cv=screen.statistics.inverse_cv,
            screen_confidence=screen_fields["confidence"],
            refine_training_runs=refine.training_runs,
            max_shift=float(shifts.max()) if len(shifts) else 0.0,
            mean_shift=float(shifts.mean()) if len(shifts) else 0.0,
            sign_flips=int(np.count_nonzero(
                np.sign(refined_values) != np.sign(screened_values))))

    def _delta_stage(self, backend: str, cores: int,
                     sample: Optional[int], baseline: str, candidate: str,
                     metric: ThroughputMetric, rows=None) -> _DeltaStage:
        """Both estimators' first stage: population, panels and d(w).

        Scores ``baseline`` and ``candidate`` on ``backend`` over the
        ``(cores, sample)`` frame -- or, given ``rows``, over only those
        frame rows (``population.code_matrix.take(rows)``, the refine
        pass) -- and builds d(w) from the columnar panel.  Whole-frame
        results are memoised per ``(backend, cores, sample, baseline,
        candidate, metric)``: panels are append-only and the reference
        IPCs cached, so the column is a pure function of the key and a
        replay (the serve daemon's warm hot path) is a dict read.
        """
        from repro.core.columnar import delta_column_from_matrices
        from repro.core.delta import DeltaVariable, delta_statistics

        started = time.perf_counter()
        population = self.population(cores, sample)
        population_seconds = time.perf_counter() - started
        memo_key = (backend, cores, sample, baseline, candidate,
                    metric.name)
        if rows is None and memo_key in self._delta_memo:
            delta, statistics = self._delta_memo[memo_key]
            return _DeltaStage(population, delta, statistics, 0,
                               (population_seconds, 0.0, 0.0))

        workloads = (population if rows is None
                     else population.code_matrix.take(rows))
        builder = self.builder(backend)
        runs_before = self._builder_runs(builder)
        started = time.perf_counter()
        results = self.results(backend, cores,
                               policies=[baseline, candidate],
                               workloads=workloads)
        panels_seconds = time.perf_counter() - started
        training_runs = self._builder_runs(builder) - runs_before

        started = time.perf_counter()
        _, matrices = results.columnar_panel([baseline, candidate],
                                             workloads)
        delta = delta_column_from_matrices(
            DeltaVariable(metric, results.reference),
            matrices[baseline], matrices[candidate])
        statistics = delta_statistics(delta.values)
        delta_seconds = time.perf_counter() - started
        if rows is None:
            self._delta_memo[memo_key] = (delta, statistics)
        return _DeltaStage(population, delta, statistics, training_runs,
                           (population_seconds, panels_seconds,
                            delta_seconds))

    def _confidence_stage(self, population, delta,
                          draws: Optional[int], sample_sizes: Sequence[int],
                          min_stratum: Optional[int]) -> Dict[str, Any]:
        """Both estimators' second stage: confidence curves for a column.

        Simple random vs workload-stratified sampling over ``delta``;
        ``None`` knobs take the scale's draws and
        W_T = max(50, frame/40).

        Returns:
            The :class:`FullScaleEstimate` fields this stage settles:
            frame sizes, draws, strata and the confidence curves.
        """
        from repro.core.estimator import ConfidenceEstimator
        from repro.core.sampling import (
            SimpleRandomSampling,
            WorkloadStratification,
        )
        from repro.core.sampling.workload_strata import DEFAULT_MIN_STRATUM

        if min_stratum is None:
            min_stratum = max(DEFAULT_MIN_STRATUM, len(population) // 40)
        stratifier = WorkloadStratification.from_column(
            delta, min_stratum=min_stratum)
        estimator = ConfidenceEstimator(
            population, delta,
            draws=draws if draws is not None else self.parameters.draws)
        confidence = {}
        for method in (SimpleRandomSampling(), stratifier):
            curve = estimator.curve(method, tuple(sample_sizes),
                                    seed=self.seed)
            confidence[method.name] = tuple(curve.confidence)
        return {
            "population_size": len(population),
            "true_population_size": population.true_size,
            "sampled": not population.is_exhaustive,
            "draws": estimator.draws, "num_strata": stratifier.num_strata,
            "sample_sizes": tuple(sample_sizes),
            "confidence": confidence,
        }

    @staticmethod
    def _refine_rows(values, budget: int):
        """Rows worth the refine budget, no-signal floor included.

        Ranks rows by normalised |d(w)| plus normalised spread
        contribution |d(w) - mean| (stable order, so ties resolve by
        row number -- deterministic for a given frame).  Before
        ranking, a floor share of the budget (one tenth, at least one
        row when any exist) is allocated to evenly-spaced d(w) == 0
        rows: those cells carry no screening signal at all, which is
        exactly why the screen must not be trusted about them.

        Returns:
            ``(rows, floor_count)``: sorted unique row numbers to
            refine and how many of them came from the zero floor.
        """
        import numpy as np

        def normalised(x):
            peak = x.max() if x.size else 0.0
            return x / peak if peak > 0.0 else x

        signal = np.abs(values)
        spread = np.abs(values - values.mean())
        score = normalised(signal) + normalised(spread)
        zero = np.flatnonzero(values == 0.0)
        floor_count = (min(int(zero.size), max(1, budget // 10))
                       if zero.size else 0)
        floor_rows = zero[(np.arange(floor_count) * zero.size)
                          // max(floor_count, 1)]
        order = np.argsort(-score, kind="stable")
        order = order[~np.isin(order, floor_rows)]
        rows = np.concatenate(
            [floor_rows, order[:budget - floor_count]]).astype(np.int64)
        return np.sort(rows), floor_count

    @staticmethod
    def _builder_runs(builder: Any) -> int:
        """Training runs a builder reports having performed so far.

        Every builder owns its own accounting (``training_runs``; the
        analytic builder's includes its wrapped BADCO builder and its
        anchor runs); builder-less backends report zero.
        """
        return int(getattr(builder, "training_runs", 0))

    def __repr__(self) -> str:
        return (f"Session(scale={self.scale.value!r}, seed={self.seed}, "
                f"backend={self.backend!r}, jobs={self.jobs}, "
                f"campaigns={len(self._campaigns)})")
