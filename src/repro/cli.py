"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``benchmarks``   -- list the synthetic suite and its Table IV classes;
- ``population``   -- population sizes and (optionally) the workloads;
- ``classify``     -- measure MPKI and regenerate Table IV;
- ``study``        -- compare two policies end to end (cv, confidence,
                      guideline) on an approximate-simulation population,
                      on any registered simulator backend (``--backend``)
                      and optionally in parallel (``--jobs``);
- ``estimate``     -- the full-scale pipeline: enumerate or rank-sample
                      the population (8 cores by default), score analytic
                      panels through the batch engine with the warm model
                      store, and run stratified confidence estimation;
- ``plan``         -- apply the Section VII guideline to a cv value;
- ``serve``        -- run the resident estimation daemon: models,
                      enumerated populations and mmap'd panels stay
                      warm in one process; queries arrive as
                      newline-framed JSON over a Unix socket or TCP
                      port and overlapping estimates coalesce into
                      shared grid dispatches;
- ``query``        -- query a running serve daemon (ping, stats,
                      estimate, estimate-two-stage, study, panel,
                      shutdown);
- ``experiment``   -- run one of the paper's table/figure drivers;
- ``bench``        -- time the analytics hot paths (scalar vs columnar)
                      and write ``BENCH_analytics.json``;
- ``lint``         -- run the project's AST invariant linter (unseeded
                      RNGs, salted hashes, cache-key drift, parity
                      pairs, non-atomic writes, wall-clock keys, set
                      iteration order) over the source tree; exits
                      nonzero on findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api.backends import UnknownBackendError, backend_names, get_backend
from repro.api.scales import Scale
from repro.api.session import Session
from repro.bench.spec import SPEC_2006
from repro.core.confidence import confidence_from_cv
from repro.core.metrics import metric_by_name
from repro.core.planner import recommend_method
from repro.core.population import population_size

_EXPERIMENTS = {
    "fig1": "fig1_confidence_curve",
    "fig2": "fig2_cpi_accuracy",
    "fig3": "fig3_model_validation",
    "fig4": "fig4_cv_bars",
    "fig5": "fig5_cv_metrics",
    "fig6": "fig6_sampling_methods",
    "fig7": "fig7_actual_confidence",
    "table3": "table3_speedup",
    "table4": "table4_classification",
    "sec7": "sec7_overhead",
    "ext1": "ext1_speedup_accuracy",
    "ext2": "ext2_simulator_ablation",
}


def _parse_scale(value: str) -> Scale:
    try:
        return Scale(value.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scale must be small, medium or full (got {value!r})") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("benchmarks", help="list the synthetic SPEC suite")

    pop = sub.add_parser("population", help="workload population info")
    pop.add_argument("--cores", type=int, default=4)
    pop.add_argument("--list", action="store_true",
                     help="print every workload (2 cores only is sane)")

    classify = sub.add_parser("classify", help="measure MPKI (Table IV)")
    classify.add_argument("--scale", type=_parse_scale, default=Scale.MEDIUM)

    study = sub.add_parser("study", help="compare two policies")
    study.add_argument("baseline")
    study.add_argument("candidate")
    study.add_argument("--cores", type=int, default=2)
    study.add_argument("--metric", default="IPCT")
    study.add_argument("--scale", type=_parse_scale, default=Scale.SMALL)
    study.add_argument("--backend", default="badco",
                       help="simulator backend (see `repro.api.BACKENDS`; "
                            f"built in: {', '.join(backend_names())})")
    study.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the campaign "
                            "(default 1; 0 = one per CPU)")
    study.add_argument("--model-store", default=None,
                       help="directory for persisted trained models "
                            "(default: <cache>/models, '' disables; see "
                            "repro.sim.modelstore)")

    estimate = sub.add_parser(
        "estimate", help="end-to-end full-scale confidence estimation")
    estimate.add_argument("baseline", nargs="?", default="LRU")
    estimate.add_argument("candidate", nargs="?", default="DIP")
    estimate.add_argument("--cores", type=int, default=8,
                          help="core count (default 8, the paper's "
                               "full-scale scenario)")
    estimate.add_argument("--metric", default="IPCT")
    estimate.add_argument("--scale", type=_parse_scale, default=Scale.SMALL)
    estimate.add_argument("--backend", default="analytic",
                          help="batch-capable simulator backend "
                               f"(built in: {', '.join(backend_names())})")
    estimate.add_argument("--sample", type=int, default=None,
                          help="population frame size (default: the "
                               "scale's cap; rank-sampled when below the "
                               "true population size)")
    estimate.add_argument("--draws", type=int, default=None,
                          help="Monte-Carlo draws (default: the scale's)")
    estimate.add_argument("--sizes", type=int, nargs="+",
                          default=(10, 30, 100),
                          help="confidence-curve sample sizes W")
    estimate.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the campaign "
                               "(default 1; 0 = one per CPU)")
    estimate.add_argument("--model-store", default=None,
                          help="directory for persisted trained models "
                               "(default: <cache>/models, '' disables)")
    estimate.add_argument("--fast-sampling", action="store_const",
                          const=True, default=None, dest="fast_sampling",
                          help="opt into the fast, non-bit-compatible "
                               "confidence draws (default: off, or the "
                               "REPRO_FAST_SAMPLING env override)")
    estimate.add_argument("--refine-backend", default=None,
                          help="two-stage estimation: event-driven backend "
                               "(badco or interval) that re-scores the "
                               "screened rows the budget selects; needs "
                               "--refine-budget or --refine-frac")
    refine = estimate.add_mutually_exclusive_group()
    refine.add_argument("--refine-budget", type=int, default=None,
                        help="rows to refine on the event-driven backend "
                             "(clamped to the frame size)")
    refine.add_argument("--refine-frac", type=float, default=None,
                        help="fraction of the frame to refine, in (0, 1]")

    plan = sub.add_parser("plan", help="Section VII guideline for a cv")
    plan.add_argument("cv", type=float)
    plan.add_argument("--sample-size", type=int, default=30)

    serve = sub.add_parser(
        "serve", help="run the resident estimation daemon")
    serve.add_argument("--socket", default=None,
                       help="Unix socket path to bind (exactly one of "
                            "--socket / --port)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port to bind (0 picks a free port)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--workers", type=int, default=4,
                       help="scheduler worker threads (default 4)")
    serve.add_argument("--window-ms", type=float, default=10.0,
                       help="coalescing window for estimate queries "
                            "in milliseconds (default 10)")
    serve.add_argument("--cache-dir", default=None,
                       help="campaign cache directory for every served "
                            "session (default: the scale default)")
    serve.add_argument("--model-store", default=None,
                       help="directory for persisted trained models "
                            "(default: <cache>/models, '' disables)")
    serve.add_argument("--budget-mb", type=int, default=512,
                       help="resident panel LRU budget in MiB "
                            "(default 512)")

    query = sub.add_parser(
        "query", help="query a running serve daemon")
    query.add_argument("op", choices=("ping", "stats", "estimate",
                                      "estimate-two-stage", "study",
                                      "panel", "shutdown"))
    query.add_argument("--socket", default=None,
                       help="the daemon's Unix socket path")
    query.add_argument("--port", type=int, default=None,
                       help="the daemon's TCP port")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="request parameter; VALUE is parsed as "
                            "JSON when possible, else kept as a string "
                            "(repeatable, e.g. --param cores=4 "
                            "--param baseline=LRU)")
    query.add_argument("--timeout", type=float, default=300.0,
                       help="response timeout in seconds (default 300)")

    experiment = sub.add_parser("experiment", help="run a paper artefact")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", type=_parse_scale, default=Scale.SMALL)
    experiment.add_argument("--jobs", type=int, default=1,
                            help="worker processes for campaigns "
                                 "(default 1; 0 = one per CPU)")
    experiment.add_argument("--backend", default=None,
                            help="approximate-simulation backend for drivers "
                                 "that take one (e.g. `analytic`; built in: "
                                 f"{', '.join(backend_names())})")
    experiment.add_argument("--model-store", default=None,
                            help="directory for persisted trained models "
                                 "(default: <cache>/models, '' disables)")

    bench = sub.add_parser(
        "bench", help="time the hot paths (analytics and simulation)")
    bench.add_argument("--profile", choices=("full", "smoke"), default="full",
                       help="full = the reference configuration "
                            "(4 cores, 1000 draws); smoke = CI-sized")
    bench.add_argument("--suite",
                       choices=("analytics", "sim", "pop", "e2e", "serve",
                                "all"),
                       default="all",
                       help="analytics = estimator/delta scalar-vs-columnar; "
                            "sim = per-backend panel build (badco loop vs "
                            "analytic batch) and MIPS; pop = 8-core "
                            "population enumeration/sampling and model-store "
                            "cold-vs-warm campaigns; e2e = the full-scale "
                            "driver (sample -> panels -> stratified "
                            "confidence), cold vs warm store; serve = the "
                            "resident daemon (cold vs warm served query, "
                            "concurrent throughput, coalescing ratio, LRU "
                            "hit rate)")
    bench.add_argument("--draws", type=int, default=None,
                       help="Monte-Carlo draws (overrides the profile)")
    bench.add_argument("--sample-size", type=int, default=None,
                       help="workloads per sample (default 30)")
    bench.add_argument("--cores", type=int, default=None,
                       help="population core count (overrides the profile)")
    bench.add_argument("--output", default="BENCH_analytics.json",
                       help="result file ('' to skip writing)")

    lint = sub.add_parser(
        "lint", help="run the repro invariant linter (REP001..REP007)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package source)")
    lint.add_argument("--tests", default=None,
                      help="tests directory for reference checks such as "
                           "REP004 parity-pair (default: the `tests` "
                           "directory next to the source tree, if any)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format (default: text)")
    lint.add_argument("--rules", action="store_true",
                      help="list the rules and their motivations, then "
                           "exit")

    report = sub.add_parser(
        "report", help="render and diff bench trajectories")
    report_sub = report.add_subparsers(dest="report_command", required=True)

    show = report_sub.add_parser(
        "show", help="render one trajectory (suites, ratios, hot paths)")
    show.add_argument("path", nargs="?", default="BENCH_analytics.json",
                      help="trajectory file (default: the committed "
                           "BENCH_analytics.json)")
    show.add_argument("--suite", default=None,
                      help="restrict to one suite")
    show.add_argument("--format", choices=("text", "json", "csv"),
                      default="text", help="output format")

    diff = report_sub.add_parser(
        "diff", help="gate a candidate trajectory against a baseline "
                     "(exit 1 on regression)")
    diff.add_argument("--baseline", default="BENCH_analytics.json",
                      help="reference trajectory (default: the committed "
                           "BENCH_analytics.json)")
    diff.add_argument("--candidate", required=True,
                      help="trajectory under test")
    diff.add_argument("--threshold-scale", type=float, default=1.0,
                      help="multiply every THRESHOLDS entry (CI uses >1 "
                           "on noisy shared runners)")
    diff.add_argument("--require-suites", action="store_true",
                      help="fail when the candidate drops an entire "
                           "baseline suite (use when gating a "
                           "--suite all run)")
    diff.add_argument("--format", choices=("text", "json", "csv"),
                      default="text", help="output format")
    return parser


def _cmd_benchmarks() -> int:
    print(f"{'benchmark':>12}  {'class':>7}  {'pattern':>13}  "
          f"{'working set':>12}")
    for spec in SPEC_2006:
        print(f"{spec.name:>12}  {spec.mpki_class.value:>7}  "
              f"{spec.pattern.value:>13}  {spec.working_set:>11}B")
    return 0


def _cmd_population(args) -> int:
    size = population_size(len(SPEC_2006), args.cores)
    print(f"B = {len(SPEC_2006)} benchmarks, K = {args.cores} cores")
    print(f"population size C(B+K-1, K) = {size}")
    if args.list:
        from repro.core.population import enumerate_workloads

        for workload in enumerate_workloads(
                [s.name for s in SPEC_2006], args.cores):
            print(" ", workload.key())
    return 0


def _cmd_classify(args) -> int:
    from repro.experiments import table4_classification

    result = table4_classification.run(args.scale)
    for row in result.rows():
        print(row)
    matches = result.matches_paper()
    print(f"matching the paper's Table IV: "
          f"{sum(matches.values())}/{len(matches)}")
    return 0


def _cmd_study(args) -> int:
    try:
        backend = get_backend(args.backend).name
    except UnknownBackendError as error:
        print(error, file=sys.stderr)
        return 2
    session = Session(args.scale, jobs=args.jobs, backend=backend,
                      model_store_dir=args.model_store)
    try:
        metric = metric_by_name(args.metric)
        study = session.study(args.baseline, args.candidate,
                              metric=metric, cores=args.cores)
    except ValueError as error:      # an unknown metric or policy name
        print(error, file=sys.stderr)
        return 2
    print(f"{args.candidate} vs {args.baseline} "
          f"({metric.name}, {args.cores} cores, {backend} backend, "
          f"{len(study.population)} workloads):")
    print(f"  1/cv = {study.inverse_cv:+.3f}")
    print(f"  {args.candidate} wins on the population: "
          f"{study.y_outperforms_x()}")
    for w in (10, 30, 100):
        print(f"  model confidence at W={w}: {study.model_confidence(w):.3f}")
    decision = study.guideline()
    print(f"  guideline: {decision.recommendation.value}"
          + (f" (W = {decision.sample_size})" if decision.sample_size else ""))
    return 0


def _cmd_estimate(args) -> int:
    try:
        backend = get_backend(args.backend).name
    except UnknownBackendError as error:
        print(error, file=sys.stderr)
        return 2
    budgeted = (args.refine_budget is not None
                or args.refine_frac is not None)
    if args.refine_backend is None and budgeted:
        print("--refine-budget/--refine-frac need --refine-backend",
              file=sys.stderr)
        return 2
    if args.refine_backend is not None and not budgeted:
        print("--refine-backend needs --refine-budget or --refine-frac",
              file=sys.stderr)
        return 2
    session = Session(args.scale, jobs=args.jobs, backend=backend,
                      model_store_dir=args.model_store,
                      fast_sampling=args.fast_sampling)
    try:
        if args.refine_backend is not None:
            refine_backend = get_backend(args.refine_backend).name
            estimate = session.estimate_two_stage(
                args.baseline, args.candidate, metric=args.metric,
                cores=args.cores, sample=args.sample, draws=args.draws,
                sample_sizes=tuple(args.sizes), screen_backend=backend,
                refine_backend=refine_backend,
                refine_budget=args.refine_budget,
                refine_frac=args.refine_frac)
        else:
            estimate = session.estimate_full_scale(
                args.baseline, args.candidate, metric=args.metric,
                cores=args.cores, sample=args.sample, draws=args.draws,
                sample_sizes=tuple(args.sizes), backend=backend)
    except UnknownBackendError as error:
        print(error, file=sys.stderr)
        return 2
    except ValueError as error:         # e.g. an unknown policy name
        print(error, file=sys.stderr)
        return 2
    for row in estimate.rows():
        print(row)
    return 0


def _cmd_plan(args) -> int:
    decision = recommend_method(args.cv, args.sample_size)
    print(f"cv = {args.cv}: {decision.recommendation.value}")
    if decision.sample_size:
        print(f"detailed-simulation sample size: {decision.sample_size}")
        print(f"model confidence there: "
              f"{confidence_from_cv(abs(args.cv), decision.sample_size):.4f}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ReproServer, ResidentState

    if (args.socket is None) == (args.port is None):
        print("pass exactly one of --socket / --port", file=sys.stderr)
        return 2
    state = ResidentState(cache_dir=args.cache_dir,
                          model_store_dir=args.model_store,
                          budget_bytes=args.budget_mb << 20)
    server = ReproServer(state, socket_path=args.socket, port=args.port,
                         host=args.host, workers=args.workers,
                         window_seconds=args.window_ms / 1000.0)
    print(f"repro serve: listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.serve import ReproClient, ServerError

    if (args.socket is None) == (args.port is None):
        print("pass exactly one of --socket / --port", file=sys.stderr)
        return 2
    params = {}
    for item in args.param:
        key, separator, raw = item.partition("=")
        if not separator or not key:
            print(f"--param needs KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    op = args.op.replace("-", "_")
    client = ReproClient(socket_path=args.socket, host=args.host,
                         port=args.port, timeout=args.timeout)
    try:
        if op in ("estimate", "estimate_two_stage"):
            estimate = getattr(client, op)(**params)
            for row in estimate.rows():
                print(row)
        elif op == "shutdown":
            client.shutdown()
            print("server stopping")
        else:
            print(json.dumps(client.request(op, **params), indent=2,
                             sort_keys=True))
    except ServerError as error:
        print(error, file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as error:
        print(f"cannot reach server at "
              f"{args.socket or (args.host, args.port)}: {error}",
              file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from repro.perf import DEFAULT_SAMPLE_SIZE, PROFILES, run_bench, \
        run_e2e_bench, run_pop_bench, run_serve_bench, run_sim_bench, \
        speedups, write_bench

    overrides = [name for name, value in
                 (("--draws", args.draws), ("--sample-size",
                                            args.sample_size),
                  ("--cores", args.cores)) if value is not None]
    if args.suite in ("sim", "pop", "e2e", "serve") and overrides:
        # These suites run fixed profile grids; silently ignoring the
        # knobs would misreport what was benchmarked.
        print(f"{', '.join(overrides)} only apply to the analytics "
              f"suite, not --suite {args.suite}", file=sys.stderr)
        return 2
    records = []
    if args.suite in ("analytics", "all"):
        profile = PROFILES[args.profile]
        draws = args.draws if args.draws is not None else profile["draws"]
        cores = args.cores if args.cores is not None else profile["cores"]
        sample_size = (args.sample_size if args.sample_size is not None
                       else DEFAULT_SAMPLE_SIZE)
        max_population = profile["max_population"] or None
        records.extend(run_bench(draws=draws, sample_size=sample_size,
                                 cores=cores,
                                 max_population=max_population))
    if args.suite in ("sim", "all"):
        records.extend(run_sim_bench(profile=args.profile))
    if args.suite in ("pop", "all"):
        records.extend(run_pop_bench(profile=args.profile))
    if args.suite in ("e2e", "all"):
        records.extend(run_e2e_bench(profile=args.profile))
    if args.suite in ("serve", "all"):
        records.extend(run_serve_bench(profile=args.profile))
    print(f"{'benchmark':>34}  {'seconds':>10}  {'draws':>6}  {'N':>8}  "
          f"{'MIPS':>8}")
    for r in records:
        mips = f"{r['mips']:8.2f}" if "mips" in r else f"{'-':>8}"
        print(f"{r['name']:>34}  {r['seconds']:10.4f}  "
              f"{r['draws']:6d}  {r['population_size']:8d}  {mips}")
    for stem, ratio in speedups(records).items():
        print(f"speedup {stem}: {ratio:.1f}x")
    if args.output:
        write_bench(Path(args.output), records, profile=args.profile)
        print(f"wrote {args.output}")
    return 0


def _cmd_report(args) -> int:
    from repro.report import (
        ReportError, diff_runs, load_bench, render_diff, render_run,
    )

    try:
        if args.report_command == "show":
            run = load_bench(args.path)
            if args.suite is not None and args.suite not in run.suites:
                print(f"{args.path} has no {args.suite!r} suite "
                      f"(suites: {', '.join(run.suites)})",
                      file=sys.stderr)
                return 2
            print(render_run(run, fmt=args.format, suite=args.suite),
                  end="")
            return 0
        if args.report_command == "diff":
            if args.threshold_scale <= 0:
                print("--threshold-scale must be positive",
                      file=sys.stderr)
                return 2
            baseline = load_bench(args.baseline)
            candidate = load_bench(args.candidate)
            result = diff_runs(baseline, candidate,
                               threshold_scale=args.threshold_scale,
                               require_suites=args.require_suites)
            print(render_diff(result, fmt=args.format), end="")
            return 0 if result.ok else 1
    except ReportError as error:
        print(error, file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled report command "
                         f"{args.report_command!r}")


def _cmd_lint(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis import all_rules, lint_paths, to_json, to_text

    if args.rules:
        for rule in all_rules():
            print(f"{rule.id} {rule.name}: {rule.motivation}")
        return 0
    package_root = Path(repro.__file__).resolve().parent
    if args.paths:
        src_paths = [Path(p) for p in args.paths]
        display_root = Path.cwd()
    else:
        src_paths = [package_root]
        display_root = package_root.parent.parent
    if args.tests is not None:
        tests_root = Path(args.tests) if args.tests else None
    else:
        candidate = package_root.parent.parent / "tests"
        tests_root = candidate if candidate.is_dir() else None
    findings = lint_paths(src_paths, tests_root=tests_root,
                          display_root=display_root)
    if args.format == "json":
        print(to_json(findings))
    else:
        print(to_text(findings))
    return 1 if findings else 0


def _cmd_experiment(args) -> int:
    import importlib
    import inspect

    module = importlib.import_module(
        f"repro.experiments.{_EXPERIMENTS[args.name]}")
    if args.name == "fig1":
        module.main()
        return 0
    if args.name == "sec7":
        # The paper-MIPS variant is exact and instant; the measured-MIPS
        # variant (module.run) times this machine's simulators.
        result = module.run_paper_numbers()
        for row in result.rows():
            print(row)
        print(f"stratification extra fraction: "
              f"{result.stratification_extra_fraction:.2f}")
        return 0
    kwargs = {}
    if args.backend is not None:
        try:
            backend = get_backend(args.backend).name
        except UnknownBackendError as error:
            print(error, file=sys.stderr)
            return 2
        parameters = inspect.signature(module.run).parameters
        for keyword in ("backend", "approx_backend"):
            if keyword in parameters:
                kwargs[keyword] = backend
                break
        else:
            print(f"experiment {args.name!r} does not take a backend",
                  file=sys.stderr)
            return 2
    session = Session(args.scale, jobs=args.jobs,
                      model_store_dir=args.model_store)
    result = module.run(args.scale, session=session, **kwargs)
    for row in result.rows():
        print(row)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "benchmarks": lambda: _cmd_benchmarks(),
        "population": lambda: _cmd_population(args),
        "classify": lambda: _cmd_classify(args),
        "study": lambda: _cmd_study(args),
        "estimate": lambda: _cmd_estimate(args),
        "plan": lambda: _cmd_plan(args),
        "serve": lambda: _cmd_serve(args),
        "query": lambda: _cmd_query(args),
        "experiment": lambda: _cmd_experiment(args),
        "bench": lambda: _cmd_bench(args),
        "lint": lambda: _cmd_lint(args),
        "report": lambda: _cmd_report(args),
    }
    try:
        return handlers[args.command]()
    except BrokenPipeError:
        # Output piped into a pager/head that quit early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
