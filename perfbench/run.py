#!/usr/bin/env python3
"""Run one benchmark workload; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 12 --trace 0

Run it from a checkout of the repository (it runs the program from that
checkout's ``src/``).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` is a separate traced run that reports
the per-layer metrics and writes Chrome trace-event JSON under
``.perfbench/traces/``.  Every cache directory, model store and socket
lives under one temporary root in ``.perfbench/tmp/``, removed on exit;
each run's record (machine context, metrics, first errors) is kept in
``.perfbench/runs/``.

The result line::

    {"correct": true, "attempted": 16, "failed": 0,
     "metrics": {"p50_ms": {"value": 612.3, "unit": "ms"}, ...}}

Latencies, throughput and set-up time are calibrated to a nominal host
speed (see ``hostspeed``).  An op fails on an exception, a timeout or a
wrong answer (see ``workloads.check_answer``); ``correct`` is false
when any op or run-level check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("oneshot", "served", "refine"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR",
                        help=argparse.SUPPRESS)   # a set-up process
    parser.add_argument("--trace-out", metavar="FILE",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    return parser


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _terminate)
    if args.prepare:
        return _prepare(Path(args.prepare), args.trace_out, args.cpu)
    if args.workload is None:
        _parser().error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench import workloads
    from repro.report.records import machine_context

    run = workloads.Run.create(ROOT, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    os.environ.update(run.env)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = outcome.layers if args.trace else outcome.metrics
    if args.trace:
        # Layers this workload never enters (serve.* in process, the
        # refine accuracy outside refine) read 0.
        measured = {m["name"]: measured.get(m["name"], 0.0) for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    tally = run.tally
    result = {
        "correct": tally.failed == 0 and not run.run_errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(measured[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    for error in tally.errors + run.run_errors:
        print(f"perfbench: {error}", file=sys.stderr)
    context = machine_context().to_dict()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "cycle": ["/".join(pair) for pair in run.cycle],
              "context": context, "metrics": outcome.metrics,
              "layers": outcome.layers, "latencies_s": tally.latencies,
              "calibrated_s": tally.calibrated,
              "attempted": tally.attempted,
              "failed": tally.failed,
              "errors": tally.errors + run.run_errors}
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print("machine context: " + json.dumps(context, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


def _prepare(directory: Path, trace_out, cpu: int) -> int:
    """Set up one universe on one CPU; writes the calibration factor of
    its wall time to ``hostspeed.json`` there."""
    import time

    from perfbench import hostspeed, tracing, workloads

    hostspeed.pin(cpu)
    tracer = tracing.Tracer().install() if trace_out else None
    try:
        with hostspeed.Sampler([cpu]) as sampler:
            started = time.perf_counter()
            workloads.prepare(directory)
            ended = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write_chrome(Path(trace_out), {"part": "setup"})
    (directory / "hostspeed.json").write_text(
        json.dumps({"factor": sampler.factor(started, ended)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
