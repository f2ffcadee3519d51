#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, one seed per run.

    python3 perfbench/steadiness.py --seeds 1-10 --sets 2 \\
        --out .perfbench/steadiness.json

Runs ``perfbench/run.py`` untraced once per (set, seed, workload),
workloads interleaved, at ``run_seconds`` from ``BENCHMARK.json``.  For
each end-to-end metric it prints every set's median and its spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
two sets it also prints how far the second median moved from the
first, against the metric's bound.  Before every run it times a fixed
CPU loop ten times and keeps the median, so host noise is recorded
beside the figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def cpu_loop_ms(samples: int = 10) -> float:
    """Median wall time of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


def seeds_of(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", default="1-10",
                        help="seed range, e.g. 1-10 (one run per seed)")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = seeds_of(args.seeds)
    runs: List[Dict] = []
    for set_index in range(args.sets):
        for seed in seeds:
            for workload in args.workloads:
                loop = cpu_loop_ms()
                started = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=False)
                wall = time.monotonic() - started
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = json.loads((ROOT / ".perfbench" / "runs" / (
                    f"{workload}-seed{seed}-trace0.json")).read_text())
                runs.append({"set": set_index, "seed": seed,
                             "workload": workload, "wall_s": wall,
                             "cpu_loop_ms": loop, **result,
                             "uncalibrated": {
                                 name: record["metrics"][name] for name in
                                 ("wall_p50_ms", "host.slowdown")}})
                values = {name: round(metric["value"], 4)
                          for name, metric in result["metrics"].items()}
                print(f"set {set_index} seed {seed:3d} {workload:8s} "
                      f"wall {wall:5.1f}s loop {loop:5.1f}ms "
                      f"ok={result['correct']} {values}", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    print()
    for workload in args.workloads:
        for name, bound in bounds.items():
            medians = []
            cells = []
            for set_index in range(args.sets):
                values = [r["metrics"][name]["value"] for r in runs
                          if r["workload"] == workload
                          and r["set"] == set_index]
                medians.append(statistics.median(values))
                cells.append(f"median {medians[-1]:.4g} "
                             f"spread {spread(values):.3f}")
            line = f"{workload:8s} {name:12s} bound {bound:.2f}  " \
                + " | ".join(cells)
            if len(medians) > 1:
                shift = medians[1] / medians[0] - 1.0
                line += f" | shift {shift:+.3f}"
            summary[f"{workload}/{name}"] = medians
            print(line)
        cells = []
        for set_index in range(args.sets):
            values = [r["uncalibrated"]["wall_p50_ms"] for r in runs
                      if r["workload"] == workload and r["set"] == set_index]
            cells.append(f"median {statistics.median(values):.4g} "
                         f"spread {spread(values):.3f}")
        print(f"{workload:8s} wall p50 ms, not calibrated  "
              + " | ".join(cells))
    loops = [r["cpu_loop_ms"] for r in runs]
    walls = [r["wall_s"] for r in runs]
    print(f"\nfixed CPU loop, 10-sample medians: {min(loops):.1f}-"
          f"{max(loops):.1f} ms over {len(loops)} runs; run wall "
          f"{min(walls):.1f}-{max(walls):.1f} s, total {sum(walls):.0f} s")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": runs, "medians": summary},
                                       indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
