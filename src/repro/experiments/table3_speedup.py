"""Table III: BADCO average simulation speedup over the detailed core.

The paper reports MIPS (million simulated instructions per second of
host time) for Zesto and BADCO at 1/2/4/8 cores; BADCO's speedup is
14.8x / 25.2x / 38.9x / 68.1x, growing with core count.  We time both
simulators on the same workloads.  Absolute MIPS differ wildly from the
paper's (different host, different language); the shape to check is
BADCO >> detailed with the ratio growing with the problem size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import Scale, Session, get_backend
from repro.core.population import sample_workload
from repro.core.workload import Workload


@dataclass
class Table3Row:
    cores: int
    detailed_mips: float
    badco_mips: float

    @property
    def speedup(self) -> float:
        if self.detailed_mips == 0:
            return 0.0
        return self.badco_mips / self.detailed_mips


@dataclass
class Table3Result:
    rows_by_cores: Dict[int, Table3Row]

    def rows(self) -> List[str]:
        lines = [f"{'cores':>5}  {'detailed MIPS':>13}  {'BADCO MIPS':>10}  "
                 f"{'speedup':>8}"]
        for cores in sorted(self.rows_by_cores):
            r = self.rows_by_cores[cores]
            lines.append(f"{cores:5d}  {r.detailed_mips:13.4f}  "
                         f"{r.badco_mips:10.4f}  {r.speedup:8.1f}")
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        core_counts: Tuple[int, ...] = (1, 2, 4, 8),
        workloads_per_point: int = 3,
        approx_backend: str = "badco") -> Table3Result:
    session = session or Session(scale)
    length = session.parameters.trace_length
    detailed_backend = get_backend("detailed")
    approx = get_backend(approx_backend)
    builder = session.builder(approx_backend)
    # Train all models up front so building is not charged to sim speed
    # (the paper charges it separately, in Section VII-A).
    if builder is not None:
        for benchmark in session.benchmarks:
            builder.build(benchmark)
    rng = random.Random(session.seed + 3)
    rows: Dict[int, Table3Row] = {}
    for cores in core_counts:
        picks: List[Workload] = [
            sample_workload(session.benchmarks, max(cores, 1), rng)
            for _ in range(workloads_per_point)]
        det_instr = det_wall = 0.0
        bad_instr = bad_wall = 0.0
        for workload in picks:
            det = detailed_backend.make_simulator(
                cores, "LRU", length, seed=session.seed)
            run_d = det.run(workload)
            det_instr += run_d.instructions
            det_wall += run_d.wall_seconds
            bad = approx.make_simulator(
                cores, "LRU", length, seed=session.seed, builder=builder)
            run_b = bad.run(workload)
            bad_instr += run_b.instructions
            bad_wall += run_b.wall_seconds
        rows[cores] = Table3Row(
            cores=cores,
            detailed_mips=det_instr / 1e6 / det_wall,
            badco_mips=bad_instr / 1e6 / bad_wall)
    return Table3Result(rows)


def main() -> None:
    result = run()
    print("Table III: simulation speed (MIPS) and BADCO speedup")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
