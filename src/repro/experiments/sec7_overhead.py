"""Section VII-A: the simulation-overhead worked example.

The paper compares the CPU-hours needed to reach a given confidence on
DIP vs LRU (4 cores, 100 M instructions per thread):

- balanced random, 30 workloads  -> 75 % confidence, 136 cpu*h;
- balanced random, 120 workloads -> 90 % confidence, 544 cpu*h
  (300 % extra simulation for +15 points);
- workload stratification, 30 workloads -> 99 % confidence for
  136 cpu*h of detailed simulation + ~101 cpu*h of BADCO work
  (~74 % extra) -- 4x cheaper per unit of confidence than growing the
  random sample.

We reproduce the arithmetic two ways: with the paper's published MIPS
numbers (exact reproduction of the printed cpu*hours), and with the
MIPS measured on *this* machine's simulators (Table III experiment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import Scale, Session
from repro.core.planner import OverheadModel
from repro.experiments.table3_speedup import run as run_table3

#: The paper's Table III MIPS numbers.
PAPER_MIPS = {
    "detailed_single": 0.170,
    "detailed_4core": 0.049,
    "badco_4core": 1.89,
}


@dataclass
class OverheadScenario:
    label: str
    workloads: int
    confidence: float
    detailed_hours: float
    extra_hours: float

    @property
    def total_hours(self) -> float:
        return self.detailed_hours + self.extra_hours


@dataclass
class Sec7Result:
    scenarios: List[OverheadScenario]
    stratification_extra_fraction: float

    def rows(self) -> List[str]:
        lines = [f"{'scenario':>28}  {'W':>4}  {'conf':>5}  "
                 f"{'detailed h':>10}  {'extra h':>8}  {'total h':>8}"]
        for s in self.scenarios:
            lines.append(
                f"{s.label:>28}  {s.workloads:4d}  {s.confidence:5.2f}  "
                f"{s.detailed_hours:10.1f}  {s.extra_hours:8.1f}  "
                f"{s.total_hours:8.1f}")
        return lines


def run_paper_numbers(instructions: float = 100e6, cores: int = 4,
                      benchmarks: int = 22) -> Sec7Result:
    """The exact Section VII-A arithmetic with the paper's MIPS."""
    model = OverheadModel(
        instructions_per_thread=instructions,
        cores=cores,
        benchmarks=benchmarks,
        detailed_mips=PAPER_MIPS["detailed_4core"],
        detailed_single_mips=PAPER_MIPS["detailed_single"],
        approx_mips=PAPER_MIPS["badco_4core"],
    )
    scenarios = [
        OverheadScenario("balanced random (75 %)", 30, 0.75,
                         model.detailed_hours(30), 0.0),
        OverheadScenario("balanced random (90 %)", 120, 0.90,
                         model.detailed_hours(120), 0.0),
        OverheadScenario("workload strata (99 %)", 30, 0.99,
                         model.detailed_hours(30),
                         model.model_building_hours()
                         + model.approx_hours(800)),
    ]
    return Sec7Result(
        scenarios=scenarios,
        stratification_extra_fraction=model.stratification_overhead(30, 800))


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None) -> Dict[str, Sec7Result]:
    """Both variants: paper MIPS, and MIPS measured on this machine."""
    session = session or Session(scale)
    paper = run_paper_numbers()
    table3 = run_table3(scale, session, core_counts=(1, 4),
                        workloads_per_point=2)
    measured_model = OverheadModel(
        instructions_per_thread=session.parameters.trace_length,
        cores=4,
        benchmarks=len(session.benchmarks),
        detailed_mips=table3.rows_by_cores[4].detailed_mips,
        detailed_single_mips=table3.rows_by_cores[1].detailed_mips,
        approx_mips=table3.rows_by_cores[4].badco_mips,
    )
    measured = Sec7Result(
        scenarios=[
            OverheadScenario("balanced random (75 %)", 30, 0.75,
                             measured_model.detailed_hours(30), 0.0),
            OverheadScenario("balanced random (90 %)", 120, 0.90,
                             measured_model.detailed_hours(120), 0.0),
            OverheadScenario("workload strata (99 %)", 30, 0.99,
                             measured_model.detailed_hours(30),
                             measured_model.model_building_hours()
                             + measured_model.approx_hours(800)),
        ],
        stratification_extra_fraction=measured_model.stratification_overhead(30, 800))
    return {"paper-mips": paper, "measured-mips": measured}


def main() -> None:
    results = run()
    for label, result in results.items():
        print(f"Section VII-A overhead example ({label})")
        for row in result.rows():
            print(row)
        print(f"stratification extra fraction: "
              f"{result.stratification_extra_fraction:.2f}")


if __name__ == "__main__":
    main()
