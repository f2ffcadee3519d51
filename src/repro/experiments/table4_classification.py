"""Table IV: classifying the benchmarks by memory intensity (MPKI).

The paper classifies its 22 SPEC benchmarks into Low (MPKI < 1),
Medium (< 5) and High (>= 5) by LLC misses per kilo-instruction.  We
measure each synthetic benchmark's single-thread MPKI on the reference
uncore with the detailed simulator (post-warmup, so compulsory misses
of the first pass do not dominate the short traces) and regenerate the
classification, which the benchmark-stratification method (Fig. 6)
then uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api import Scale, Session
from repro.bench.generator import cached_trace
from repro.bench.spec import MpkiClass, TABLE_IV
from repro.core.classification import classify_benchmarks
from repro.cpu.core import DetailedCore
from repro.cpu.resources import default_core_config
from repro.mem.uncore import Uncore, uncore_config_for_cores


def measure_mpki(benchmark: str, trace_length: int, seed: int = 0,
                 warmup_fraction: float = 0.25) -> float:
    """Single-thread LLC MPKI on the reference (2-core LRU) uncore."""
    uncore = Uncore(uncore_config_for_cores(1, "LRU"), seed=seed)

    def access(address: int, now: int, is_write: bool, pc: int,
               is_prefetch: bool = False) -> int:
        return uncore.access(0, address, now, is_write, pc, is_prefetch)

    trace = cached_trace(benchmark, trace_length, seed)
    core = DetailedCore(0, default_core_config(), trace, access)
    warmup = int(trace_length * warmup_fraction)
    while core.position < warmup:
        core.advance()
    misses_before = uncore.llc_demand_misses
    executed_before = core.executed
    while not core.done:
        core.advance()
    misses = uncore.llc_demand_misses - misses_before
    kilo_instructions = (core.executed - executed_before) / 1000.0
    return misses / kilo_instructions


@dataclass
class Table4Result:
    mpki: Dict[str, float]
    classes: Dict[str, MpkiClass]

    def matches_paper(self) -> Dict[str, bool]:
        """Per-benchmark: did we land in the paper's Table IV class?"""
        paper = {name: cls for cls, names in TABLE_IV.items()
                 for name in names}
        return {name: self.classes[name] == paper[name]
                for name in self.mpki}

    def rows(self) -> List[str]:
        lines = [f"{'benchmark':>12}  {'MPKI':>8}  {'class':>7}  {'paper':>7}"]
        paper = {name: cls for cls, names in TABLE_IV.items()
                 for name in names}
        for name in sorted(self.mpki, key=lambda n: self.mpki[n]):
            lines.append(
                f"{name:>12}  {self.mpki[name]:8.2f}  "
                f"{self.classes[name].value:>7}  {paper[name].value:>7}")
        return lines


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None) -> Table4Result:
    session = session or Session(scale)
    length = session.parameters.trace_length
    mpki = {name: measure_mpki(name, length, seed=session.seed)
            for name in session.benchmarks}
    return Table4Result(mpki=mpki, classes=classify_benchmarks(mpki))


def main() -> None:
    result = run()
    print("Table IV: benchmark classification by MPKI")
    for row in result.rows():
        print(row)
    matches = result.matches_paper()
    print(f"matching the paper's classes: {sum(matches.values())}/{len(matches)}")


if __name__ == "__main__":
    main()
