"""Figure 2: detailed-simulator CPI vs BADCO CPI.

The paper plots, for every benchmark in each of 250 workload
combinations, the Zesto CPI against the BADCO CPI, and reports the
average CPI error (4.59 / 3.98 / 4.09 % for 2/4/8 cores, max < 22 %)
and the much smaller *speedup* error (0.66 / 0.61 / 1.43 %).  We
reproduce both statistics on the detailed sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import Scale, Session


@dataclass
class Fig2CoreResult:
    """Accuracy statistics for one core count."""

    cores: int
    points: List[Tuple[float, float]]       # (badco CPI, detailed CPI)
    mean_cpi_error: float                   # percent
    max_cpi_error: float                    # percent
    mean_speedup_error: float               # percent, across policy pairs
    badco_underestimates: float             # fraction of points below bisector


@dataclass
class Fig2Result:
    per_cores: Dict[int, Fig2CoreResult]

    def rows(self) -> List[str]:
        lines = [f"{'cores':>5}  {'mean CPI err %':>14}  {'max CPI err %':>13}  "
                 f"{'mean SU err %':>13}  {'CPI underest.':>13}"]
        for cores in sorted(self.per_cores):
            r = self.per_cores[cores]
            lines.append(
                f"{cores:5d}  {r.mean_cpi_error:14.2f}  {r.max_cpi_error:13.2f}  "
                f"{r.mean_speedup_error:13.2f}  {r.badco_underestimates:13.2f}")
        return lines


def _speedup_errors(detailed, badco, baseline: str, workloads) -> List[float]:
    """Per-policy-pair IPC-throughput speedup errors (percent)."""
    errors = []
    policies = [p for p in detailed.policies if p != baseline]
    for policy in policies:
        for workload in workloads:
            det_base = sum(detailed.ipcs(baseline, workload))
            det_new = sum(detailed.ipcs(policy, workload))
            bad_base = sum(badco.ipcs(baseline, workload))
            bad_new = sum(badco.ipcs(policy, workload))
            su_det = det_new / det_base
            su_bad = bad_new / bad_base
            errors.append(abs(su_bad - su_det) / su_det * 100.0)
    return errors


def run(scale: Scale = Scale.MEDIUM,
        session: Optional[Session] = None,
        core_counts: Tuple[int, ...] = (2, 4, 8),
        approx_backend: str = "badco") -> Fig2Result:
    session = session or Session(scale)
    per_cores: Dict[int, Fig2CoreResult] = {}
    for cores in core_counts:
        sample = session.detailed_sample(cores)
        detailed = session.results("detailed", cores, workloads=sample)
        badco = session.results(approx_backend, cores, workloads=sample)
        points: List[Tuple[float, float]] = []
        errors: List[float] = []
        under = 0
        for workload in sample:
            for policy in ("LRU",):
                det = detailed.ipcs(policy, workload)
                bad = badco.ipcs(policy, workload)
                for ipc_d, ipc_b in zip(det, bad):
                    cpi_d = 1.0 / ipc_d
                    cpi_b = 1.0 / ipc_b
                    points.append((cpi_b, cpi_d))
                    errors.append(abs(cpi_b - cpi_d) / cpi_d * 100.0)
                    if cpi_b < cpi_d:
                        under += 1
        speedup_errors = _speedup_errors(detailed, badco, "LRU", sample)
        per_cores[cores] = Fig2CoreResult(
            cores=cores,
            points=points,
            mean_cpi_error=sum(errors) / len(errors),
            max_cpi_error=max(errors),
            mean_speedup_error=sum(speedup_errors) / len(speedup_errors),
            badco_underestimates=under / len(points),
        )
    return Fig2Result(per_cores)


def main() -> None:
    result = run()
    print("Figure 2: Zesto-analogue CPI vs BADCO CPI")
    for row in result.rows():
        print(row)


if __name__ == "__main__":
    main()
