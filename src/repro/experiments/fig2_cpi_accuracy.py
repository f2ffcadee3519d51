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


def _speedup_errors(detailed: Dict[str, List[List[float]]],
                    badco: Dict[str, List[List[float]]],
                    baseline: str) -> List[float]:
    """Per-policy-pair IPC-throughput speedup errors (percent).

    ``detailed`` and ``badco`` map each policy to its per-row IPC lists,
    rows in the same order.  Throughputs are Python ``sum()`` calls,
    left to right.
    """
    errors = []
    policies = [p for p in detailed if p != baseline]
    for policy in policies:
        for det_base, det_new, bad_base, bad_new in zip(
                detailed[baseline], detailed[policy], badco[baseline],
                badco[policy]):
            su_det = sum(det_new) / sum(det_base)
            su_bad = sum(bad_new) / sum(bad_base)
            errors.append(abs(su_bad - su_det) / su_det * 100.0)
    return errors


def _rows(results, policies, sample) -> Dict[str, List[List[float]]]:
    """Each policy's IPCs over the sample, as per-row Python lists."""
    _, matrices = results.columnar_panel(policies, sample)
    return {policy: matrix.values.tolist()
            for policy, matrix in matrices.items()}


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
        policies = detailed.policies
        det_rows = _rows(detailed, policies, sample)
        bad_rows = _rows(badco, policies, sample)
        points: List[Tuple[float, float]] = []
        errors: List[float] = []
        under = 0
        for det, bad in zip(det_rows["LRU"], bad_rows["LRU"]):
            for ipc_d, ipc_b in zip(det, bad):
                cpi_d = 1.0 / ipc_d
                cpi_b = 1.0 / ipc_b
                points.append((cpi_b, cpi_d))
                errors.append(abs(cpi_b - cpi_d) / cpi_d * 100.0)
                if cpi_b < cpi_d:
                    under += 1
        speedup_errors = _speedup_errors(det_rows, bad_rows, "LRU")
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
