"""The per-workload difference variable d(w) of Section III.

To compare microarchitectures X and Y under random sampling, the paper
studies the random variable d(w):

- IPCT / WSU (A-mean metrics):  d(w) = t_Y(w) - t_X(w)        (eq. 4)
- HSU (H-mean):                 d(w) = 1/t_X(w) - 1/t_Y(w)    (eq. 7)
- GMS (G-mean, footnote 3):     d(w) = log t_Y(w) - log t_X(w)

In every case the CLT applies to the A-mean of d(w) over a random
sample, positive D means "Y better than X", and the coefficient of
variation cv = sigma/mu of d(w) is the single parameter of the
confidence model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.metrics import ReferenceIpcs, ThroughputMetric
from repro.core.workload import Workload

#: Per-workload per-core IPCs of one microarchitecture, keyed by workload.
IpcTable = Mapping[Workload, Sequence[float]]


@dataclass(frozen=True)
class DeltaStatistics:
    """Summary statistics of d(w) over a workload set.

    Attributes:
        mean: mu, the mean of d(w); positive means Y beats X.
        std: sigma, the (population) standard deviation of d(w).
    """

    mean: float
    std: float

    @property
    def cv(self) -> float:
        """Coefficient of variation sigma/mu (signed, may be infinite)."""
        if self.mean == 0.0:
            return math.inf
        return self.std / self.mean

    @property
    def inverse_cv(self) -> float:
        """1/cv = mu/sigma, the quantity plotted in Figs. 4 and 5."""
        if self.std == 0.0:
            if self.mean == 0.0:
                # d(w) identically zero: the machines are
                # indistinguishable -- no sample size gives signal.
                return 0.0
            return math.inf if self.mean > 0 else -math.inf
        return self.mean / self.std


class DeltaVariable:
    """d(w) for a (X, Y, metric) triple, evaluated from IPC tables.

    Args:
        metric: the throughput metric under which X and Y are compared.
        reference: single-thread reference IPCs (needed by WSU/HSU/GMS).
    """

    def __init__(self, metric: ThroughputMetric,
                 reference: Optional[ReferenceIpcs] = None) -> None:
        self.metric = metric
        self.reference = reference

    def throughput(self, workload: Workload, ipcs: Sequence[float]) -> float:
        """t(w) under this metric."""
        return self.metric.workload_throughput(
            ipcs, workload.benchmarks, self.reference)

    def values_from_throughputs(self, tx, ty):
        """d(w) from precomputed throughputs (scalars or arrays).

        The single implementation behind both the scalar and the
        columnar paths: every operation is element-wise, so applying it
        to N-vectors is bit-identical to N scalar calls.
        """
        if self.metric.mean_kind == "A":
            return ty - tx
        if self.metric.mean_kind == "H":
            return 1.0 / tx - 1.0 / ty
        if np.any(np.asarray(tx) <= 0) or np.any(np.asarray(ty) <= 0):
            raise ValueError("G-mean d(w) needs positive throughputs")
        return np.log(ty) - np.log(tx)       # G-mean (footnote 3)

    def value(self, workload: Workload, ipcs_x: Sequence[float],
              ipcs_y: Sequence[float]) -> float:
        """d(w) for one workload given both machines' per-core IPCs."""
        tx = self.throughput(workload, ipcs_x)
        ty = self.throughput(workload, ipcs_y)
        return float(self.values_from_throughputs(tx, ty))

    def table(self, workloads: Sequence[Workload], ipcs_x: IpcTable,
              ipcs_y: IpcTable) -> Dict[Workload, float]:
        """d(w) for every workload in a set."""
        return {w: self.value(w, ipcs_x[w], ipcs_y[w]) for w in workloads}


def delta_statistics(
        values: Union[Sequence[float], np.ndarray]) -> DeltaStatistics:
    """Mean and population standard deviation of d(w) samples.

    Accepts either a scalar sequence (summed left to right, the
    historical behaviour) or a NumPy vector (pairwise summation; may
    differ from the scalar path in the final ulp).
    """
    if len(values) == 0:
        raise ValueError("no d(w) values")
    if isinstance(values, np.ndarray):
        mean = float(values.mean())
        variance = float(np.square(values - mean).mean())
        return DeltaStatistics(mean=mean, std=math.sqrt(variance))
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return DeltaStatistics(mean=mean, std=math.sqrt(variance))
