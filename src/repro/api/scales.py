"""Experiment scales: how big a reproduction run should be.

The paper's populations (253 / 12650 / 10000 workloads at 100 M
instructions each) are out of reach for a pure-Python reproduction run
under CI, so every entry point accepts a :class:`Scale`:

- ``SMALL``: seconds; unit-test sized, statistically noisy.
- ``MEDIUM``: minutes; the default for the benchmark harness --
  population shapes and orderings are stable at this size.
- ``FULL``: the paper's population sizes (hours of CPU).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union


class Scale(enum.Enum):
    """Experiment size knob (see module docstring)."""

    SMALL = "small"
    MEDIUM = "medium"
    FULL = "full"


ScaleLike = Union["Scale", str]


def coerce_scale(value: ScaleLike) -> Scale:
    """Accept a :class:`Scale` or its name ("small" / "medium" / "full")."""
    if isinstance(value, Scale):
        return value
    try:
        return Scale(str(value).lower())
    except ValueError:
        raise ValueError(
            f"scale must be one of {', '.join(s.value for s in Scale)} "
            f"(got {value!r})") from None


@dataclass(frozen=True)
class ScaleParameters:
    """Concrete sizes for one scale.

    Attributes:
        trace_length: uops per thread.
        population_cap: max workloads in the approximate-simulation
            population per core count (None = the paper's exact sizes).
        detailed_sample: workloads simulated with the detailed
            simulator (the paper uses 250).
        draws: Monte-Carlo resamples per confidence estimate.
    """

    trace_length: int
    population_cap: Dict[int, int]
    detailed_sample: int
    draws: int


_PARAMETERS: Dict[Scale, ScaleParameters] = {
    Scale.SMALL: ScaleParameters(
        trace_length=6000,
        population_cap={2: 60, 4: 80, 8: 60},
        detailed_sample=8,
        draws=200,
    ),
    Scale.MEDIUM: ScaleParameters(
        trace_length=16000,
        population_cap={2: 253, 4: 700, 8: 400},
        detailed_sample=40,
        draws=1000,
    ),
    Scale.FULL: ScaleParameters(
        trace_length=20000,
        population_cap={2: 253, 4: 12650, 8: 10000},
        detailed_sample=250,
        draws=10000,
    ),
}


def scale_parameters(scale: ScaleLike) -> ScaleParameters:
    """The concrete sizes of one scale."""
    return _PARAMETERS[coerce_scale(scale)]


def default_cache_dir() -> Optional[Path]:
    """Campaign cache directory (``REPRO_CACHE_DIR``; empty disables)."""
    value = os.environ.get("REPRO_CACHE_DIR")
    if value == "":
        return None
    if value:
        return Path(value)
    return Path.home() / ".cache" / "repro-ispass2013"


def default_model_store_dir(cache_dir: Optional[Path]) -> Optional[Path]:
    """Trained-model store directory for a session.

    ``REPRO_MODEL_STORE_DIR`` overrides (empty string disables);
    otherwise the store lives in a ``models/`` subdirectory of the
    campaign cache -- so disabling the cache (CI hermeticity) disables
    model persistence with it.
    """
    value = os.environ.get("REPRO_MODEL_STORE_DIR")
    if value == "":
        return None
    if value:
        return Path(value)
    if cache_dir is None:
        return None
    return Path(cache_dir) / "models"
