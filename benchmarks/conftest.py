"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures and
asserts its qualitative shape.  The scale comes from the REPRO_SCALE
environment variable (small | medium | full; default small so the
whole harness completes in minutes), and simulation campaigns are
cached on disk (REPRO_CACHE_DIR) and shared across benchmarks via one
pytest-session-scoped :class:`repro.api.Session`.
"""

import os

import pytest

from repro.api import Scale, Session


def _scale() -> Scale:
    name = os.environ.get("REPRO_SCALE", "small").lower()
    return {"small": Scale.SMALL, "medium": Scale.MEDIUM,
            "full": Scale.FULL}[name]


@pytest.fixture(scope="session")
def scale() -> Scale:
    return _scale()


@pytest.fixture(scope="session")
def session(scale) -> Session:
    return Session(scale, seed=0)
