"""Estimation as a service: the resident-state serve daemon.

``repro serve`` keeps everything that makes a warm estimate fast --
trained models, enumerated :class:`~repro.core.codematrix.CodeMatrix`
populations, loaded campaign panels -- resident in one long-lived
process, and answers estimate / study / panel queries over a Unix
socket or TCP port in milliseconds instead of paying process start,
store reload and enumeration per invocation.

Layers (each its own module):

- :mod:`~repro.serve.protocol` -- newline-framed JSON, lossless
  estimate payloads;
- :mod:`~repro.serve.cache` -- the resident panel LRU (its byte budget
  bounds the cache's own references, not the daemon's memory);
- :mod:`~repro.serve.state` -- memoised sessions over the shared LRU;
- :mod:`~repro.serve.scheduler` -- dedup + coalesced grid dispatch;
- :mod:`~repro.serve.server` / :mod:`~repro.serve.client` -- the
  daemon and its Python client.
"""

from repro.serve.cache import DEFAULT_BUDGET_BYTES, ResidentPanelCache
from repro.serve.client import ReproClient, ServerError
from repro.serve.scheduler import DEFAULT_WINDOW_SECONDS, RequestScheduler
from repro.serve.server import ReproServer
from repro.serve.state import ResidentState

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "DEFAULT_WINDOW_SECONDS",
    "ReproClient",
    "ReproServer",
    "RequestScheduler",
    "ResidentPanelCache",
    "ResidentState",
    "ServerError",
]
