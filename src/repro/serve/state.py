"""Resident daemon state: memoised sessions over one shared panel LRU.

:class:`ResidentState` is everything the serve daemon keeps warm
between queries:

- one :class:`~repro.serve.cache.ResidentPanelCache` shared by every
  session's campaigns (mmap'd npz panels, byte-budgeted LRU);
- memoised :class:`~repro.api.session.Session` objects keyed by the
  parameters that define one (scale, seed, benchmarks, jobs,
  fast-sampling) universe -- sessions in turn memoise builders,
  campaigns and ``(cores, sample)`` populations, so a warm query
  re-derives nothing;
- the process-wide :mod:`~repro.core.codematrix` enumeration cache
  (the 2.8 s / 69 MB 8-core ``CodeMatrix.full``), which sessions share
  implicitly;
- a per-session :class:`threading.RLock` that the scheduler holds for
  every state-mutating phase (panel simulation and save, dict
  materialisation, refine passes), leaving warm read-only estimate
  math lock-free.

Storage locations (``cache_dir`` / ``model_store_dir``) are fixed at
daemon start, not per request: clients name experiments, the operator
names directories.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.api.session import Session
from repro.core.codematrix import enumeration_cache_info
from repro.serve.cache import DEFAULT_BUDGET_BYTES, ResidentPanelCache

#: Request parameters that select (and key) a session; everything else
#: in an estimate/study/panel request is an operation parameter.
SESSION_PARAMS = ("scale", "seed", "benchmarks", "jobs", "fast_sampling")

SessionKey = Tuple[Any, ...]


def split_params(params: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split request params into (session kwargs, operation kwargs)."""
    session_kwargs = {}
    op_kwargs = {}
    for name, value in params.items():
        if name in SESSION_PARAMS:
            session_kwargs[name] = value
        else:
            op_kwargs[name] = value
    return session_kwargs, op_kwargs


class ResidentState:
    """The daemon's warm universe of sessions, panels and models.

    Args:
        cache_dir: campaign cache directory for every session
            (None = the scale-default directory, exactly as the CLI).
        model_store_dir: trained-model store for every session
            (None = the cache's ``models/`` subdirectory, '' disables).
        budget_bytes: resident panel LRU budget.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None,
                 model_store_dir: Optional[Union[str, Path]] = None,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.model_store_dir = model_store_dir
        self.panel_cache = ResidentPanelCache(budget_bytes)
        self._sessions: Dict[SessionKey, Session] = {}
        self._locks: Dict[SessionKey, threading.RLock] = {}
        self._lock = threading.Lock()

    @staticmethod
    def session_key(scale: Any = "small", seed: int = 0,
                    benchmarks: Optional[Sequence[str]] = None,
                    jobs: int = 1,
                    fast_sampling: Optional[bool] = None) -> SessionKey:
        """The hashable identity of one session's parameter set."""
        from repro.api.scales import coerce_scale

        return (coerce_scale(scale).value, int(seed),
                tuple(benchmarks) if benchmarks is not None else None,
                int(jobs), fast_sampling)

    def session(self, scale: Any = "small", seed: int = 0,
                benchmarks: Optional[Sequence[str]] = None, jobs: int = 1,
                fast_sampling: Optional[bool] = None) -> Session:
        """The memoised resident session for one parameter set.

        An ordinary :class:`Session` that only shares
        :attr:`panel_cache`, so served answers run the one-shot code
        and are bit-identical to it.
        """
        key = self.session_key(scale, seed, benchmarks, jobs, fast_sampling)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = Session(
                    scale, seed=int(seed), jobs=int(jobs),
                    cache_dir=self.cache_dir,
                    model_store_dir=self.model_store_dir,
                    benchmarks=benchmarks, fast_sampling=fast_sampling,
                    panel_cache=self.panel_cache)
                self._sessions[key] = session
            return session

    def session_lock(self, key: SessionKey) -> threading.RLock:
        """The lock serialising one session's mutating phases."""
        with self._lock:
            lock = self._locks.get(key)
            if lock is None:
                lock = threading.RLock()
                self._locks[key] = lock
            return lock

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            sessions = len(self._sessions)
        return {
            "sessions": sessions,
            "panel_cache": self.panel_cache.stats(),
            "enumeration_cache": enumeration_cache_info(),
        }
