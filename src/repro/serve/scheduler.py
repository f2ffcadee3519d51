"""The request scheduler: dedup, coalescing, one dispatch per window.

Two layers sit between the socket handlers and the resident sessions:

**Deduplication** -- identical in-flight queries (same op, same
canonical parameters) share one :class:`~concurrent.futures.Future`;
the second client rides the first's computation.

**Coalescing** -- concurrent ``estimate`` queries over the same
*population universe* -- equal session parameters, backend, cores and
frame size, but any mix of policy pairs -- merge into one group per
scheduling window.  The group leader sleeps out the window, unions the
member policy pairs, and warms the shared campaign with a single
``run_batch_grid`` N x P x K dispatch; every member's
``estimate_full_scale`` then finds its panels cached and runs the
read-only math.  Per-policy slices of one grid dispatch are
bit-identical to single-policy panels (the contract of every
simulator's ``run_batch_grid``, the engine's one call), so coalescing
is invisible in the results: M overlapping
requests cost one dispatch instead of M, and return exactly what M
one-shot sessions would have.

Warm requests skip the window: when the opening request would hit the
session's d(w) memo (:meth:`~repro.api.session.Session.estimate_is_warm`
-- pure reads, nothing to coalesce), its group opens with a zero
window and an all-warm group skips the shared dispatch entirely, so
the resident hot path pays only the confidence math and the wire.

Locking: the leader holds its universe's lock (see
:meth:`~repro.serve.state.ResidentState.session_lock`: one per (scale,
seed), since sessions that differ only in their benchmark list share
campaigns) for the panel phase -- simulation, reference IPCs, the
dirty-gated save.  Ops that mutate session state beyond panels
(``study`` materialises dict views, ``estimate_two_stage`` runs a
refine campaign) execute entirely under that lock; warm ``estimate``
math reads immutable panel blocks and runs lock-free.
"""

from __future__ import annotations

import inspect
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.api.session import DEFAULT_CORES, Session
from repro.mem.replacement import validate_policy_name
from repro.serve import protocol
from repro.serve.state import ResidentState, split_params

logger = logging.getLogger(__name__)

#: How long a coalescing group stays open for late joiners.  Long
#: enough to catch a concurrent burst, short next to the panel dispatch
#: a cold group pays (a warm group opens with no window).
DEFAULT_WINDOW_SECONDS = 0.01

_ESTIMATE_DEFAULTS = {"backend": "analytic", "cores": DEFAULT_CORES,
                      "sample": None}

#: The session method each estimate op runs; a request's operation
#: keywords must bind to its signature.
_ESTIMATE_SIGNATURES = {
    "estimate": inspect.signature(Session.estimate_full_scale),
    "estimate_two_stage": inspect.signature(Session.estimate_two_stage),
}


@dataclass
class _Group:
    """One open coalescing window's members."""

    members: List[Tuple[Dict[str, Any], Future]] = field(
        default_factory=list)
    #: 0.0 when the opening request is already warm (pure memo reads):
    #: the window would only add latency, so the leader skips the sleep.
    window_seconds: float = DEFAULT_WINDOW_SECONDS


class RequestScheduler:
    """Schedules queries onto a worker pool with dedup + coalescing.

    Args:
        state: the daemon's :class:`~repro.serve.state.ResidentState`.
        workers: worker threads (each runs one leader or simple op).
        window_seconds: coalescing window for ``estimate`` queries.
    """

    def __init__(self, state: ResidentState, workers: int = 4,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS) -> None:
        self.state = state
        self.window_seconds = window_seconds
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._groups: Dict[Tuple[Any, ...], _Group] = {}
        self._inflight: Dict[Tuple[str, str], Future] = {}
        self.requests = 0
        self.deduplicated = 0
        self.dispatch_groups = 0
        self.coalesced = 0

    # ------------------------------------------------------------------
    # Submission

    def submit(self, op: str, params: Dict[str, Any]) -> Future:
        """Schedule one query; the future resolves to its wire result.

        A malformed estimate (say ``seed: "x"``), an oversize one (see
        :func:`~repro.serve.protocol.check_estimate_bounds`) or one
        whose operation keywords do not bind to its session method (say
        ``jobs``) resolves to its error at once, before it opens a
        dispatch group or reaches a worker: it warms no panel, and a
        repeat of it is not deduplicated onto a future that never
        resolves.
        """
        dedup_key = (op, protocol.canonical_params(params))
        malformed = None
        with self._lock:
            self.requests += 1
            existing = self._inflight.get(dedup_key)
            if existing is not None:
                self.deduplicated += 1
                return existing
            future: Future = Future()
            self._inflight[dedup_key] = future
            future.add_done_callback(
                lambda _, key=dedup_key: self._forget(key))
            if op in ("estimate", "estimate_two_stage"):
                try:
                    protocol.check_estimate_bounds(params)
                    _ESTIMATE_SIGNATURES[op].bind(
                        None, **split_params(params)[1])
                    if op == "estimate":
                        self._join_group(params, future)
                        return future
                except Exception as error:
                    malformed = error
        if malformed is not None:
            # Outside the lock: the _forget callback takes it.
            future.set_exception(malformed)
        else:
            self._pool.submit(self._run_simple, op, params, future)
        return future

    def _forget(self, dedup_key: Tuple[str, str]) -> None:
        with self._lock:
            self._inflight.pop(dedup_key, None)

    # ------------------------------------------------------------------
    # Coalescing

    @staticmethod
    def _group_key(params: Dict[str, Any]) -> Tuple[Any, ...]:
        """The population universe one estimate request needs warmed."""
        session_kwargs, op_kwargs = split_params(params)
        merged = {**_ESTIMATE_DEFAULTS, **op_kwargs}
        return (ResidentState.session_key(**session_kwargs),
                str(merged["backend"]), int(merged["cores"]),
                merged["sample"])

    def _join_group(self, params: Dict[str, Any], future: Future) -> None:
        """Append to the open window's group (caller holds the lock)."""
        group_key = self._group_key(params)
        group = self._groups.get(group_key)
        if group is None:
            window = (0.0 if self._estimate_is_warm(params)
                      else self.window_seconds)
            group = _Group(window_seconds=window)
            self._groups[group_key] = group
            self._pool.submit(self._run_estimate_group, group_key, group)
        group.members.append((params, future))

    def _estimate_is_warm(self, params: Dict[str, Any]) -> bool:
        """Whether this estimate is pure memo reads (no dispatch).

        Any failure reads as cold: a malformed member must fail alone,
        in its own estimate, not sink the probe of its whole group.
        """
        try:
            session_kwargs, op_kwargs = split_params(params)
            session = self.state.session(**session_kwargs)
            return bool(session.estimate_is_warm(**op_kwargs))
        except Exception as error:
            logger.debug("warm probe failed, treating the estimate as "
                         "cold: %s: %s", type(error).__name__, error)
            return False

    def _run_estimate_group(self, group_key: Tuple[Any, ...],
                            group: _Group) -> None:
        if group.window_seconds:
            time.sleep(group.window_seconds)
        with self._lock:
            # Closing the window: joins only happen while the group is
            # registered, so after this pop the member list is final.
            self._groups.pop(group_key, None)
            members = list(group.members)
            self.dispatch_groups += 1
            self.coalesced += len(members) - 1
        try:
            session_kwargs, _ = split_params(members[0][0])
            session = self.state.session(**session_kwargs)
            lock = self.state.session_lock(
                self.state.session_key(**session_kwargs))
            # An all-warm group (every member hits the session's d(w)
            # memo) needs no shared dispatch at all; one cold member --
            # even one that raced into a zero-window warm group -- puts
            # the locked warm-up back on the path.
            if not all(self._estimate_is_warm(params)
                       for params, _ in members):
                _, backend, cores, sample = group_key
                policies: List[str] = []
                for params, _ in members:
                    _, op_kwargs = split_params(params)
                    for name in (op_kwargs.get("baseline", "LRU"),
                                 op_kwargs.get("candidate", "DIP")):
                        try:
                            name = validate_policy_name(name)
                        except (AttributeError, ValueError):
                            # Unknown, or not a string: that member
                            # fails alone, in its own estimate below.
                            continue
                        if name not in policies:
                            policies.append(name)
                with lock:
                    population = session.population(cores, sample)
                    session.results(backend, cores, policies=policies,
                                    workloads=population)
        except BaseException as error:
            for _, future in members:
                if future.set_running_or_notify_cancel():
                    future.set_exception(error)
            return
        # Panels are warm: each member's estimate is read-only math on
        # cached blocks, bit-identical to its one-shot equivalent.
        for params, future in members:
            if not future.set_running_or_notify_cancel():
                continue
            try:
                _, op_kwargs = split_params(params)
                estimate = session.estimate_full_scale(**op_kwargs)
                future.set_result(protocol.estimate_to_wire(estimate))
            except BaseException as error:
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Simple (non-coalesced) operations

    def _run_simple(self, op: str, params: Dict[str, Any],
                    future: Future) -> None:
        if not future.set_running_or_notify_cancel():
            return
        try:
            future.set_result(self._execute(op, params))
        except BaseException as error:
            future.set_exception(error)

    def _execute(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {"pong": True}
        if op == "stats":
            stats = self.state.stats()
            stats["scheduler"] = self.counters()
            return stats
        session_kwargs, op_kwargs = split_params(params)
        session = self.state.session(**session_kwargs)
        lock = self.state.session_lock(
            self.state.session_key(**session_kwargs))
        if op == "estimate_two_stage":
            with lock:
                return protocol.estimate_to_wire(
                    session.estimate_two_stage(**op_kwargs))
        if op == "study":
            baseline = op_kwargs.pop("baseline", "LRU")
            candidate = op_kwargs.pop("candidate", "DIP")
            with lock:
                study = session.study(baseline, candidate, **op_kwargs)
                decision = study.guideline()
                return {
                    "baseline": baseline,
                    "candidate": candidate,
                    "inverse_cv": study.inverse_cv,
                    "cv": study.cv,
                    "y_outperforms_x": study.y_outperforms_x(),
                    "required_sample_size": study.required_sample_size(),
                    "guideline": {
                        "recommendation": str(
                            getattr(decision.recommendation, "value",
                                    decision.recommendation)),
                        "cv": decision.cv,
                        "sample_size": decision.sample_size,
                    },
                }
        if op == "panel":
            include_ipcs = bool(op_kwargs.pop("include_ipcs", False))
            with lock:
                index, matrices, reference = session.panel(**op_kwargs)
                wire: Dict[str, Any] = {
                    "rows": len(index),
                    "policies": sorted(matrices),
                    "reference": dict(reference),
                }
                if include_ipcs:
                    wire["workloads"] = [w.key() for w in index.workloads]
                    wire["ipcs"] = {policy: matrix.values.tolist()
                                    for policy, matrix in matrices.items()}
                return wire
        raise protocol.ProtocolError(f"unknown op {op!r}")

    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Scheduling counters (requests / dedup / coalescing)."""
        with self._lock:
            return {
                "requests": self.requests,
                "deduplicated": self.deduplicated,
                "dispatch_groups": self.dispatch_groups,
                "coalesced": self.coalesced,
            }

    def close(self) -> None:
        """Drain the worker pool (open windows finish first)."""
        self._pool.shutdown(wait=True)
