"""Span recorders wrapped around the program's public calls.

A traced run never edits the program.  :meth:`Tracer.install` replaces
each public function or method listed in :data:`WRAPPED` with a wrapper
that records a span (name, start, end, parent span, op id, thread) and
:meth:`Tracer.uninstall` puts the originals back, so untraced work in
the same process runs the program's own code objects.  A ``gc.callbacks``
hook records every collection as a child span of whatever span was
open, so a layer's self time excludes the pauses that landed in it and
``gc.pause_ms`` reports them on their own.

Spans stay in memory; :meth:`Tracer.write_chrome` writes them at the end
as Chrome trace-event JSON (open in chrome://tracing or Perfetto).
Timestamps come from ``time.monotonic()``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``, so the daemon's spans and the
benchmark's phase boundaries share one clock.

Op ids: a span opened with no parent starts an op and its id is the op
id; every nested span carries it.  In-process workloads open one root
``op`` span per operation; in the daemon each served
``Session.estimate_full_scale`` call is a root.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def _path_bytes(args, kwargs, result) -> Dict[str, Any]:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    try:
        return {"bytes": os.stat(path).st_size}
    except (OSError, TypeError):
        return {"bytes": 0}


def _load_hit(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _grid_cells(args, kwargs, result) -> Dict[str, Any]:
    return {"cells": int(result.ipcs.shape[0] * result.ipcs.shape[1])}


def _curve_draws(args, kwargs, result) -> Dict[str, Any]:
    return {"draws": int(args[0].draws) * len(result.sample_sizes)}


def _strata(args, kwargs, result) -> Dict[str, Any]:
    return {"strata": int(result.num_strata)}


def _batch_rows(args, kwargs, result) -> Dict[str, Any]:
    return {"rows": int(result.ipcs.shape[0]),
            "instructions": int(result.instructions)}


Annotator = Optional[Callable[[tuple, dict, Any], Dict[str, Any]]]

#: (module, class or None for a module function, attribute, span name,
#: annotator).  The span name's prefix is the layer; see README.md for
#: which end-to-end metric each layer should move.
WRAPPED: Tuple[Tuple[str, Optional[str], str, str, Annotator], ...] = (
    ("repro.api.session", "Session", "population", "population", None),
    ("repro.api.session", "Session", "estimate_full_scale",
     "session.estimate", None),
    ("repro.api.session", "Session", "estimate_two_stage",
     "session.two_stage", None),
    ("repro.sim.modelstore", "ModelStore", "load_badco_model",
     "modelstore.load", _load_hit),
    ("repro.sim.modelstore", "ModelStore", "load_record",
     "modelstore.load", _load_hit),
    ("repro.sim.modelstore", "ModelStore", "save_badco_model",
     "modelstore.save", None),
    ("repro.sim.modelstore", "ModelStore", "save_record",
     "modelstore.save", None),
    ("repro.sim.badco.model", "BadcoModelBuilder", "build",
     "setup.train", None),
    ("repro.sim.analytic", "AnalyticModelBuilder", "calibrate",
     "setup.calibrate", None),
    ("repro.sim.analytic", "AnalyticModelBuilder", "protection",
     "setup.calibrate", None),
    ("repro.sim.analytic", "AnalyticModelBuilder", "vectors",
     "analytic.vectors", None),
    ("repro.sim.analytic", "AnalyticSimulator", "run_batch_grid",
     "analytic.grid", _grid_cells),
    ("repro.api.engine", "Campaign", "run_grid", "engine.run_grid", None),
    ("repro.sim.results", "PopulationResults", "save",
     "results.save_json", _path_bytes),
    ("repro.sim.results", "PopulationResults", "save_npz",
     "results.save_npz", _path_bytes),
    ("repro.sim.results", "PopulationResults", "load_npz",
     "results.load_npz", None),
    ("repro.sim.results", "PopulationResults", "columnar_panel",
     "results.columnar_panel", None),
    ("repro.core.columnar", None, "delta_column_from_matrices",
     "delta.column", None),
    ("repro.core.delta", None, "delta_statistics", "delta.statistics",
     None),
    ("repro.core.sampling.workload_strata", "WorkloadStratification",
     "from_column", "estimator.strata", _strata),
    ("repro.core.estimator", "ConfidenceEstimator", "curve",
     "estimator.curve", _curve_draws),
    ("repro.sim.badco.multicore", "BadcoSimulator", "run_batch",
     "badco.batch", _batch_rows),
    ("repro.sim.badco.multicore", "BadcoSimulator", "reference_ipc",
     "badco.reference", None),
    ("repro.serve.client", "ReproClient", "request", "serve.client", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        frame = [span_id, name, time.monotonic(),
                 parent[0] if parent else 0,
                 parent[4] if parent else span_id]
        stack.append(frame)
        return frame

    def end(self, frame: list, attrs: Optional[Dict[str, Any]] = None
            ) -> Span:
        end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        span = Span(frame[0], frame[1], frame[2], end, frame[3], frame[4],
                    threading.get_ident(), attrs or {})
        self.spans.append(span)
        return span

    def op(self, name: str) -> "_OpSpan":
        """Context manager for one root operation span."""
        return _OpSpan(self, name)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._local.gc_started = time.monotonic()
            return
        started = getattr(self._local, "gc_started", None)
        if started is None:
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), "gc", started, time.monotonic(),
                    parent[0] if parent else 0, parent[4] if parent else 0,
                    threading.get_ident(),
                    {"generation": info.get("generation")})
        # list.append is atomic under the GIL; a lock here could
        # deadlock when a collection starts inside another append.
        self.spans.append(span)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, func: Callable, annotate: Annotator
              ) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.end(frame, {"error": True})
                raise
            tracer.end(frame, annotate(args, kwargs, result)
                       if annotate is not None else None)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every :data:`WRAPPED` call and hook the collector."""
        if self._patches:
            return self
        for module_name, owner_name, attr, name, annotate in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            own = vars(owner).get(attr)
            original = own if own is not None else getattr(owner, attr)
            if isinstance(original, staticmethod):
                patched: Any = staticmethod(
                    self._wrap(name, original.__func__, annotate))
            elif isinstance(original, classmethod):
                patched = classmethod(
                    self._wrap(name, original.__func__, annotate))
            else:
                patched = self._wrap(name, original, annotate)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original, own is not None))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Restore the program's own functions."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output --------------------------------------------------------

    def write_chrome(self, path: Path, metadata: Optional[dict] = None
                     ) -> None:
        """Write every span as Chrome trace-event JSON."""
        pid = os.getpid()
        events = [{
            "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
            "ts": span.start * 1e6, "dur": span.seconds * 1e6,
            "pid": pid, "tid": span.tid,
            "args": {"id": span.id, "parent": span.parent, "op": span.op,
                     **span.attrs},
        } for span in self.spans]
        payload = {"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata or {}}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


class _OpSpan:
    """A root span that also records the process's CPU time in it."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.span: Optional[Span] = None

    def __enter__(self) -> "_OpSpan":
        self._usage = resource.getrusage(resource.RUSAGE_SELF)
        self._frame = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.span = self.tracer.end(self._frame, {
            "cpu_user": usage.ru_utime - self._usage.ru_utime,
            "cpu_sys": usage.ru_stime - self._usage.ru_stime})


def read_chrome(path: Path) -> List[Span]:
    """Spans back from a file :meth:`Tracer.write_chrome` wrote."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    spans = []
    for event in events:
        args = dict(event["args"])
        span_id, parent, op = args.pop("id"), args.pop("parent"), \
            args.pop("op")
        start = event["ts"] / 1e6
        spans.append(Span(span_id, event["name"], start,
                          start + event["dur"] / 1e6, parent, op,
                          event["tid"], args))
    return spans


# ----------------------------------------------------------------------
# Layer table


def self_seconds(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children run on their parent's thread inside its interval, so the
    covered time is the sum of the direct children's durations.
    """
    spans = list(spans)
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent:
            covered[span.parent] = covered.get(span.parent, 0.0) \
                + span.seconds
    return {span.id: span.seconds - covered.get(span.id, 0.0)
            for span in spans}


#: Per-op self time (ms) of these span names, by metric.
_SELF_MS = {
    "population.ms": ("population",),
    "modelstore.load_ms": ("modelstore.load",),
    "modelstore.save_ms": ("modelstore.save",),
    "analytic.vectors_ms": ("analytic.vectors",),
    "analytic.grid_ms": ("analytic.grid",),
    "engine.run_grid_self_ms": ("engine.run_grid",),
    "results.save_json_ms": ("results.save_json",),
    "results.save_npz_ms": ("results.save_npz",),
    "results.load_npz_ms": ("results.load_npz",),
    "results.columnar_panel_ms": ("results.columnar_panel",),
    "delta.ms": ("delta.column", "delta.statistics"),
    "estimator.strata_ms": ("estimator.strata",),
    "estimator.curve_ms": ("estimator.curve",),
    "badco.batch_ms": ("badco.batch",),
    "badco.reference_ms": ("badco.reference",),
    "session.self_ms": ("session.estimate", "session.two_stage"),
    "gc.pause_ms": ("gc",),
}


def layer_table(spans: Iterable[Span], ops: int) -> Dict[str, float]:
    """Per-op layer metrics over the spans of ``ops`` operations.

    Times are self times in ms per op and counts are per op; ratios are
    over the whole set.  A layer the ops never entered reports 0.
    """
    spans = list(spans)
    own = self_seconds(spans)
    per_op = 1.0 / max(ops, 1)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total_ms(names: Tuple[str, ...]) -> float:
        return 1e3 * sum(own[span.id] for name in names
                         for span in by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(span.attrs.get(key, 0) or 0
                         for span in by_name.get(name, ())))

    table = {metric: total_ms(names) * per_op
             for metric, names in _SELF_MS.items()}
    loads = by_name.get("modelstore.load", [])
    table["modelstore.loads"] = len(loads) * per_op
    table["modelstore.hit_ratio"] = (
        sum(1 for span in loads if span.attrs.get("hit")) / len(loads)
        if loads else 0.0)
    table["analytic.cells"] = attr_sum("analytic.grid", "cells") * per_op
    table["results.bytes_written"] = (
        attr_sum("results.save_json", "bytes")
        + attr_sum("results.save_npz", "bytes")) * per_op
    table["estimator.draws"] = attr_sum("estimator.curve", "draws") * per_op
    strata = [span.attrs.get("strata", 0)
              for span in by_name.get("estimator.strata", ())]
    table["estimator.strata"] = statistics.fmean(strata) if strata else 0.0
    batch_seconds = sum(span.seconds for span in by_name.get("badco.batch",
                                                             ()))
    table["badco.rows"] = attr_sum("badco.batch", "rows") * per_op
    table["badco.mips"] = (attr_sum("badco.batch", "instructions")
                           / batch_seconds / 1e6 if batch_seconds else 0.0)
    table["gc.collections"] = len(by_name.get("gc", ())) * per_op
    estimates = by_name.get("session.estimate", [])
    if estimates:
        children: Dict[int, List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent, []).append(span)

        def computes_delta(span_id: int) -> bool:
            return any(child.name == "delta.column"
                       or computes_delta(child.id)
                       for child in children.get(span_id, ()))

        table["session.memo_hit_ratio"] = sum(
            1 for span in estimates
            if not computes_delta(span.id)) / len(estimates)
    else:
        table["session.memo_hit_ratio"] = 0.0
    return table


def setup_table(spans: Iterable[Span], setups: int) -> Dict[str, float]:
    """Training and calibration self time (ms) per set-up."""
    spans = list(spans)
    own = self_seconds(spans)
    per = 1e3 / max(setups, 1)
    return {
        "setup.train_ms": per * sum(own[s.id] for s in spans
                                    if s.name == "setup.train"),
        "setup.calibrate_ms": per * sum(own[s.id] for s in spans
                                        if s.name == "setup.calibrate"),
    }


def spans_of_ops(spans: Iterable[Span], op_ids: Iterable[int]
                 ) -> List[Span]:
    wanted = set(op_ids)
    return [span for span in spans if span.op in wanted]
