"""The serve wire protocol: newline-framed JSON, estimates as dicts.

One request or response per line, UTF-8 JSON, ``\\n``-terminated --
trivially debuggable with ``nc``/``socat`` and language-agnostic.

Requests::

    {"id": 1, "op": "estimate", "params": {"baseline": "LRU", ...}}

Responses::

    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": "..."}

Estimates cross the wire losslessly: every float survives JSON via
shortest-repr (``json`` emits ``repr``-round-trippable doubles), so a
:class:`~repro.api.session.FullScaleEstimate` rebuilt by
:func:`estimate_from_wire` compares equal, field for field, to the
server-side dataclass -- the served path's bit-identity contract is
testable as plain ``==``.  The only lossy JSON casualties (tuples
becoming lists) are undone explicitly here.

:func:`canonical_params` is the scheduler's deduplication key: the
same logical query always canonicalises to the same string regardless
of client-side key order.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Any, Dict, Optional

from repro.api.scales import scale_parameters
from repro.api.session import (
    DEFAULT_CORES,
    DEFAULT_SAMPLE_SIZES,
    FullScaleEstimate,
    TwoStageEstimate,
)
from repro.bench.spec import benchmark_names
from repro.core.codematrix import multiset_count
from repro.serve.state import DEFAULT_SCALE


#: Largest request frame the daemon reads, newline included (1 MiB).
#: Requests are a few hundred bytes; a longer line gets a
#: :class:`ProtocolError` reply and the connection closes, so one client
#: cannot grow a handler's buffer without bound.  Responses (``panel``
#: results) can be far larger, so clients read them uncapped.
MAX_REQUEST_BYTES = 1 << 20

# Bounds on one estimate's size, checked before it is scheduled (see
# :func:`check_estimate_bounds`).  The yardstick, measured on a warm
# FULL 4-core session: a 1 000-draw W = 100 stratified replay (10^5
# drawn rows) takes ≈ 28 MB of fresh pages, ≈ 280 B per drawn row.

#: Drawn rows, ``draws`` x sum(``sample_sizes``), with ``draws=None``
#: counted as the scale's default.  No confidence point replays more,
#: so its transient stays under ≈ 560 MB (20 of the 28 MB replays);
#: FULL's default, 10 000 draws x (10, 30, 100) = 1.4 M rows, fits.
MAX_DRAWN_ROWS = 2_000_000

#: Entries of ``sample_sizes``.  Each is two more replays with their
#: own tables and a fixed cost (32 one-draw sizes take ≈ 50 ms), which
#: the drawn-row count does not see; 32 is ten times the default's
#: three sizes and over three times Fig. 6's nine.
MAX_SAMPLE_SIZES = 32

#: Largest W.  A drawn row gets dearer as a stratum's share of the
#: sample grows: 10^5 drawn rows take ≈ 0.07 s and ≈ 28 MB at W = 100
#: but ≈ 1.2 s at W = 1 000 of the 12 650-row frame, and one draw at
#: W = 12 650 takes 3 s.  At this bound MAX_DRAWN_ROWS keeps a request
#: under ≈ 25 s; every W the experiments use (at most 640) fits.
MAX_SAMPLE_SIZE = 1_000

#: Frame rows (``sample``).  A fresh 8-core estimate peaks at ≈ 410 B
#: of RSS per frame row (42 MB at 10 000 rows, 79 MB at 100 000), and
#: the resident session keeps the frame and its panels, so this bound
#: holds one frame to ≈ 40 MB, the order of one 28 MB replay; the
#: paper's 8-core frame (FULL's cap) is 10 000 rows.
MAX_FRAME_ROWS = 100_000

#: Rows one estimate scores on an event-driven simulator: the refined
#: rows of an ``estimate_two_stage`` (``refine_budget``, or
#: ``refine_frac`` x the frame), and the whole frame of an estimate
#: whose ``backend`` (or ``screen_backend``) is not ``analytic``.  Each
#: row is one BADCO run shared by both policies up to the LLC's first
#: full set: on a warm FULL 8-core store a refine takes ≈ 0.27-0.35 s
#: per row (10.7-14.0 s for 40 rows, against 16.4-17.6 s when each
#: policy ran alone; 2-CPU host, uncalibrated), so this bound keeps a
#: request well under the ≈ 25 s of MAX_SAMPLE_SIZE; the largest budget
#: the repo uses (the ``e2e`` bench suite's) is 40.
MAX_REFINE_ROWS = 40


class ProtocolError(ValueError):
    """A malformed frame or an unserialisable payload."""


def encode(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the newline terminator."""
    try:
        payload = json.dumps(message, separators=(",", ":"),
                             allow_nan=False)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"unserialisable message: {error}") from error
    if "\n" in payload:      # pragma: no cover - json never emits raw \n
        raise ProtocolError("encoded frame contains a newline")
    return payload.encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received frame into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def read_message(stream: IO[bytes],
                 limit: Optional[int] = None) -> Optional[Dict[str, Any]]:
    """The next frame from a socket file, or None on a clean EOF.

    With a ``limit`` at most ``limit + 1`` bytes are read, and a frame
    longer than ``limit`` bytes (newline included) raises
    :class:`ProtocolError`.
    """
    if limit is None:
        line = stream.readline()
    else:
        line = stream.readline(limit + 1)
        if len(line) > limit:
            raise ProtocolError(f"frame exceeds {limit} bytes")
    if not line:
        return None
    return decode_line(line)


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _frame_rows(params: Dict[str, Any]) -> Optional[int]:
    """The rows of a request's frame: ``sample``, else the scale's cap,
    but never more rows than the population of the named benchmarks
    (else the suite's) has; None when the request does not say."""
    sample = params.get("sample")
    frame = sample if _integer(sample) else None
    cores = params.get("cores", DEFAULT_CORES)
    if not (_integer(cores) and cores >= 1):
        return frame
    if frame is None:
        frame = scale_parameters(params.get(
            "scale", DEFAULT_SCALE)).population_cap.get(cores)
    named = params.get("benchmarks")
    count = (len(named) if isinstance(named, (list, tuple)) and named
             else len(benchmark_names()))
    if frame is not None:
        frame = min(frame, multiset_count(count, cores))
    return frame


def check_estimate_bounds(params: Dict[str, Any]) -> None:
    """Raise a ValueError naming the parameter and its bound when an
    ``estimate`` / ``estimate_two_stage`` request is oversize.

    Only integer values are checked (and a ``refine_frac`` in (0, 1],
    and a ``backend`` or ``screen_backend`` named by a string); a value
    of another type passes through, and the estimate itself rejects it,
    alone.
    """
    sample = params.get("sample")
    if _integer(sample) and sample > MAX_FRAME_ROWS:
        raise ValueError(f"sample={sample} exceeds MAX_FRAME_ROWS "
                         f"({MAX_FRAME_ROWS})")
    budget = params.get("refine_budget")
    if _integer(budget) and budget > MAX_REFINE_ROWS:
        raise ValueError(f"refine_budget={budget} exceeds MAX_REFINE_ROWS "
                         f"({MAX_REFINE_ROWS})")
    frame = _frame_rows(params)
    frac = params.get("refine_frac")
    if (isinstance(frac, (int, float)) and 0 < frac <= 1
            and frame is not None and round(frac * frame) > MAX_REFINE_ROWS):
        raise ValueError(f"refine_frac={frac} of a {frame}-row frame "
                         f"is {round(frac * frame)} rows, more than "
                         f"MAX_REFINE_ROWS ({MAX_REFINE_ROWS})")
    for key in ("backend", "screen_backend"):
        backend = params.get(key)
        if (isinstance(backend, str) and backend != "analytic"
                and frame is not None and frame > MAX_REFINE_ROWS):
            raise ValueError(f"{key}={backend!r} scores the whole "
                             f"{frame}-row frame on an event-driven "
                             f"simulator, more than MAX_REFINE_ROWS "
                             f"({MAX_REFINE_ROWS}) rows")
    sizes = params.get("sample_sizes", DEFAULT_SAMPLE_SIZES)
    if not isinstance(sizes, (list, tuple)):
        return
    if len(sizes) > MAX_SAMPLE_SIZES:
        raise ValueError(f"sample_sizes has {len(sizes)} entries, more "
                         f"than MAX_SAMPLE_SIZES ({MAX_SAMPLE_SIZES})")
    sizes = [size for size in sizes if _integer(size)]
    if sizes and max(sizes) > MAX_SAMPLE_SIZE:
        raise ValueError(f"sample_sizes entry {max(sizes)} exceeds "
                         f"MAX_SAMPLE_SIZE ({MAX_SAMPLE_SIZE})")
    draws = params.get("draws")
    if draws is None:
        draws = scale_parameters(params.get("scale", DEFAULT_SCALE)).draws
    if _integer(draws) and draws * sum(sizes) > MAX_DRAWN_ROWS:
        raise ValueError(f"draws x sum(sample_sizes) = {draws} x "
                         f"{sum(sizes)} drawn rows exceeds MAX_DRAWN_ROWS "
                         f"({MAX_DRAWN_ROWS})")


def canonical_params(params: Dict[str, Any]) -> str:
    """Key-order-independent identity of one request's parameters."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"),
                      default=str)


# ----------------------------------------------------------------------
# Estimate payloads


def estimate_to_wire(estimate: FullScaleEstimate) -> Dict[str, Any]:
    """A JSON-able dict carrying the estimate losslessly."""
    wire = dataclasses.asdict(estimate)
    wire["kind"] = ("two_stage" if isinstance(estimate, TwoStageEstimate)
                    else "full_scale")
    return wire


def _retuple(wire: Dict[str, Any], key: str) -> None:
    if key in wire:
        wire[key] = {name: tuple(values)
                     for name, values in wire[key].items()}


def estimate_from_wire(wire: Dict[str, Any]) -> FullScaleEstimate:
    """Rebuild the dataclass a server serialised with
    :func:`estimate_to_wire`, equal to the original field for field."""
    wire = dict(wire)
    kind = wire.pop("kind", "full_scale")
    cls = TwoStageEstimate if kind == "two_stage" else FullScaleEstimate
    # A daemon and a client on either side of a field change disagree
    # here; name the fields instead of failing inside the constructor.
    fields = {field.name for field in dataclasses.fields(cls)}
    unexpected = sorted(set(wire) - fields)
    missing = sorted(fields - set(wire))
    if unexpected or missing:
        raise ProtocolError(
            f"{cls.__name__} wire fields do not match: unexpected "
            f"{unexpected}, missing {missing}")
    wire["sample_sizes"] = tuple(wire["sample_sizes"])
    _retuple(wire, "confidence")
    _retuple(wire, "screen_confidence")
    return cls(**wire)
