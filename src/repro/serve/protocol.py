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

from repro.api.session import FullScaleEstimate, TwoStageEstimate


#: Largest request frame the daemon reads, newline included (1 MiB).
#: Requests are a few hundred bytes; a longer line gets a
#: :class:`ProtocolError` reply and the connection closes, so one client
#: cannot grow a handler's buffer without bound.  Responses (``panel``
#: results) can be far larger, so clients read them uncapped.
MAX_REQUEST_BYTES = 1 << 20


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
    wire["sample_sizes"] = tuple(wire["sample_sizes"])
    _retuple(wire, "confidence")
    _retuple(wire, "screen_confidence")
    cls = TwoStageEstimate if kind == "two_stage" else FullScaleEstimate
    return cls(**wire)
