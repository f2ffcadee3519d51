"""The estimation daemon: a threaded socket server over resident state.

:class:`ReproServer` binds a Unix socket (the default: private,
filesystem-permissioned) or a TCP port, accepts newline-framed JSON
queries (see :mod:`repro.serve.protocol`) on concurrent connections,
and answers them through one shared
:class:`~repro.serve.scheduler.RequestScheduler` over one
:class:`~repro.serve.state.ResidentState` -- so every connection sees
the same warm sessions, panels and counters, and concurrent
overlapping queries coalesce.

Consistency model: one daemon process is the single writer of its
cache/model-store directories while running (campaign saves take the
per-key file lock, so even an external one-shot CLI run against the
same directories stays safe); queries against the same session
serialise their mutating phases on the session lock and answer
bit-identically to a one-shot :class:`~repro.api.session.Session`.

Each connection handles its frames in order (responses carry the
request ``id`` back); concurrency comes from concurrent connections,
which is exactly the shape client pools produce.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.serve import protocol
from repro.serve.scheduler import DEFAULT_WINDOW_SECONDS, RequestScheduler
from repro.serve.state import ResidentState


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                message = protocol.read_message(
                    self.rfile, protocol.MAX_REQUEST_BYTES)
            except protocol.ProtocolError as error:
                self._reply({"id": None, "ok": False, "error": str(error)})
                return
            if message is None:
                return
            request_id = message.get("id")
            op = message.get("op")
            if not isinstance(op, str):
                self._reply({"id": request_id, "ok": False,
                             "error": "missing op"})
                continue
            if op == "shutdown":
                self._reply({"id": request_id, "ok": True,
                             "result": {"stopping": True}})
                # shutdown() joins serve_forever, which waits for this
                # very handler -- so it must run off-thread.
                threading.Thread(
                    target=self.server.repro_server.shutdown,
                    daemon=True).start()
                return
            params = message.get("params") or {}
            if not isinstance(params, dict):
                self._reply({"id": request_id, "ok": False,
                             "error": "params must be an object"})
                continue
            future = self.server.repro_server.scheduler.submit(op, params)
            try:
                result = future.result()
                self._reply({"id": request_id, "ok": True,
                             "result": result})
            except Exception as error:
                self._reply({"id": request_id, "ok": False,
                             "error": f"{type(error).__name__}: {error}"})

    def _reply(self, message: Dict[str, Any]) -> None:
        try:
            self.wfile.write(protocol.encode(message))
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass                # client went away; nothing to tell it


class _ThreadedTCPServer(socketserver.ThreadingMixIn,
                         socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):
    _UnixBase = socketserver.ThreadingUnixStreamServer
else:                            # pragma: no cover - assembled on 3.9/3.10
    class _UnixBase(socketserver.ThreadingMixIn,
                    socketserver.UnixStreamServer):
        pass


class _ThreadedUnixServer(_UnixBase):
    daemon_threads = True


class ReproServer:
    """One estimation daemon: resident state behind a socket.

    Args:
        state: the resident state to serve (None = a fresh default).
        socket_path: Unix socket to bind (mutually exclusive with
            ``port``).
        host / port: TCP endpoint to bind; ``port=0`` picks a free
            port (read it back from :attr:`address`).
        workers: scheduler worker threads.
        window_seconds: coalescing window for estimate queries.
    """

    def __init__(self, state: Optional[ResidentState] = None, *,
                 socket_path: Optional[Union[str, Path]] = None,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 workers: int = 4,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS) -> None:
        if socket_path is not None and port is not None:
            raise ValueError("pass either socket_path or port, not both")
        if socket_path is None and port is None:
            raise ValueError("pass socket_path or port")
        self.state = state if state is not None else ResidentState()
        self.scheduler = RequestScheduler(self.state, workers=workers,
                                          window_seconds=window_seconds)
        self.socket_path = Path(socket_path) if socket_path else None
        if self.socket_path is not None:
            if self.socket_path.exists():
                self.socket_path.unlink()
            self._server = _ThreadedUnixServer(str(self.socket_path),
                                               _Handler)
        else:
            self._server = _ThreadedTCPServer((host, int(port)), _Handler)
        self._server.repro_server = self
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def address(self) -> Union[str, Tuple[str, int]]:
        """Where clients connect: a socket path or a (host, port)."""
        if self.socket_path is not None:
            return str(self.socket_path)
        host, port = self._server.server_address[:2]
        return (host, port)

    def start(self) -> "ReproServer":
        """Serve on a background thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-accept", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting, drain workers, release the socket."""
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
        self.scheduler.close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        if self.socket_path is not None and self.socket_path.exists():
            self.socket_path.unlink()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def connect(address: Union[str, Path, Tuple[str, int]],
            timeout: Optional[float] = None) -> socket.socket:
    """A connected client socket for a server :attr:`~ReproServer.
    address` (Unix path or (host, port))."""
    if isinstance(address, (str, Path)):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(str(address))
    else:
        host, port = address
        sock = socket.create_connection((host, port), timeout=timeout)
    return sock
