"""Minimal asyncio HTTP/1.1 front end for the service.

Stdlib only: a hand-rolled request parser over ``asyncio`` streams —
request line, headers, ``Content-Length`` body, persistent connections
unless either side says ``Connection: close``.  It speaks exactly the
subset of HTTP the service needs; anything else gets a clean 4xx.

The router is transport-free: :func:`dispatch` maps a parsed
``(method, path, body)`` onto the service and returns a
:class:`Response`, so endpoint unit tests drive it in-process without
opening a socket.

Endpoints
---------
``GET  /healthz``            liveness (503 while draining)
``GET  /statsz``             counters, queue gauges, latency histogram
``POST /compile``            compile a spec or registry app; stores the
                             artifact content-addressed
``POST /simulate``           compile if needed, then simulate the job
                             alone; returns SimStats (+ attribution /
                             trace URL with ``params.trace``)
``POST /multi``              co-simulate several registry apps as
                             tenants of one fabric (optionally weighted
                             by ``"priorities"``); returns per-tenant
                             SimStats plus shared-channel utilization
``GET  /artifacts/<hash>``   download a stored bitstream artifact
``GET  /traces/<name>``      download a recorded Chrome trace
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.serve.service import ReproService
from repro.serve.workers import artifact_path, trace_path

#: refuse request bodies beyond this (a spec is a few KB)
MAX_BODY_BYTES = 8 * 1024 * 1024
#: refuse absurd header blocks
MAX_HEADER_BYTES = 64 * 1024

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 408: "Request Timeout",
                413: "Payload Too Large", 422: "Unprocessable Entity",
                429: "Too Many Requests",
                500: "Internal Server Error",
                503: "Service Unavailable", 504: "Gateway Timeout"}

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")
_TRACE_RE = re.compile(r"^[0-9a-f]{1,64}\.trace\.json$")


@dataclass
class Response:
    """One HTTP response, transport-free."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def json(self) -> dict:
        """Decoded body (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


def json_response(status: int, obj,
                  headers: Optional[Dict[str, str]] = None) -> Response:
    body = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
    return Response(status, body, headers=headers or {})


async def dispatch(service: ReproService, method: str, path: str,
                   body: bytes = b"") -> Response:
    """Route one request onto the service (used directly by tests)."""
    path = path.split("?", 1)[0]
    if path == "/healthz":
        if method != "GET":
            return json_response(405, {"error": "GET only"})
        status, payload = service.healthz()
        return json_response(status, payload)
    if path == "/statsz":
        if method != "GET":
            return json_response(405, {"error": "GET only"})
        return json_response(200, service.statsz())
    if path in ("/compile", "/simulate", "/multi"):
        if method != "POST":
            return json_response(405, {"error": "POST only"})
        try:
            parsed = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, RecursionError) as err:
            # UnicodeDecodeError is a ValueError; nesting past the
            # recursion limit is as malformed as a syntax error
            return json_response(
                400, {"error": f"request body is not valid JSON: "
                               f"{err}"})
        status, payload = await service.submit(path[1:], parsed)
        headers = {}
        if status in (429, 503) and isinstance(payload, dict) \
                and "retry_after_s" in payload:
            headers["Retry-After"] = str(payload["retry_after_s"])
        return json_response(status, payload, headers)
    if path.startswith("/artifacts/"):
        if method != "GET":
            return json_response(405, {"error": "GET only"})
        digest = path[len("/artifacts/"):]
        if not _HASH_RE.match(digest):
            return json_response(
                400, {"error": "artifact path must be a sha256 hex "
                               "digest"})
        file = artifact_path(service.data_dir, digest)
        if not file.is_file():
            return json_response(404, {"error": "no such artifact"})
        return Response(200, file.read_bytes())
    if path.startswith("/traces/"):
        if method != "GET":
            return json_response(405, {"error": "GET only"})
        name = path[len("/traces/"):]
        if not _TRACE_RE.match(name):
            return json_response(400, {"error": "bad trace name"})
        file = trace_path(service.data_dir, name.split(".")[0])
        if not file.is_file():
            return json_response(404, {"error": "no such trace"})
        return Response(200, file.read_bytes())
    return json_response(404, {"error": f"no route for {path!r}"})


# ---------------------------------------------------------------------------
# The socket server
# ---------------------------------------------------------------------------


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            bytes]]:
    """Parse one request off the stream; None on clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise ValueError("header block too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ValueError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _encode(response: Response, keep_alive: bool) -> bytes:
    head = [f"HTTP/1.1 {response.status} "
            f"{_STATUS_TEXT.get(response.status, 'Status')}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    head.extend(f"{k}: {v}" for k, v in response.headers.items())
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") \
        + response.body


class ReproServer:
    """The asyncio socket server wrapping one :class:`ReproService`."""

    def __init__(self, service: ReproService, host: str = "127.0.0.1",
                 port: int = 8642):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)

    @property
    def bound_port(self) -> int:
        """The actual port (after binding port 0)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except ValueError as err:
                    writer.write(_encode(json_response(
                        400, {"error": str(err)}), keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                try:
                    response = await dispatch(self.service, method, target,
                                              body)
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except Exception as err:    # answered, then closed
                    response = json_response(500, {
                        "error": f"{type(err).__name__}: {err}"})
                    headers = {"connection": "close"}
                keep = headers.get("connection", "").lower() != "close"
                writer.write(_encode(response, keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # server shutdown cancelled this connection handler; close
            # the socket and end the task cleanly
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass

    async def shutdown(self) -> None:
        """Graceful: stop accepting, drain the queue, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.drain()


async def _serve_until_signal(server: ReproServer) -> None:
    await server.start()
    config = server.service.config
    print(f"repro serve listening on "
          f"http://{server.host}:{server.bound_port} "
          f"(jobs={config.jobs}, queue-depth={config.queue_depth}, "
          f"cache={server.service.cache_dir or 'off'})",
          flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # non-unix
            pass
    await stop.wait()
    print("repro serve: draining...", flush=True)
    await server.shutdown()
    print("repro serve: stopped", flush=True)


def run_server(service: ReproService, host: str = "127.0.0.1",
               port: int = 8642) -> int:
    """Blocking entry point behind ``repro serve``."""
    server = ReproServer(service, host, port)
    try:
        asyncio.run(_serve_until_signal(server))
    except KeyboardInterrupt:
        pass
    except OSError as err:
        print(f"repro serve: cannot bind {host}:{port}: {err}",
              file=sys.stderr)
        return 1
    return 0
