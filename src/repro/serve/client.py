"""Clients for the serving tier.

:class:`ServeClient` is the asyncio client the repo benchmark's
``serve_mix`` workload fans out: one persistent HTTP/1.1 connection
per instance, reconnecting transparently when the server (or an idle
timeout) closed it.
:func:`sync_request` is a one-shot blocking convenience on
``http.client`` for CLI probes and scripts; :func:`wait_healthy` polls
``/healthz`` until a freshly spawned server answers.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from typing import Any, Dict, Optional, Tuple


class ServeClient:
    """One persistent async connection to a repro server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      obj: Any = None
                      ) -> Tuple[int, Dict[str, str], Any]:
        """One request; returns ``(status, headers, decoded body)``.

        Retries exactly once on a stale kept-alive connection.
        """
        try:
            return await self._request(method, path, obj)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, OSError):
            await self.close()
            return await self._request(method, path, obj)

    async def _request(self, method: str, path: str, obj: Any
                       ) -> Tuple[int, Dict[str, str], Any]:
        if self._writer is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        body = b""
        if obj is not None:
            body = json.dumps(obj).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"\r\n").encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        raw = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            decoded: Any = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            decoded = raw
        return status, headers, decoded


def sync_request(host: str, port: int, method: str, path: str,
                 obj: Any = None, timeout: float = 30.0
                 ) -> Tuple[int, Any]:
    """One-shot blocking request (CLI probes, scripts)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(obj) if obj is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        response = conn.getresponse()
        raw = response.read()
        try:
            decoded: Any = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            decoded = raw
        return response.status, decoded
    finally:
        conn.close()


def wait_healthy(host: str, port: int, timeout_s: float = 30.0,
                 interval_s: float = 0.1) -> bool:
    """Poll ``/healthz`` until it answers 200, or time out."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            status, body = sync_request(host, port, "GET", "/healthz",
                                        timeout=2.0)
            if status == 200 and isinstance(body, dict) \
                    and body.get("ok"):
                return True
        except OSError:
            pass
        time.sleep(interval_s)
    return False
