"""The long-lived control-plane server.

One asyncio stream server, one port, two dialects — the first line of
a connection decides which:

* lines starting with an HTTP method get a **minimal REST** surface
  (``GET /healthz``, ``GET /metrics`` in Prometheus text format via
  the ``repro.obs`` exporter, ``GET /sessions``, ``POST /sessions``
  to create or — with a ``snapshot`` body — resume, ``POST
  /sessions/{id}/step``, ``GET /sessions/{id}/snapshot``, ``DELETE
  /sessions/{id}``), one request per connection;
* anything else is treated as **newline-delimited JSON** commands
  (``{"op": "create" | "step" | "snapshot" | "resume" | "kill" |
  "list" | "stats" | "ping", ...}``), one response line per request,
  connection held open — the load generator's dialect.

Session work (stepping a simulator through control intervals) is
blocking CPU work, so every manager call runs on the default executor
thread pool; the event loop only parses frames and moves bytes. The
manager is thread-safe with per-session locks, so requests for
different sessions overlap while same-session steps serialize.

Everything here is stdlib ``asyncio`` — no HTTP framework — which is
why the REST dialect is deliberately minimal: enough for a health
probe, a Prometheus scrape, and curl-driven poking; the JSON-lines
dialect is the real API.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Optional, Tuple

from repro.errors import ExperimentError, ReproError
from repro.obs import TraceCollector, use_collector
from repro.obs.export import prometheus_text
from repro.serve.manager import SessionManager, SessionSpec

_HTTP_METHODS = frozenset({"GET", "POST", "PUT", "DELETE", "HEAD", "PATCH", "OPTIONS"})

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}

#: Largest accepted frame: the line limit of the server's streams and
#: of :class:`~repro.serve.loadgen.LoadGenerator` connections, and the
#: cap on a REST body (a snapshot of a long session is the biggest
#: legitimate payload; this bound just stops runaway clients).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ControlPlaneServer:
    """Hosts a :class:`~repro.serve.manager.SessionManager` on a socket.

    Args:
        manager: the session manager to expose; a fresh one by default.
        host: bind address.
        port: bind port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
        collector: the obs collector installed as ambient for the
            server's lifetime, so session spans/metrics from executor
            threads land somewhere scrapeable; a fresh
            :class:`~repro.obs.TraceCollector` by default.
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        collector: Optional[TraceCollector] = None,
    ):
        self.manager = manager if manager is not None else SessionManager()
        self.collector = collector if collector is not None else TraceCollector()
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._ambient = contextlib.ExitStack()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port resolved after start)."""
        return self._host, self._port

    @property
    def port(self) -> int:
        return self._port

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and install the ambient collector."""
        if self._server is not None:
            raise ExperimentError("server already started")
        self._ambient.enter_context(use_collector(self.collector))
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, limit=MAX_FRAME_BYTES
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._ambient.close()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            line = first.decode("utf-8", "replace").rstrip("\r\n")
            if line.split(" ", 1)[0] in _HTTP_METHODS:
                await self._serve_http(line, reader, writer)
            else:
                await self._serve_jsonl(line, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except ValueError:
            # StreamReader.readline's report of a line longer than
            # MAX_FRAME_BYTES. The stream cannot resync mid-frame, so
            # answer once and close.
            with contextlib.suppress(Exception):
                error = f"request frame exceeds {MAX_FRAME_BYTES} bytes"
                writer.write(json.dumps({"ok": False, "error": error}).encode() + b"\n")
                await writer.drain()
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _call(self, request: dict) -> dict:
        """Run one manager operation off-loop and wrap the outcome."""
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, self._dispatch, request)
        except ReproError as error:
            return {"ok": False, "error": str(error)}
        except Exception as error:  # defensive: never kill the connection
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}
        result.setdefault("ok", True)
        return result

    # -- the operation set (runs on executor threads) -----------------------

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"op": "ping", "sessions_live": len(self.manager)}
        if op == "create":
            spec = SessionSpec.from_dict(request.get("spec") or {})
            return {"session": self.manager.create(spec)}
        if op == "step":
            return self.manager.step(
                self._session_id(request), int(request.get("n", 1))
            )
        if op == "snapshot":
            return {"snapshot": self.manager.snapshot(self._session_id(request))}
        if op == "resume":
            snapshot = request.get("snapshot")
            if not isinstance(snapshot, dict):
                raise ExperimentError("resume requires a 'snapshot' object")
            return {"session": self.manager.resume(snapshot)}
        if op == "kill":
            session_id = self._session_id(request)
            self.manager.kill(session_id)
            return {"session": session_id, "killed": True}
        if op == "list":
            return {"sessions": [info.to_dict() for info in self.manager.list_sessions()]}
        if op == "stats":
            return {"stats": self.manager.stats()}
        raise ExperimentError(f"unknown op {op!r}")

    @staticmethod
    def _session_id(request: dict) -> str:
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ExperimentError("request requires a 'session' id")
        return session_id

    # -- JSON-lines dialect --------------------------------------------------

    async def _serve_jsonl(
        self, first_line: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        line: Optional[str] = first_line
        while True:
            if line is None:
                raw = await reader.readline()
                if not raw:
                    return
                line = raw.decode("utf-8", "replace").rstrip("\r\n")
            if line.strip():
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as error:
                    response = {"ok": False, "error": f"bad request: {error}"}
                else:
                    response = await self._call(request)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
            line = None

    # -- minimal REST dialect ------------------------------------------------

    async def _serve_http(
        self, request_line: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        parts = request_line.split(" ")
        if len(parts) < 2:
            await self._http_response(writer, 400, {"error": "malformed request line"})
            return
        method, path = parts[0], parts[1]

        content_length = 0
        while True:
            raw = await reader.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
            header = raw.decode("utf-8", "replace")
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length > MAX_FRAME_BYTES:
            await self._http_response(writer, 400, {"error": "body too large"})
            return
        body = {}
        if content_length:
            raw_body = await reader.readexactly(content_length)
            try:
                body = json.loads(raw_body.decode("utf-8", "replace"))
            except ValueError:
                await self._http_response(writer, 400, {"error": "body is not JSON"})
                return

        status, payload, text = await self._route_http(method, path.rstrip("/"), body)
        await self._http_response(writer, status, payload, text)

    async def _route_http(self, method: str, path: str, body: dict):
        """Map ``(method, path, body)`` onto the JSON-lines operation set."""
        if method == "GET" and path in ("", "/healthz"):
            return 200, {"ok": True, "sessions_live": len(self.manager)}, None
        if method == "GET" and path == "/metrics":
            return 200, None, prometheus_text(self.collector.metrics)
        if method == "GET" and path == "/stats":
            return self._status(await self._call({"op": "stats"}))
        if method == "GET" and path == "/sessions":
            return self._status(await self._call({"op": "list"}))
        if method == "POST" and path == "/sessions":
            if "snapshot" in body:
                return self._status(
                    await self._call({"op": "resume", "snapshot": body["snapshot"]})
                )
            return self._status(await self._call({"op": "create", "spec": body}))

        segments = path.strip("/").split("/")
        if len(segments) >= 2 and segments[0] == "sessions":
            session_id = segments[1]
            if method == "POST" and segments[2:] == ["step"]:
                request = {"op": "step", "session": session_id, "n": body.get("n", 1)}
                return self._status(await self._call(request))
            if method == "GET" and segments[2:] == ["snapshot"]:
                return self._status(
                    await self._call({"op": "snapshot", "session": session_id})
                )
            if method == "DELETE" and len(segments) == 2:
                return self._status(
                    await self._call({"op": "kill", "session": session_id})
                )
        return 404, {"ok": False, "error": f"no route {method} {path}"}, None

    @staticmethod
    def _status(response: dict):
        if response.get("ok"):
            return 200, response, None
        error = str(response.get("error", ""))
        return (404 if "unknown session" in error else 400), response, None

    @staticmethod
    async def _http_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Optional[dict],
        text: Optional[str] = None,
    ) -> None:
        if text is not None:
            body = text.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_STATUS_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
