"""The asyncio HTTP front end over :class:`repro.service.host.RunHost`.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` — the stdlib has
no async HTTP server and the protocol surface here is tiny (short
request lines, JSON bodies, and one long-lived streaming response
type).  Every connection serves one request: responses carry
``Connection: close``, which is also the only framing SSE admits.

Endpoints::

    GET    /                      the live dashboard (single-file HTML)
    GET    /healthz               liveness probe
    POST   /runs                  submit (body: EngineConfig.to_dict())
    GET    /runs                  list run status documents
    GET    /runs/{id}             one run's status document
    GET    /runs/{id}/result      canonical artifact JSON (409 until done)
    GET    /runs/{id}/events      SSE epoch stream (mid-run join + replay)
    POST   /runs/{id}/pause       pause at the next epoch boundary
    POST   /runs/{id}/resume      resume a paused run
    POST   /runs/{id}/checkpoint  checkpoint at the next epoch boundary
    DELETE /runs/{id}             cancel (live) / purge (terminal)

Error mapping: malformed configs and requests are 400, unknown runs
404, invalid state transitions 409, a full admission queue 503 with
``Retry-After``.  A client gets one deadline for its request line and
headers (408 past it), at most 100 header lines (431 beyond) and at
most 64 KiB per line (431 beyond); a client that leaves before its
whole body arrived gets no answer.

The SSE stream replays the run's retained epoch ring on join (honoring
``Last-Event-ID``, so an ``EventSource`` reconnect never re-reads
epochs it has seen), then relays live events; a comment frame goes out
as a keepalive when the run is quiet, and a ``state`` event naming a
terminal state ends the stream.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus
from typing import Any, Dict, Optional, Tuple

from repro.api import EngineConfig
from repro.service.dashboard import DASHBOARD_HTML
from repro.service.host import (
    STREAM_END,
    TERMINAL_STATES,
    QueueFullError,
    RunHost,
    UnknownRunError,
)

__all__ = ["ServiceServer"]

_MAX_BODY = 8 * 1024 * 1024
#: Most header lines one request may carry.
_MAX_HEADERS = 100
#: Seconds a client gets to send the request line and headers (one
#: deadline for both; a slowloris client cannot hold the connection).
_HEAD_TIMEOUT = 10.0
#: Seconds of SSE silence before a ``: keepalive`` comment frame.
_SSE_KEEPALIVE = 15.0


class _HttpError(Exception):
    """Terminate request handling with a specific status + message."""

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class ServiceServer:
    """Bind a :class:`RunHost` to an HTTP port.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` (that is how the tests run many servers in parallel).
    """

    def __init__(
        self, host: RunHost, *, bind: str = "127.0.0.1", port: int = 8352
    ) -> None:
        self.host = host
        self.bind = bind
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "ServiceServer":
        await self.host.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.bind, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.host.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            await self._route(method, path, headers, body, writer)
        except _HttpError as exc:
            await self._send_json(
                writer,
                exc.status,
                {"error": exc.message},
                extra_headers=exc.headers,
            )
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        except Exception as exc:  # pragma: no cover - handler backstop
            try:
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            head = await asyncio.wait_for(
                self._read_head(reader), timeout=_HEAD_TIMEOUT
            )
        except asyncio.TimeoutError:
            raise _HttpError(
                408, f"request head not received within {_HEAD_TIMEOUT} s"
            ) from None
        if head is None:
            return None
        method, target, headers = head
        length = headers.get("content-length", "") or "0"
        if not length.isdecimal():  # a non-negative integer, nothing else
            raise _HttpError(400, f"bad Content-Length {length!r}")
        length = int(length)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body over {_MAX_BODY} bytes")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return None  # the client left before its body arrived
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        """One head line; a line past the reader's 64 KiB limit is 431."""
        try:
            return await reader.readline()
        except ValueError:  # StreamReader's limit overrun
            raise _HttpError(
                431, "request line or header line over 64 KiB"
            ) from None

    @classmethod
    async def _read_head(
        cls, reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        """The request line and headers (``None`` if the client left)."""
        try:
            request_line = await cls._readline(reader)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = await cls._readline(reader)
            if line in (b"\r\n", b"\n", b""):
                return method, target, headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raise _HttpError(431, f"more than {_MAX_HEADERS} header lines")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/" and method == "GET":
            await self._send(
                writer,
                200,
                DASHBOARD_HTML.encode("utf-8"),
                "text/html; charset=utf-8",
            )
            return
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {"status": "ok"})
            return
        if path == "/runs":
            if method == "POST":
                await self._post_run(writer, body)
                return
            if method == "GET":
                await self._send_json(writer, 200, {"runs": self.host.runs()})
                return
            raise _HttpError(405, f"{method} not supported on {path}")

        segments = [s for s in path.split("/") if s]
        if not segments or segments[0] != "runs" or len(segments) > 3:
            raise _HttpError(404, f"no route for {path}")
        run_id = segments[1]
        action = segments[2] if len(segments) == 3 else None
        try:
            if action is None:
                await self._run_root(method, run_id, writer)
            elif method == "GET" and action == "result":
                await self._get_result(run_id, writer)
            elif method == "GET" and action == "events":
                await self._stream_events(run_id, headers, writer)
            elif method == "POST" and action in ("pause", "resume", "checkpoint"):
                await self._control(run_id, action, writer)
            else:
                raise _HttpError(405, f"{method} not supported on {path}")
        except UnknownRunError:
            raise _HttpError(404, f"no run {run_id!r}") from None
        except RuntimeError as exc:
            raise _HttpError(409, str(exc)) from None

    async def _post_run(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            document = json.loads(body.decode("utf-8"))
            config = EngineConfig.from_dict(document)
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"bad engine config: {exc}") from None
        try:
            run_id = self.host.submit(config)
        except QueueFullError as exc:
            raise _HttpError(
                503, str(exc), headers={"Retry-After": "1"}
            ) from None
        await self._send_json(writer, 201, self.host.run_info(run_id))

    async def _run_root(
        self, method: str, run_id: str, writer: asyncio.StreamWriter
    ) -> None:
        if method == "GET":
            await self._send_json(writer, 200, self.host.run_info(run_id))
        elif method == "DELETE":
            self.host.cancel(run_id)
            await self._send_json(writer, 200, {"id": run_id, "cancelled": True})
        else:
            raise _HttpError(405, f"{method} not supported on /runs/{run_id}")

    async def _get_result(
        self, run_id: str, writer: asyncio.StreamWriter
    ) -> None:
        data = self.host.artifact(run_id)  # RuntimeError -> 409 until done
        await self._send(writer, 200, data, "application/json")

    async def _control(
        self, run_id: str, action: str, writer: asyncio.StreamWriter
    ) -> None:
        if action == "pause":
            self.host.pause(run_id)
            await self._send_json(writer, 200, {"id": run_id, "pause": "requested"})
        elif action == "resume":
            self.host.resume_run(run_id)
            await self._send_json(writer, 200, {"id": run_id, "resume": "requested"})
        else:
            path = await self.host.request_checkpoint(run_id)
            await self._send_json(
                writer, 200, {"id": run_id, "checkpoint": path}
            )

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    async def _stream_events(
        self,
        run_id: str,
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        after = 0
        last_id = headers.get("last-event-id", "")
        if last_id.isdigit():
            after = int(last_id)
        replay, queue = self.host.subscribe(run_id, after=after)
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-store\r\n"
                b"Connection: close\r\n\r\n"
            )
            for event in replay:
                writer.write(_sse_frame(event))
            await writer.drain()
            if queue is None:
                return
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=_SSE_KEEPALIVE
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if event is STREAM_END:
                    return
                writer.write(_sse_frame(event))
                await writer.drain()
                if (
                    event["event"] == "state"
                    and event["data"].get("state") in TERMINAL_STATES
                ):
                    return
        finally:
            if queue is not None:
                self.host.unsubscribe(run_id, queue)

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = HTTPStatus(status).phrase
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        await self._send(writer, status, body, "application/json", extra_headers)


def _sse_frame(event: Dict[str, Any]) -> bytes:
    """One Server-Sent-Events frame (``id`` / ``event`` / ``data``)."""
    data = json.dumps(event["data"], sort_keys=True)
    return (
        f"id: {event['id']}\nevent: {event['event']}\ndata: {data}\n\n"
    ).encode("utf-8")
