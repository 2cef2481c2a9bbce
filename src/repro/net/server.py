"""The HTTP front door: an asyncio server over :class:`AnnotationService`.

Pure stdlib (``asyncio`` + hand-rolled HTTP/1.1 framing — no new runtime
dependencies): :class:`AnnotationHTTPServer` listens on a TCP socket and
exposes the full service surface as JSON endpoints:

========  =============================== ======================================
Method    Path                            Meaning
========  =============================== ======================================
POST      ``/v1/annotate``                batch-annotate p-sequences and publish
POST      ``/v1/sessions``                open a streaming session
POST      ``/v1/sessions/{id}/records``   push records into a session
POST      ``/v1/sessions/{id}/finish``    close a session, flush its semantics
GET       ``/v1/queries/popular-regions`` TkPRQ over everything published
GET       ``/v1/queries/frequent-pairs``  TkFRPQ over everything published
GET       ``/healthz``                    liveness, sessions, shard + WAL lag
GET       ``/metrics``                    request counts, latency histograms
========  =============================== ======================================

Design notes:

* the event loop only frames HTTP; every service call (decode, query,
  publish) runs on the loop's thread pool via ``run_in_executor`` so one
  slow decode never blocks health checks — which is exactly why
  :class:`AnnotationService` carries a service-level lock;
* record ingestion into one session is serialised by a per-session lock
  (stream order is a protocol invariant, Definition 1), while different
  sessions proceed in parallel;
* requests are size-limited (``max_body``, default 8 MiB → 413) and every
  failure is a structured JSON error ``{"error": {"code", "message",
  "status"}}`` — malformed traffic never kills the server;
* :meth:`AnnotationHTTPServer.stop` drains gracefully: stop accepting,
  let in-flight requests complete, then ``service.finish_all()`` so every
  open session's pending m-semantics are published before exit.

:class:`ServerThread` hosts a server on a background event loop for tests,
examples and in-process embedding.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.mobility.records import MSemantics
from repro.net.wire import (
    WireError,
    pairs_to_wire,
    parse_query_params,
    record_from_wire,
    regions_to_wire,
    semantics_to_wire,
    sequence_from_wire,
)
from repro.service.service import AnnotationService

__all__ = ["AnnotationHTTPServer", "ServerThread", "HttpError", "Metrics"]

#: Default request-body ceiling (bytes); larger requests get a 413.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Upper bound on header count per request (431 beyond it).
_MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A structured HTTP failure; rendered as the JSON error envelope."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code

    def envelope(self) -> Dict[str, Any]:
        return {
            "error": {"code": self.code, "message": str(self), "status": self.status}
        }


class Metrics:
    """Per-endpoint request counters and fixed-bucket latency histograms.

    Thread-safe (handlers observe from pool threads).  Buckets are
    cumulative-friendly upper bounds in milliseconds with a final overflow
    bucket, the conventional histogram shape of serving metrics.
    """

    BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0)

    def __init__(self):
        self._lock = threading.Lock()
        self._requests: Dict[str, Dict[str, int]] = {}
        self._histograms: Dict[str, List[int]] = {}
        self._latency_sums: Dict[str, float] = {}

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one finished request of ``endpoint``."""
        millis = seconds * 1000.0
        bucket = len(self.BUCKETS_MS)
        for position, bound in enumerate(self.BUCKETS_MS):
            if millis <= bound:
                bucket = position
                break
        with self._lock:
            counters = self._requests.setdefault(endpoint, {"count": 0, "errors": 0})
            counters["count"] += 1
            if status >= 400:
                counters["errors"] += 1
            histogram = self._histograms.setdefault(
                endpoint, [0] * (len(self.BUCKETS_MS) + 1)
            )
            histogram[bucket] += 1
            self._latency_sums[endpoint] = self._latency_sums.get(endpoint, 0.0) + millis

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every counter and histogram."""
        with self._lock:
            return {
                "buckets_ms": list(self.BUCKETS_MS),
                "requests": {
                    endpoint: dict(counters)
                    for endpoint, counters in self._requests.items()
                },
                "latency_ms": {
                    endpoint: {
                        "counts": list(histogram),
                        "sum": round(self._latency_sums.get(endpoint, 0.0), 3),
                    }
                    for endpoint, histogram in self._histograms.items()
                },
            }

    @property
    def total_requests(self) -> int:
        with self._lock:
            return sum(counters["count"] for counters in self._requests.values())


class AnnotationHTTPServer:
    """Serve one :class:`AnnotationService` over HTTP/1.1 with keep-alive."""

    def __init__(
        self,
        service: AnnotationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body: int = DEFAULT_MAX_BODY,
    ):
        if max_body < 1024:
            raise ValueError("max_body must be at least 1 KiB")
        self.service = service
        self.host = host
        self.requested_port = port
        self.max_body = max_body
        self.metrics = Metrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._writers: set = set()
        self._inflight = 0
        self._draining = False
        self._started_monotonic = 0.0
        self._started_at = 0.0
        self._session_locks: Dict[str, threading.Lock] = {}
        self._session_locks_guard = threading.Lock()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks an ephemeral one)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.requested_port, limit=65536
        )
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral requests after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self, *, drain_timeout: float = 5.0) -> List[MSemantics]:
        """Graceful shutdown: stop accepting, drain, flush open sessions.

        In-flight requests get up to ``drain_timeout`` seconds to complete;
        afterwards every connection is closed and ``service.finish_all()``
        publishes the pending m-semantics of all open sessions.  Returns
        everything that flushed.
        """
        if self._server is None:
            return []
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        deadline = time.monotonic() + drain_timeout
        while self._inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=drain_timeout)
        loop = asyncio.get_running_loop()
        flushed = await loop.run_in_executor(None, self.service.finish_all)
        self._server = None
        return flushed

    # ----------------------------------------------------------- connections
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HttpError as error:
                    # Framing failed — answer if possible, then drop the
                    # connection (the stream position is unrecoverable).
                    self._write_response(
                        writer, error.status, error.envelope(), keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, params, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload = await self._dispatch(method, path, params, body)
                self._write_response(writer, status, payload, keep_alive=keep_alive)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
                if not keep_alive:
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        """Read one framed request; None at EOF; HttpError on bad framing."""
        try:
            line = await reader.readline()
        except ValueError as error:  # line exceeded the stream limit
            raise HttpError(431, "line_too_long", "request line too long") from error
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(400, "bad_request_line", "malformed HTTP request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError as error:
                raise HttpError(431, "header_too_long", "header line too long") from error
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise HttpError(431, "too_many_headers", "too many request headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_header = headers.get("content-length", "0")
        try:
            length = int(length_header)
        except ValueError as error:
            raise HttpError(
                400, "bad_content_length", "content-length must be an integer"
            ) from error
        if length < 0:
            raise HttpError(400, "bad_content_length", "negative content-length")
        if length > self.max_body:
            raise HttpError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.max_body}-byte limit",
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        split = urlsplit(target)
        # keep_blank_values: "regions=" must reach validation, not vanish.
        params = parse_qs(split.query, keep_blank_values=True)
        return method, split.path, params, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        *,
        keep_alive: bool,
    ) -> None:
        if writer.is_closing():
            return
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # -------------------------------------------------------------- dispatch
    async def _dispatch(
        self,
        method: str,
        path: str,
        params: Dict[str, List[str]],
        body: bytes,
    ) -> Tuple[int, Any]:
        endpoint, handler, allowed = self._route(method, path)
        started = time.perf_counter()
        try:
            if handler is None:
                if allowed:
                    raise HttpError(
                        405, "method_not_allowed", f"{path} only allows {allowed}"
                    )
                raise HttpError(404, "not_found", f"no such endpoint: {path}")
            if self._draining:
                raise HttpError(503, "draining", "server is shutting down")
            self._inflight += 1
            try:
                status, payload = await handler(params, body)
            finally:
                self._inflight -= 1
        except HttpError as error:
            status, payload = error.status, error.envelope()
        except WireError as error:
            status = 400
            payload = HttpError(400, error.code, str(error)).envelope()
        except Exception as error:  # noqa: BLE001 — the 5xx safety net
            status = 500
            payload = HttpError(500, "internal", repr(error)).envelope()
        self.metrics.observe(endpoint, status, time.perf_counter() - started)
        return status, payload

    def _route(
        self, method: str, path: str
    ) -> Tuple[str, Optional[Callable], Optional[str]]:
        """Resolve ``(endpoint-name, handler, allowed-methods)`` for a target."""
        flat = {
            "/healthz": ("healthz", "GET", self._handle_healthz),
            "/metrics": ("metrics", "GET", self._handle_metrics),
            "/v1/annotate": ("annotate", "POST", self._handle_annotate),
            "/v1/sessions": ("sessions.create", "POST", self._handle_create_session),
            "/v1/queries/popular-regions": (
                "queries.popular-regions",
                "GET",
                self._handle_popular_regions,
            ),
            "/v1/queries/frequent-pairs": (
                "queries.frequent-pairs",
                "GET",
                self._handle_frequent_pairs,
            ),
        }
        if path in flat:
            endpoint, allowed, handler = flat[path]
            if method != allowed:
                return endpoint, None, allowed
            return endpoint, handler, allowed
        segments = path.strip("/").split("/")
        if len(segments) == 4 and segments[:2] == ["v1", "sessions"]:
            # Object ids are URL-encoded on the wire (they may contain "/").
            object_id, action = unquote(segments[2]), segments[3]
            if action == "records":
                endpoint = "sessions.records"
                handler = self._session_handler(object_id, self._session_records)
            elif action == "finish":
                endpoint = "sessions.finish"
                handler = self._session_handler(object_id, self._session_finish)
            else:
                return "unknown", None, None
            if method != "POST":
                return endpoint, None, "POST"
            return endpoint, handler, "POST"
        return "unknown", None, None

    # -------------------------------------------------------------- handlers
    @staticmethod
    def _json_body(body: bytes) -> Any:
        if not body:
            return {}
        try:
            return json.loads(body)
        except json.JSONDecodeError as error:
            raise HttpError(400, "bad_json", f"request body is not JSON: {error}")

    async def _in_executor(self, func, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, func, *args)

    def _session_lock(self, object_id: str) -> threading.Lock:
        with self._session_locks_guard:
            return self._session_locks.setdefault(object_id, threading.Lock())

    async def _handle_healthz(self, params, body) -> Tuple[int, Any]:
        payload = {
            "status": "ok",
            "live_sessions": len(self.service.live_sessions()),
            "published_objects": len(self.service.store),
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
        }
        # Sharded stores report their layout and WAL lag (the async-mode
        # crash window) so operators can alarm on a stalled shard writer.
        health_stats = getattr(self.service.store, "health_stats", None)
        if callable(health_stats):
            payload["store"] = health_stats()
        return 200, payload

    async def _handle_metrics(self, params, body) -> Tuple[int, Any]:
        snapshot = self.metrics.snapshot()
        snapshot["live_sessions"] = len(self.service.live_sessions())
        snapshot["published_objects"] = len(self.service.store)
        snapshot["started_at"] = self._started_at
        snapshot["uptime_seconds"] = round(
            time.monotonic() - self._started_monotonic, 3
        )
        return 200, snapshot

    async def _handle_annotate(self, params, body) -> Tuple[int, Any]:
        payload = self._json_body(body)
        sequences_payload = payload.get("sequences")
        if not isinstance(sequences_payload, list) or not sequences_payload:
            raise HttpError(
                400, "bad_annotate", "annotate requires a non-empty 'sequences' list"
            )
        sequences = [sequence_from_wire(entry) for entry in sequences_payload]

        def run():
            # Backend and worker count are server configuration, not client
            # input — the request only carries the traffic.
            return self.service.annotate_batch(sequences)

        semantics = await self._in_executor(run)
        return 200, {"semantics": [semantics_to_wire(entries) for entries in semantics]}

    async def _handle_create_session(self, params, body) -> Tuple[int, Any]:
        payload = self._json_body(body)
        object_id = payload.get("object_id")
        if not isinstance(object_id, str) or not object_id:
            raise HttpError(
                400, "bad_session", "session create requires a non-empty 'object_id'"
            )
        window = payload.get("window")
        guard = payload.get("guard")
        exact = payload.get("exact", False)
        for name, value in (("window", window), ("guard", guard)):
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise HttpError(400, "bad_session", f"'{name}' must be an integer")
        if not isinstance(exact, bool):
            raise HttpError(400, "bad_session", "'exact' must be a boolean")

        def run():
            try:
                return self.service.session(
                    object_id, window=window, guard=guard, exact=exact
                )
            except ValueError as error:
                message = str(error)
                if "already has a live session" in message:
                    raise HttpError(409, "session_exists", message) from error
                raise HttpError(400, "bad_session", message) from error

        session = await self._in_executor(run)
        return 201, {
            "object_id": session.object_id,
            "window": session.window,
            "guard": session.guard,
            "exact": session.exact,
        }

    def _session_handler(self, object_id: str, bound) -> Callable:
        async def handler(params, body) -> Tuple[int, Any]:
            return await bound(object_id, params, body)

        return handler

    async def _session_records(self, object_id, params, body) -> Tuple[int, Any]:
        payload = self._json_body(body)
        records_payload = payload.get("records")
        if not isinstance(records_payload, list) or not records_payload:
            raise HttpError(
                400, "bad_records", "records push requires a non-empty 'records' list"
            )
        records = [record_from_wire(entry) for entry in records_payload]

        def run():
            # The per-session lock serialises ingestion so concurrent pushes
            # to one session cannot interleave records out of stream order.
            with self._session_lock(object_id):
                session = self.service.get_session(object_id)
                if session is None:
                    raise HttpError(
                        404, "unknown_session", f"no live session for {object_id!r}"
                    )
                try:
                    finalized = session.extend(records)
                except ValueError as error:
                    raise HttpError(409, "bad_stream", str(error)) from error
                return finalized, session.record_count

        finalized, total = await self._in_executor(run)
        return 200, {
            "object_id": object_id,
            "finalized": semantics_to_wire(finalized),
            "record_count": total,
        }

    async def _session_finish(self, object_id, params, body) -> Tuple[int, Any]:
        def run():
            with self._session_lock(object_id):
                session = self.service.get_session(object_id)
                if session is None:
                    raise HttpError(
                        404, "unknown_session", f"no live session for {object_id!r}"
                    )
                flushed = session.finish()
                return flushed, session.record_count

        flushed, total = await self._in_executor(run)
        return 200, {
            "object_id": object_id,
            "flushed": semantics_to_wire(flushed),
            "record_count": total,
        }

    async def _handle_popular_regions(self, params, body) -> Tuple[int, Any]:
        k, start, end, regions = parse_query_params(params)
        answer = await self._in_executor(
            lambda: self.service.query_popular_regions(
                k, query_regions=regions, start=start, end=end
            )
        )
        return 200, {"k": k, "results": regions_to_wire(answer)}

    async def _handle_frequent_pairs(self, params, body) -> Tuple[int, Any]:
        k, start, end, regions = parse_query_params(params)
        answer = await self._in_executor(
            lambda: self.service.query_frequent_pairs(
                k, query_regions=regions, start=start, end=end
            )
        )
        return 200, {"k": k, "results": pairs_to_wire(answer)}


class ServerThread:
    """Host an :class:`AnnotationHTTPServer` on a background event loop.

    Context manager: ``with ServerThread(service) as server:`` yields the
    running server (``server.host``/``server.port``/``server.address``);
    exit performs the graceful drain.  This is how tests and the examples
    embed the front door in one process.
    """

    def __init__(self, service: AnnotationService, **server_kwargs):
        self.server = AnnotationHTTPServer(service, **server_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ---------------------------------------------------------------- control
    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="annotation-http-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as error:  # noqa: BLE001 — reported to starter
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()
        self._loop.close()

    def stop(self, *, drain_timeout: float = 5.0) -> None:
        """Gracefully stop the server and join the background thread."""
        if self._thread is None or self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain_timeout=drain_timeout), self._loop
        )
        future.result(timeout=drain_timeout + 10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None

    # ---------------------------------------------------------- conveniences
    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
