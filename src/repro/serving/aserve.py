"""Asyncio HTTP front end: keep-alive event loop, coalescing, load shedding.

The interactive search setting the paper assumes (§1, §7) means
thousands of mostly-idle keep-alive connections and bursts of duplicate
work, which is exactly what an event loop plus a bounded worker pool
handles well.  ``AsyncFrontEnd`` speaks HTTP/1.1 over
``asyncio.start_server`` (stdlib only) and serves five routes:

=========================  ==================================================
``GET  /healthz``          service liveness: epoch, breaker state, spill
                           depth, cache size, plus a ``tables`` map
``GET  /metrics``          the perf registry in Prometheus text format
``POST /categorize``       body ``{"sql": ..., "deadline_ms": ...,
                           "budget": ..., "render": bool}`` → the
                           :meth:`ServeResult.as_dict
                           <repro.serving.service.ServeResult.as_dict>`
                           summary, plus a rendered tree when asked
``POST /categorize_batch``  body ``{"sqls": [...], ...}`` → ``{"epoch":
                           ..., "results": [...]}``; the whole batch is
                           served against one pinned statistics epoch and
                           shares one deadline
``POST /record``           body ``{"sql": ...}`` → ingestion ack with the
                           current epoch/pending counts
=========================  ==================================================

Every route takes a **table dimension** (a ``"table"`` body field or a
``?table=`` query parameter); a request that names neither resolves to
the catalog's default relation and carries ``Deprecation: true``
(docs/catalog.md).  Errors share one envelope,
``{"error": {"code", "message", "detail"}}``
(:func:`~repro.serving.errors.error_response`); degradation is *not* an
error — a SHOWTUPLES response is a 200 with ``"rung": "showtuples"``.
A client that hangs up mid-reply gets nothing and is counted on
``http.client_disconnects``.

**Keep-alive and pipelining.**  Connections persist across requests
(HTTP/1.1 default; ``Connection: close`` honored), and pipelined requests
queue in the stream buffer and are answered in order, so a client pays
the TCP+scheduling setup cost once per session, not once per request.
Idle connections are closed after ``keep_alive_timeout_s``.

**In-flight request coalescing.**  Identical concurrent ``/categorize``
requests — same ``epoch:technique:backend:normalized-SQL`` singleflight
key, via :meth:`CategorizationService.coalescing_key
<repro.serving.service.CategorizationService.coalescing_key>` — await one
computation instead of racing the LRU cache N abreast.  Followers consume
no admission capacity and are counted on ``aserve.coalesced``; their
responses carry ``"coalesced": true`` and share the leader's trace id.
Requests that cannot share a result (``trace`` requested, or a
non-``full`` budget) bypass the singleflight table.

**Admission control and load shedding.**  Compute routes pass an
admission gate: at most ``max_inflight`` requests execute on the bounded
thread-pool executor while at most ``max_queue`` wait — never an
unbounded queue.  As the waiting room fills, the gate *tightens* each
admitted request's ``deadline_ms`` (linearly from ``pressure_deadline_ms``
down to ``min_deadline_ms`` as pressure rises, counted on
``aserve.tightened``), pushing work down the PR 4 degradation ladder
(full → truncated → single-level → SHOWTUPLES) so the server sheds
*quality* before it sheds *requests*.  A full waiting room sheds with
503 + ``Retry-After`` (``aserve.shed{route=...}``).  Every admitted
request is answered; every shed request is a counted 503 — nothing is
dropped on the floor.

``/healthz`` and ``/metrics`` are served inline on the event loop, never
gated: an overloaded server must still answer its operators.

Run it with ``repro serve [--max-inflight N --max-queue N]``, or embed::

    handle = start_in_thread(service, max_inflight=8)
    ... requests against http://%s:%d % handle.address ...
    handle.stop()

See docs/serving.md for the architecture and tuning notes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

from repro import perf, telemetry
from repro.render.treeview import render_tree
from repro.serving.degrade import RUNG_FULL
from repro.serving.errors import (
    CODE_INVALID_REQUEST,
    CODE_NOT_FOUND,
    CODE_SHED,
    IngestionStalled,
    InvalidRequest,
    error_payload,
    error_response,
)
from repro.serving.service import CategorizationService, ServeResult

MAX_BODY_BYTES = 1 << 20

#: The service's route set; anything else is labeled ``other`` so the
#: per-route counter cardinality stays bounded no matter what clients probe.
ROUTES = ("/healthz", "/metrics", "/categorize", "/categorize_batch", "/record")


def route_label(path: str) -> str:
    """Collapse a request target to a bounded route label."""
    route = path.split("?", 1)[0]
    return route if route in ROUTES else "other"


def _as_catalog(service_or_catalog: Any):
    """Accept a lone service (wrapped in a one-entry catalog) or a catalog.

    Anything that is not already a :class:`~repro.catalog.catalog.Catalog`
    is treated as a single service — including delegating proxies the
    tests use — so duck-typed service wrappers keep working.
    """
    from repro.catalog.catalog import Catalog

    if isinstance(service_or_catalog, Catalog):
        return service_or_catalog
    return Catalog.of(service_or_catalog)


#: Response reason phrases for the statuses this front end emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Hard cap on parsed header lines per request (anti-abuse bound).
_MAX_HEADERS = 100


class Overloaded(Exception):
    """Raised by the admission gate when the waiting room is full."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__("server overloaded; retry later")
        self.retry_after_s = retry_after_s


class _BadRequest(Exception):
    """A request whose *framing* is broken (connection closes after 400)."""


class HttpRequest:
    """One parsed HTTP/1.1 request."""

    __slots__ = ("method", "path", "version", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        version: str,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class AdmissionGate:
    """Semaphore-bounded admission with a bounded waiting room.

    ``max_inflight`` requests execute at once; up to ``max_queue`` more
    wait.  Arrivals beyond that are shed immediately (:class:`Overloaded`)
    — the queue cannot grow without bound, so latency cannot either.

    Pressure is the waiting-room occupancy observed at arrival
    (``waiting / max_queue``, clamped to [0, 1]).  Under pressure the
    gate imposes a deadline cap that shrinks linearly from
    ``pressure_deadline_ms`` (pressure → 0) to ``min_deadline_ms``
    (pressure = 1): queued requests are pushed down the degradation
    ladder instead of stacking up behind full-quality work.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 32,
        pressure_deadline_ms: float = 1000.0,
        min_deadline_ms: float = 5.0,
        retry_after_s: float = 1.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.pressure_deadline_ms = pressure_deadline_ms
        self.min_deadline_ms = min_deadline_ms
        self.retry_after_s = retry_after_s
        self.waiting = 0
        self.inflight = 0
        self._semaphore = asyncio.Semaphore(max_inflight)

    def deadline_cap_ms(self, pressure: float) -> float | None:
        """The deadline ceiling imposed at ``pressure`` (None when idle)."""
        if pressure <= 0.0:
            return None
        pressure = min(1.0, pressure)
        span = self.pressure_deadline_ms - self.min_deadline_ms
        return self.pressure_deadline_ms - span * pressure

    @contextlib.asynccontextmanager
    async def admit(self, route: str):
        """Hold one execution slot; yields the arrival-time pressure.

        Raises:
            Overloaded: the waiting room is already full.
        """
        if self._semaphore.locked() and self.waiting >= self.max_queue:
            raise Overloaded(self.retry_after_s)
        pressure = self.waiting / self.max_queue if self.max_queue else 0.0
        self.waiting += 1
        perf.gauge("aserve.waiting", self.waiting)
        try:
            await self._semaphore.acquire()
        finally:
            self.waiting -= 1
            perf.gauge("aserve.waiting", self.waiting)
        self.inflight += 1
        perf.gauge("aserve.inflight", self.inflight)
        try:
            yield pressure
        finally:
            self.inflight -= 1
            perf.gauge("aserve.inflight", self.inflight)
            self._semaphore.release()


def _retrieve(future: asyncio.Future) -> None:
    # Touch the exception so an unobserved leader failure (every follower
    # already gone) does not log "exception was never retrieved".
    if not future.cancelled():
        future.exception()


class Singleflight:
    """A table of in-flight computations keyed by result identity.

    The first request for a key becomes the *leader* and runs the
    computation; requests arriving while it is in flight become
    *followers* and await the leader's future (shielded, so one
    follower's disconnect cannot cancel the shared work).  The leader's
    exception — including :class:`Overloaded` — propagates to every
    follower: if the computation was shed, everyone waiting on it was.
    """

    def __init__(self) -> None:
        self._inflight: dict[str, asyncio.Future] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    async def run(
        self, key: str, compute: Callable[[], Awaitable[ServeResult]]
    ) -> tuple[ServeResult, bool]:
        """Return ``(result, coalesced)`` for ``key``.

        ``coalesced`` is True when this call joined an existing flight
        instead of computing.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            perf.count("aserve.coalesced")
            return await asyncio.shield(existing), True
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        future.add_done_callback(_retrieve)
        self._inflight[key] = future
        try:
            result = await compute()
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
            raise
        else:
            future.set_result(result)
            return result, False
        finally:
            self._inflight.pop(key, None)


class AsyncFrontEnd:
    """The asyncio HTTP front end over a catalog of services.

    Args:
        service: the (thread-safe) service — or
            :class:`~repro.catalog.catalog.Catalog` of services — every
            route delegates to; a lone service is wrapped in a one-entry
            catalog.  Requests pick their relation via a ``"table"``
            body field or ``?table=`` parameter; table-less requests
            resolve to the catalog's default relation and carry a
            ``Deprecation: true`` response header (docs/catalog.md).
        max_inflight: executor slots for compute routes (also the
            thread-pool size).
        max_queue: waiting-room bound; arrivals beyond it are shed.
        pressure_deadline_ms / min_deadline_ms: the deadline-tightening
            ramp (see :class:`AdmissionGate`).
        retry_after_s: ``Retry-After`` hint on shed responses.
        keep_alive_timeout_s: idle-connection reaping.
        max_body_bytes: request-body cap.
    """

    def __init__(
        self,
        service: Any,
        max_inflight: int = 8,
        max_queue: int = 32,
        pressure_deadline_ms: float = 1000.0,
        min_deadline_ms: float = 5.0,
        retry_after_s: float = 1.0,
        keep_alive_timeout_s: float = 30.0,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        self.catalog = _as_catalog(service)
        self.gate = AdmissionGate(
            max_inflight=max_inflight,
            max_queue=max_queue,
            pressure_deadline_ms=pressure_deadline_ms,
            min_deadline_ms=min_deadline_ms,
            retry_after_s=retry_after_s,
        )
        self.flights = Singleflight()
        self.keep_alive_timeout_s = keep_alive_timeout_s
        self.max_body_bytes = max_body_bytes
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight,
            thread_name_prefix="aserve",
        )
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

    def _resolve(
        self,
        request: HttpRequest,
        payload: dict[str, Any] | None,
        telem: dict[str, Any] | None = None,
    ) -> tuple[CategorizationService, dict[str, str]]:
        """Resolve the request's table (body field > query parameter).

        Returns the extra response headers: a defaulted (table-less)
        request carries ``Deprecation: true``.

        Raises:
            InvalidRequest: the ``table`` body field is not a string.
            UnknownTable: the named table is not in the catalog.
        """
        table = payload.get("table") if payload else None
        if table is not None and not isinstance(table, str):
            raise InvalidRequest("'table' must be a string", reason="table")
        if table is None:
            query = urlsplit(request.path).query
            if query:
                values = parse_qs(query).get("table")
                table = values[-1] if values else None
        service, defaulted = self.catalog.resolve(table)
        if telem is not None:
            telem["table"] = service.name
        return service, {"Deprecation": "true"} if defaulted else {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "AsyncFrontEnd":
        """Bind and start accepting connections (``port=0`` picks freely)."""
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def drain(self, grace_s: float = 5.0) -> bool:
        """Graceful shutdown: stop accepting, let in-flight work finish.

        Closes the listening socket (established keep-alive connections
        keep being answered), then waits up to ``grace_s`` for the
        admission gate to empty — nothing executing, nothing queued.

        Returns:
            True when the gate drained inside the grace period; False
            when it expired with work still in flight (counted on
            ``aserve.drain_timeouts``) and the caller should close
            anyway rather than hang forever.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + grace_s
        while self.gate.inflight or self.gate.waiting:
            if time.monotonic() >= deadline:
                perf.count("aserve.drain_timeouts")
                return False
            await asyncio.sleep(0.01)
        return True

    async def close(self) -> None:
        """Stop accepting, then release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False)

    # -- connection loop -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    perf.count("aserve.bad_requests")
                    await self._write_response(
                        writer,
                        400,
                        _json_bytes(
                            error_payload(
                                CODE_INVALID_REQUEST,
                                str(exc),
                                {"reason": "request"},
                            )
                        ),
                        "application/json",
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                telem: dict[str, Any] = {"arrived": time.perf_counter()}
                with perf.timer("aserve.request"):
                    status, body, content_type, extra = await self._dispatch(
                        request, telem
                    )
                perf.count(
                    "http.requests_by_route",
                    route=route_label(request.path),
                    method=request.method,
                    status=status,
                )
                served = time.perf_counter()
                await self._write_response(
                    writer,
                    status,
                    body,
                    content_type,
                    keep_alive=request.keep_alive,
                    extra=extra,
                )
                self._emit_frontend(telem, status, served)
                if not request.keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            TimeoutError,
        ):
            perf.count("http.client_disconnects")
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> HttpRequest | None:
        """Parse one request; None on clean EOF or idle timeout."""
        try:
            line = await asyncio.wait_for(
                reader.readline(), self.keep_alive_timeout_s
            )
        except asyncio.TimeoutError:
            return None  # idle keep-alive connection: reap it
        except ValueError as exc:  # request line over the stream limit
            raise _BadRequest("request line too long") from exc
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line {line.decode('latin-1')!r}")
        method, path, version = parts

        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            try:
                raw = await asyncio.wait_for(
                    reader.readline(), self.keep_alive_timeout_s
                )
            except (asyncio.TimeoutError, ValueError) as exc:
                raise _BadRequest("unterminated headers") from exc
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise _BadRequest("connection closed inside headers")
            name, separator, value = raw.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest(f"malformed header line {raw!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(f"over {_MAX_HEADERS} header lines")

        if "transfer-encoding" in headers:
            raise _BadRequest("chunked request bodies are not supported")
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            # A header the client mangled is the client's bug — 400,
            # not an escaping ValueError.
            raise _BadRequest(
                f"bad Content-Length header {raw_length.strip()!r}"
            ) from None
        if length < 0:
            raise _BadRequest(f"negative Content-Length {length}")
        if length > self.max_body_bytes:
            raise _BadRequest(f"request body over {self.max_body_bytes} bytes")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self.keep_alive_timeout_s
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
                raise _BadRequest("request body shorter than Content-Length") from exc
        return HttpRequest(method, path, version, headers, body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        keep_alive: bool,
        extra: dict[str, str] | None = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self, request: HttpRequest, telem: dict[str, Any]
    ) -> tuple[int, bytes, str, dict[str, str] | None]:
        """Route one request; returns (status, body, content type, headers).

        ``telem`` collects the request's telemetry story (trace id,
        waterfall timestamps, admission outcome) for
        :meth:`_emit_frontend`; compute routes allocate their trace id
        here so even shed 503s carry an ``X-Trace-Id``.
        """
        route = request.path.split("?", 1)[0]
        telem["route"] = route
        try:
            if request.method == "GET" and route == "/healthz":
                service, _ = self._resolve(request, None)
                # Default-table fields stay at the top level for legacy
                # single-table probes; the catalog map carries the rest.
                return self._ok(
                    {
                        "status": "ok",
                        **service.health(),
                        **self.catalog.health(),
                    }
                )
            if request.method == "GET" and route == "/metrics":
                self.catalog.record_gauges()
                text = perf.export_prometheus()
                return (
                    200,
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                    None,
                )
            if request.method == "POST" and route == "/categorize":
                telem["trace_id"] = self.catalog.new_trace_id()
                return await self._categorize(request, telem)
            if request.method == "POST" and route == "/categorize_batch":
                telem["trace_id"] = self.catalog.new_trace_id()
                return await self._categorize_batch(request, telem)
            if request.method == "POST" and route == "/record":
                telem["trace_id"] = self.catalog.new_trace_id()
                return await self._record(request, telem)
            return self._error(
                404,
                error_payload(
                    CODE_NOT_FOUND, f"no such endpoint {request.path!r}"
                ),
            )
        except Overloaded as exc:
            perf.count("aserve.shed", route=route)
            telem["outcome"] = "shed"
            extra = {"Retry-After": str(max(1, round(exc.retry_after_s)))}
            payload = error_payload(
                CODE_SHED, "overloaded: admission queue full", {"reason": "overload"}
            )
            if telem.get("trace_id"):
                extra["X-Trace-Id"] = telem["trace_id"]
                payload["trace_id"] = telem["trace_id"]
            return self._error(503, payload, extra=extra)
        except InvalidRequest as exc:
            perf.count("http.invalid_requests", reason=exc.reason)
            telem["outcome"] = "invalid"
            status, body = error_response(exc)
            return self._error(status, body)
        except IngestionStalled as exc:
            telem["outcome"] = "stalled"
            status, body = error_response(exc)
            return self._error(
                status,
                body,
                extra={"Retry-After": str(max(1, round(self.gate.retry_after_s)))},
            )
        except Exception as exc:  # pragma: no cover - last-resort guard
            perf.count("http.internal_errors")
            telem["outcome"] = "error"
            status, body = error_response(exc)
            return self._error(status, body)

    def _emit_frontend(
        self, telem: dict[str, Any], status: int, served: float
    ) -> None:
        """Ship one ``frontend`` event for a traced request (or nothing).

        ``served`` is the perf-counter instant the dispatch returned; the
        time from there to now (the response bytes written and drained)
        is the waterfall's ``respond`` stage.
        """
        trace_id = telem.get("trace_id")
        if not trace_id or telemetry.active() is None:
            return
        now = time.perf_counter()
        arrived = telem["arrived"]
        admitted = telem.get("admitted")
        queue_ms = ((admitted if admitted is not None else served) - arrived) * 1000.0
        compute_ms = (served - admitted) * 1000.0 if admitted is not None else 0.0
        telemetry.emit(
            telemetry.FRONTEND,
            trace_id,
            frontend="async",
            route=telem.get("route"),
            table=telem.get("table"),
            status=status,
            outcome=telem.get("outcome", "ok"),
            queue_ms=round(queue_ms, 3),
            compute_ms=round(compute_ms, 3),
            respond_ms=round((now - served) * 1000.0, 3),
            pressure=telem.get("pressure"),
            tightened=bool(telem.get("tightened")),
            deadline_ms=telem.get("deadline_ms"),
            coalesced=bool(telem.get("coalesced")),
            leader_trace_id=telem.get("leader_trace_id"),
        )

    @staticmethod
    def _ok(
        payload: dict[str, Any], extra: dict[str, str] | None = None
    ) -> tuple[int, bytes, str, dict[str, str] | None]:
        return 200, _json_bytes(payload), "application/json", extra

    @staticmethod
    def _error(
        status: int, payload: dict[str, Any], extra: dict[str, str] | None = None
    ) -> tuple[int, bytes, str, dict[str, str] | None]:
        return status, _json_bytes(payload), "application/json", extra

    # -- compute routes ------------------------------------------------------

    async def _categorize(
        self, request: HttpRequest, telem: dict[str, Any]
    ) -> tuple[int, bytes, str, dict[str, str] | None]:
        payload = _json_body(request)
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise InvalidRequest("body needs a non-empty 'sql' string", reason="sql")
        service, extra = self._resolve(request, payload, telem)
        deadline_ms = payload.get("deadline_ms")
        budget = payload.get("budget", RUNG_FULL)
        collect_trace = bool(payload.get("trace", False))
        trace_id = telem["trace_id"]

        async def lead() -> ServeResult:
            async with self.gate.admit("/categorize") as pressure:
                telem["admitted"] = time.perf_counter()
                telem["pressure"] = round(pressure, 4)
                effective = self._tightened(deadline_ms, pressure, telem)
                return await self._run(
                    service.categorize,
                    sql,
                    deadline_ms=effective,
                    budget=budget,
                    collect_trace=collect_trace,
                    trace_id=trace_id,
                )

        # Only full-budget, traceless requests can share a result: a trace
        # is computed per request, and a degraded budget asks for a
        # different (cheaper) tree than the full-rung flight computes.
        if budget == RUNG_FULL and not collect_trace:
            # Validates the SQL up front too — invalid requests are
            # rejected before they consume admission capacity.  The key
            # is namespaced per relation, so one singleflight table can
            # serve the whole catalog without cross-table sharing.
            key = service.coalescing_key(sql)
            result, coalesced = await self.flights.run(key, lead)
        else:
            result, coalesced = await lead(), False

        body = result.as_dict()
        if coalesced:
            body["coalesced"] = True
            telem["coalesced"] = True
            # The follower's own id never reached the service; record the
            # leader's so the audit can tie the share to its computation.
            telem["leader_trace_id"] = result.trace_id
        if payload.get("render") and result.tree is not None:
            body["rendering"] = render_tree(result.tree)
        if (
            collect_trace
            and result.tree is not None
            and result.tree.decision_trace is not None
        ):
            body["decision_trace"] = result.tree.decision_trace.as_dict()
        body["table"] = service.name
        # Clients correlate on the id of the computation that answered
        # them — the leader's for coalesced followers (matching the body).
        return self._ok(body, extra={"X-Trace-Id": result.trace_id, **extra})

    async def _categorize_batch(
        self, request: HttpRequest, telem: dict[str, Any]
    ) -> tuple[int, bytes, str, dict[str, str] | None]:
        payload = _json_body(request)
        sqls = payload.get("sqls")
        if (
            not isinstance(sqls, list)
            or not sqls
            or not all(isinstance(s, str) and s.strip() for s in sqls)
        ):
            raise InvalidRequest(
                "body needs a non-empty 'sqls' list of SQL strings", reason="sql"
            )
        service, extra = self._resolve(request, payload, telem)
        trace_id = telem["trace_id"]
        async with self.gate.admit("/categorize_batch") as pressure:
            telem["admitted"] = time.perf_counter()
            telem["pressure"] = round(pressure, 4)
            results = await self._run(
                service.categorize_many,
                sqls,
                deadline_ms=self._tightened(
                    payload.get("deadline_ms"), pressure, telem
                ),
                budget=payload.get("budget", RUNG_FULL),
                collect_trace=bool(payload.get("trace", False)),
                trace_id=trace_id,
            )
        rendered = bool(payload.get("render"))
        bodies = []
        for result in results:
            body = result.as_dict()
            if rendered and result.tree is not None:
                body["rendering"] = render_tree(result.tree)
            bodies.append(body)
        return self._ok(
            {
                "trace_id": trace_id,
                "table": service.name,
                "epoch": results[0].epoch if results else None,
                "count": len(bodies),
                "results": bodies,
            },
            extra={"X-Trace-Id": trace_id, **extra},
        )

    async def _record(
        self, request: HttpRequest, telem: dict[str, Any]
    ) -> tuple[int, bytes, str, dict[str, str] | None]:
        payload = _json_body(request)
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise InvalidRequest("body needs a non-empty 'sql' string", reason="sql")
        service, extra = self._resolve(request, payload, telem)
        async with self.gate.admit("/record"):
            telem["admitted"] = time.perf_counter()
            await self._run(service.record_query, sql)
        return self._ok(
            {"status": "recorded", **service.health()},
            extra={"X-Trace-Id": telem["trace_id"], **extra},
        )

    def _tightened(
        self,
        deadline_ms: float | None,
        pressure: float,
        telem: dict[str, Any] | None = None,
    ) -> float | None:
        """Apply the gate's pressure-derived cap to a request deadline."""
        cap = self.gate.deadline_cap_ms(pressure)
        if cap is None:
            if telem is not None:
                telem["deadline_ms"] = deadline_ms
            return deadline_ms
        if deadline_ms is None or cap < deadline_ms:
            perf.count("aserve.tightened")
            if telem is not None:
                telem["tightened"] = True
                telem["deadline_ms"] = cap
            return cap
        if telem is not None:
            telem["deadline_ms"] = deadline_ms
        return deadline_ms

    async def _run(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        """Run a blocking service call on the bounded executor."""
        loop = asyncio.get_running_loop()
        if kwargs:
            call = lambda: fn(*args, **kwargs)  # noqa: E731
        else:
            call = lambda: fn(*args)  # noqa: E731
        return await loop.run_in_executor(self._executor, call)


def _json_bytes(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _json_body(request: HttpRequest) -> dict[str, Any]:
    """Decode a JSON object body (an empty or non-object body is a 400)."""
    if not request.body:
        raise InvalidRequest("empty request body", reason="request")
    try:
        payload = json.loads(request.body)
    except json.JSONDecodeError as exc:
        raise InvalidRequest(f"bad JSON body: {exc}", reason="request") from exc
    if not isinstance(payload, dict):
        raise InvalidRequest("body must be a JSON object", reason="request")
    return payload


class AsyncServerHandle:
    """A running :class:`AsyncFrontEnd` on a background event-loop thread."""

    def __init__(
        self,
        frontend: AsyncFrontEnd,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        stop_event: asyncio.Event,
    ) -> None:
        self.frontend = frontend
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def address(self) -> tuple[str, int]:
        assert self.frontend.address is not None
        return self.frontend.address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout_s: float = 10.0) -> None:
        """Shut the server down and join the loop thread."""
        if self._thread.is_alive():
            with contextlib.suppress(RuntimeError):  # loop already gone
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout_s)


def start_in_thread(
    service: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    **options: Any,
) -> AsyncServerHandle:
    """Run an :class:`AsyncFrontEnd` on a daemon thread (tests, benches).

    ``service`` may be a lone service or a catalog, as in
    :class:`AsyncFrontEnd`.

    Blocks until the server is bound; returns a handle exposing the bound
    address and a ``stop()`` that tears the loop down cleanly.
    """
    ready = threading.Event()
    holder: dict[str, Any] = {}

    async def main() -> None:
        frontend = AsyncFrontEnd(service, **options)
        await frontend.start(host, port)
        stop_event = asyncio.Event()
        holder["frontend"] = frontend
        holder["loop"] = asyncio.get_running_loop()
        holder["stop_event"] = stop_event
        ready.set()
        try:
            await stop_event.wait()
        finally:
            await frontend.close()

    def run() -> None:
        try:
            asyncio.run(main())
        except Exception as exc:  # startup failure: unblock the caller
            holder["error"] = exc
            ready.set()

    thread = threading.Thread(target=run, daemon=True, name="aserve-loop")
    thread.start()
    if not ready.wait(timeout=10.0):
        raise RuntimeError("async front end failed to start within 10 s")
    if "error" in holder:
        raise holder["error"]
    return AsyncServerHandle(
        holder["frontend"], holder["loop"], thread, holder["stop_event"]
    )
