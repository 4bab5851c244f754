"""The benchmark's HTTP client: stdlib ``http.client``, one process.

It holds at most ``connections`` keep-alive connections, one per worker
thread, and imports nothing from the program, so a rework of the
program's own load generator or front ends cannot change the instrument.
Responses are kept as raw bytes and parsed after the timed phases.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass

#: A request that takes longer than this counts as a timeout failure.
TIMEOUT_S = 15.0


@dataclass
class Response:
    """One request as the client saw it; times are ``time.monotonic_ns``."""

    phase: str
    kind: str  # "read" or "write"
    sql: str
    conn: int
    due_ns: int
    sent_ns: int
    recv_ns: int
    status: int  # 0 when the request failed in transport or timed out
    trace_id: str | None
    body: bytes
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """From when the request was due (open loop) or sent."""
        return (self.recv_ns - self.due_ns) / 1e6

    @property
    def service_window_ms(self) -> float:
        """From the first byte sent to the last byte received."""
        return (self.recv_ns - self.sent_ns) / 1e6


class Client:
    """Drives one server at ``host:port`` for the phases of a run."""

    def __init__(
        self, host: str, port: int, connections: int, limit_ms: float, table: str
    ) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self.limit_ms = limit_ms
        self.table = table
        # Set by a transport failure or timeout: no phase sends after it,
        # so a dead or hung server cannot stall the run.
        self.aborted = False

    def _payload(self, kind: str, sql: str) -> tuple[str, bytes]:
        if kind == "read":
            body = {
                "sql": sql,
                "table": self.table,
                "render": True,
                "deadline_ms": self.limit_ms,
            }
            return "/categorize", json.dumps(body).encode()
        return "/record", json.dumps({"sql": sql, "table": self.table}).encode()

    def _send(self, state: list, index: int, phase: str, request, due_ns: int) -> Response:
        """Send one request on worker ``index``'s connection (``state[0]``)."""
        path, payload = self._payload(request.kind, request.sql)
        if state[0] is None:
            state[0] = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        conn = state[0]
        sent = time.monotonic_ns()
        try:
            conn.request(
                "POST", path, body=payload, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            body = response.read()
            recv = time.monotonic_ns()
            return Response(
                phase, request.kind, request.sql, index, due_ns or sent, sent, recv,
                response.status, response.getheader("X-Trace-Id"), body,
            )
        except (OSError, http.client.HTTPException) as exc:
            recv = time.monotonic_ns()
            conn.close()
            state[0] = None
            error = "timeout" if isinstance(exc, TimeoutError) else type(exc).__name__
            self.aborted = True
            return Response(
                phase, request.kind, request.sql, index, due_ns or sent, sent, recv,
                0, None, b"", error,
            )

    def _run_workers(self, work, connections: int) -> list[Response]:
        results: list[Response] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            state = [None]
            try:
                for response in work(index, state):
                    with lock:
                        results.append(response)
            finally:
                if state[0] is not None:
                    state[0].close()

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"perfbench-conn-{i}")
            for i in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results

    def open_loop(self, phase: str, requests: list) -> list[Response]:
        """Send each request at its ``due`` offset; time it from then."""
        taken = itertools.count()
        start = time.monotonic_ns() + 20_000_000  # let every worker get ready

        def work(index: int, state: list):
            while not self.aborted and (position := next(taken)) < len(requests):
                request = requests[position]
                due = start + int(request.due * 1e9)
                delay = (due - time.monotonic_ns()) / 1e9
                if delay > 0:
                    time.sleep(delay)
                yield self._send(state, index, phase, request, due)

        return self._run_workers(work, self.connections)

    def closed_loop(
        self, phase: str, requests: list, seconds: float
    ) -> tuple[list[Response], float]:
        """Each connection sends its next request when the last returns.

        Stops when the batch is used up or, at the latest, after
        ``seconds``.  Returns the responses and the elapsed seconds until
        the last one arrived.
        """
        source = iter(requests)
        lock = threading.Lock()
        start = time.monotonic_ns()
        stop = start + int(seconds * 1e9)

        def work(index: int, state: list):
            while not self.aborted and time.monotonic_ns() < stop:
                with lock:
                    request = next(source, None)
                if request is None:
                    return
                yield self._send(state, index, phase, request, 0)

        results = self._run_workers(work, self.connections)
        last = max((r.recv_ns for r in results), default=start)
        return results, (last - start) / 1e9

    def sequential(self, phase: str, requests: list) -> list[Response]:
        """One connection, one request at a time (warm-up, write probe)."""

        def work(index: int, state: list):
            for request in requests:
                if self.aborted:
                    return
                yield self._send(state, index, phase, request, 0)

        return self._run_workers(work, 1)
