"""Closed-loop load generator for the HTTP front end.

N client threads each hold ONE keep-alive connection and issue requests
back to back — a new request only after the previous response (a *closed
loop*, so offered load adapts to server speed instead of queueing
unboundedly on the client side, and throughput is a property of the
server, not the generator).  Every response is accounted: per-status
counts, per-rung counts, and the full latency sample set reduced to
p50/p99.  503s are *answers*, not errors — the shed-accounting contract
("every shed request is a counted 503") is checked by comparing the
generator's 503 count against the server's ``aserve.shed`` counter.

The query mix cycles per client with a per-client offset, so a short mix
is duplicate-heavy across concurrent clients (the coalescing-friendly
shape an interactive search front end actually sees: many users, few
distinct queries).

Used by ``repro loadgen`` (CLI) and ``benchmarks/test_serving_load.py``
(the p99 and work-count gates in CI).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence
from urllib.parse import urlsplit

#: Default duplicate-heavy mix over the built-in ListProperty relation.
DEFAULT_MIX = (
    "SELECT * FROM ListProperty WHERE price <= 300000",
    "SELECT * FROM ListProperty WHERE bedroomcount = 3",
    "SELECT * FROM ListProperty WHERE price >= 500000",
    "SELECT * FROM ListProperty WHERE bathcount >= 2",
)

#: First-connect retry budget: ~2 s of 50 ms backoffs, enough to cover a
#: `repro serve` still parsing its CSV / binding its socket.
CONNECT_ATTEMPTS = 40
CONNECT_BACKOFF_S = 0.05


def connect_with_retry(
    host: str,
    port: int,
    timeout_s: float,
    attempts: int = CONNECT_ATTEMPTS,
    backoff_s: float = CONNECT_BACKOFF_S,
) -> http.client.HTTPConnection:
    """An ``HTTPConnection`` whose TCP connect outlives the server's bind race.

    Clients launched alongside ``repro serve`` (tests, scripts, CI) race
    the server's startup: the first connect lands before the socket is
    bound and dies with ``ConnectionRefusedError``.  Retry just that —
    refusal is instant, so a short backoff loop costs nothing once the
    server is up, and any *other* failure (timeout, unreachable host)
    still raises immediately.
    """
    for attempt in range(attempts):
        connection = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            connection.connect()
            return connection
        except ConnectionRefusedError:
            connection.close()
            if attempt + 1 == attempts:
                raise
            time.sleep(backoff_s)
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class LoadReport:
    """Aggregated outcome of one closed-loop run."""

    clients: int
    requests: int
    responses: int
    errors: int
    elapsed_s: float
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    status_counts: dict[int, int] = field(default_factory=dict)
    rung_counts: dict[str, int] = field(default_factory=dict)
    coalesced: int = 0
    #: Wire error codes (``{"error": {"code": ...}}``) seen on >= 400
    #: answers, with one example message each — what `repro loadgen`
    #: prints so a misdirected run says "UnknownTable: ..." instead of
    #: dumping raw bodies.
    error_code_counts: dict[str, int] = field(default_factory=dict)
    error_examples: dict[str, str] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        return self.status_counts.get(503, 0)

    @property
    def client_errors(self) -> int:
        """Answers that blame the request itself (4xx) — not shed 503s."""
        return sum(
            count
            for status, count in self.status_counts.items()
            if 400 <= status < 500
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 3),
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
            "rung_counts": dict(sorted(self.rung_counts.items())),
            "coalesced": self.coalesced,
            "shed": self.shed,
            "error_code_counts": dict(sorted(self.error_code_counts.items())),
        }


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of an unsorted sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class _ClientWorker:
    """One closed-loop client on one keep-alive connection."""

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        sqls: Sequence[str],
        requests: int,
        deadline_ms: float | None,
        budget: str,
        timeout_s: float,
        barrier: threading.Barrier,
        table: str | None = None,
    ) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.sqls = sqls
        self.requests = requests
        self.deadline_ms = deadline_ms
        self.budget = budget
        self.timeout_s = timeout_s
        self.barrier = barrier
        self.table = table
        self.latencies_ms: list[float] = []
        self.statuses: Counter[int] = Counter()
        self.rungs: Counter[str] = Counter()
        self.coalesced = 0
        self.errors = 0
        self.error_codes: Counter[str] = Counter()
        self.error_examples: dict[str, str] = {}

    def run(self) -> None:
        try:
            connection = connect_with_retry(
                self.host, self.port, timeout_s=self.timeout_s
            )
        except OSError:
            # Never came up inside the retry budget: every request this
            # client would have sent is an error, and the barrier breaks
            # so the siblings bail out too instead of hanging on it.
            self.errors += self.requests
            self.barrier.abort()
            return
        try:
            self.barrier.wait(timeout=self.timeout_s)
        except threading.BrokenBarrierError:
            self.errors += self.requests
            connection.close()
            return
        try:
            for i in range(self.requests):
                sql = self.sqls[(self.index + i) % len(self.sqls)]
                payload: dict[str, Any] = {"sql": sql, "budget": self.budget}
                if self.table is not None:
                    payload["table"] = self.table
                if self.deadline_ms is not None:
                    payload["deadline_ms"] = self.deadline_ms
                body = json.dumps(payload)
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST",
                        "/categorize",
                        body,
                        {"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException):
                    # Transport failure — not an HTTP answer.  Count it
                    # loudly (the bench asserts zero) and reconnect.
                    self.errors += 1
                    connection.close()
                    connection = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout_s
                    )
                    continue
                self.latencies_ms.append((time.perf_counter() - started) * 1000.0)
                self.statuses[response.status] += 1
                try:
                    answer = json.loads(data)
                except ValueError:
                    answer = {}
                if response.status == 200:
                    rung = answer.get("rung")
                    if rung:
                        self.rungs[rung] += 1
                    if answer.get("coalesced"):
                        self.coalesced += 1
                elif response.status >= 400:
                    error = answer.get("error")
                    if isinstance(error, dict) and error.get("code"):
                        code = str(error["code"])
                        message = str(error.get("message", ""))
                    else:
                        code, message = f"HTTP{response.status}", ""
                    self.error_codes[code] += 1
                    self.error_examples.setdefault(code, message)
        finally:
            connection.close()


def run_loadgen(
    url: str,
    sqls: Sequence[str] = DEFAULT_MIX,
    clients: int = 32,
    requests_per_client: int = 10,
    deadline_ms: float | None = None,
    budget: str = "full",
    timeout_s: float = 60.0,
    table: str | None = None,
) -> LoadReport:
    """Drive ``clients`` closed-loop clients against a running server.

    Args:
        url: base URL of a ``repro serve`` instance.
        sqls: query mix, cycled per client with a per-client offset.
        clients: concurrent connections (each is one OS thread here; the
            *server* under test is what must scale).
        requests_per_client: requests each client issues back to back.
        deadline_ms / budget: forwarded on every request.
        timeout_s: per-request client timeout (a server that blows past
            it is counted as an error, never waited on forever).
        table: relation to address on every request (``table=`` body
            field); None exercises the legacy default-table path.

    Returns:
        A :class:`LoadReport` over all ``clients * requests_per_client``
        requests.
    """
    if not sqls:
        raise ValueError("loadgen needs at least one SQL statement")
    if clients < 1 or requests_per_client < 1:
        raise ValueError("clients and requests_per_client must be >= 1")
    parts = urlsplit(url if "//" in url else f"http://{url}")
    host, port = parts.hostname or "127.0.0.1", parts.port or 80

    barrier = threading.Barrier(clients + 1)
    workers = [
        _ClientWorker(
            index, host, port, list(sqls), requests_per_client,
            deadline_ms, budget, timeout_s, barrier, table=table,
        )
        for index in range(clients)
    ]
    threads = [
        threading.Thread(target=worker.run, daemon=True, name=f"loadgen-{i}")
        for i, worker in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=timeout_s)  # release every client at once
    except threading.BrokenBarrierError:
        pass  # a client aborted (connect failed); the report counts it
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    latencies = [sample for worker in workers for sample in worker.latencies_ms]
    statuses: Counter[int] = Counter()
    rungs: Counter[str] = Counter()
    error_codes: Counter[str] = Counter()
    error_examples: dict[str, str] = {}
    errors = coalesced = 0
    for worker in workers:
        statuses.update(worker.statuses)
        rungs.update(worker.rungs)
        error_codes.update(worker.error_codes)
        for code, message in worker.error_examples.items():
            error_examples.setdefault(code, message)
        errors += worker.errors
        coalesced += worker.coalesced
    responses = sum(statuses.values())
    return LoadReport(
        clients=clients,
        requests=clients * requests_per_client,
        responses=responses,
        errors=errors,
        elapsed_s=elapsed,
        throughput_rps=responses / elapsed if elapsed > 0 else 0.0,
        p50_ms=percentile(latencies, 0.50),
        p99_ms=percentile(latencies, 0.99),
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        status_counts=dict(statuses),
        rung_counts=dict(rungs),
        coalesced=coalesced,
        error_code_counts=dict(error_codes),
        error_examples=error_examples,
    )
