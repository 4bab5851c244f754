"""Tests for the asyncio front end: protocol, coalescing, shedding.

The concurrency tests block the *service* (not the server) behind
threading events, so the interesting interleavings — N identical
requests in flight at once, a full waiting room — are constructed
deterministically instead of hoping a timing race lands the right way.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import socket
import threading
import time

import pytest

from repro.serving.aserve import (
    AdmissionGate,
    HttpRequest,
    Overloaded,
    Singleflight,
    start_in_thread,
)

from tests.serving.conftest import SERVE_SQL

SQL_A = "SELECT * FROM ListProperty WHERE price <= 300000"
SQL_B = "SELECT * FROM ListProperty WHERE bedroomcount = 3"
SQL_C = "SELECT * FROM ListProperty WHERE price >= 500000"


@contextlib.contextmanager
def running(service, **options):
    handle = start_in_thread(service, **options)
    try:
        yield handle
    finally:
        handle.stop()


def _request(handle, method, path, payload=None, timeout=30.0):
    """One request on a fresh connection → (status, headers, json body)."""
    host, port = handle.address
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body, headers)
        response = connection.getresponse()
        raw = response.read()
        decoded = json.loads(raw) if raw and raw.strip().startswith(b"{") else raw
        headers = {name.lower(): value for name, value in response.getheaders()}
        return response.status, headers, decoded
    finally:
        connection.close()


def _read_response(stream):
    """Parse one HTTP response (status, headers, body) off a makefile."""
    status_line = stream.readline()
    assert status_line, "connection closed before a response arrived"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", "0")))
    return status, headers, body


def _wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


class _BlockingService:
    """Wraps ``service.categorize`` so the test controls when it returns."""

    def __init__(self, service, block_first_only=False):
        self.calls = []
        self.started = threading.Event()
        self.release = threading.Event()
        self._block_first_only = block_first_only
        self._original = service.categorize
        service.categorize = self  # instance attribute shadows the method

    def __call__(self, sql, **kwargs):
        should_block = not (self._block_first_only and self.started.is_set())
        self.calls.append(sql)
        self.started.set()
        if should_block:
            assert self.release.wait(timeout=30), "test never released the service"
        return self._original(sql, **kwargs)


class TestEndpoints:
    """The five routes, one request per connection."""

    def test_healthz_and_metrics(self, make_service, perf_on):
        with running(make_service()) as handle:
            status, _, payload = _request(handle, "GET", "/healthz")
            assert status == 200
            assert payload["status"] == "ok"
            _request(handle, "POST", "/categorize", {"sql": SERVE_SQL})
            status, headers, text = _request(handle, "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            assert b"repro_http_requests_by_route_total" in text

    def test_categorize_roundtrip(self, make_service):
        with running(make_service()) as handle:
            status, _, payload = _request(
                handle, "POST", "/categorize", {"sql": SERVE_SQL, "render": True}
            )
            assert status == 200
            assert payload["rung"] == "full"
            assert payload["row_count"] > 0
            assert payload["trace_id"].startswith("req-")
            assert "rendering" in payload

    def test_categorize_batch(self, make_service):
        with running(make_service()) as handle:
            status, _, payload = _request(
                handle, "POST", "/categorize_batch", {"sqls": [SQL_A, SQL_B]}
            )
            assert status == 200
            assert payload["count"] == 2
            assert {r["epoch"] for r in payload["results"]} == {payload["epoch"]}

    def test_record_roundtrip(self, make_service):
        with running(make_service(batch_size=2)) as handle:
            status, _, payload = _request(
                handle, "POST", "/record", {"sql": SQL_B}
            )
            assert status == 200
            assert payload["status"] == "recorded"
            _request(handle, "POST", "/record", {"sql": SQL_B})
            _, _, health = _request(handle, "GET", "/healthz")
            assert health["epoch"] == 1  # batch of 2 published

    def test_responses_carry_x_trace_id(self, make_service):
        with running(make_service()) as handle:
            _, headers, payload = _request(
                handle, "POST", "/categorize", {"sql": SERVE_SQL}
            )
            assert headers["x-trace-id"] == payload["trace_id"]
            _, headers, payload = _request(
                handle, "POST", "/categorize_batch", {"sqls": [SQL_A, SQL_B]}
            )
            assert headers["x-trace-id"] == payload["trace_id"]
            assert all(
                r["trace_id"].startswith(payload["trace_id"] + "#")
                for r in payload["results"]
            )
            _, headers, _ = _request(handle, "POST", "/record", {"sql": SQL_B})
            assert headers["x-trace-id"].startswith("req-")

    def test_trace_request_bypasses_coalescing_and_traces(self, make_service):
        with running(make_service()) as handle:
            _, _, payload = _request(
                handle, "POST", "/categorize", {"sql": SERVE_SQL, "trace": True}
            )
            assert payload["decision_trace"]["trace_id"] == payload["trace_id"]


class TestErrorMapping:
    def test_bad_sql_is_400_with_reason(self, make_service):
        with running(make_service()) as handle:
            status, _, payload = _request(
                handle, "POST", "/categorize", {"sql": "SELECT FROM WHERE"}
            )
            assert status == 400
            assert payload["error"]["code"] == "SqlError"
            assert payload["error"]["detail"]["reason"] == "sql"

    @pytest.mark.parametrize("route", ["/categorize", "/record"])
    def test_unconvertible_digit_is_400_sql_error(self, make_service, route):
        # '²' is a digit to str.isdigit() but not to int(): the lexer must
        # turn it into a SqlError, not let a ValueError become a 500.
        sql = "SELECT * FROM ListProperty WHERE price = ²"
        with running(make_service()) as handle:
            status, _, payload = _request(handle, "POST", route, {"sql": sql})
        assert status == 400
        assert payload["error"]["code"] == "SqlError"
        assert payload["error"]["detail"]["reason"] == "sql"

    def test_bad_json_is_400(self, make_service):
        with running(make_service()) as handle:
            host, port = handle.address
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request(
                    "POST", "/categorize", b"not json",
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 400
                assert payload["error"]["code"] == "InvalidRequest"
                assert payload["error"]["detail"]["reason"] == "request"
            finally:
                connection.close()

    def test_unknown_endpoint_is_404(self, make_service):
        with running(make_service()) as handle:
            status, _, _ = _request(handle, "GET", "/nope")
            assert status == 404
            status, _, _ = _request(handle, "POST", "/nope", {"sql": SQL_A})
            assert status == 404

    def test_degradation_is_not_an_error(self, make_service):
        with running(make_service()) as handle:
            status, _, payload = _request(
                handle, "POST", "/categorize",
                {"sql": SERVE_SQL, "budget": "showtuples"},
            )
            assert status == 200
            assert payload["rung"] == "showtuples"


class TestProtocol:
    """Raw-socket HTTP/1.1 behavior: keep-alive, pipelining, framing."""

    def test_keep_alive_serves_sequential_requests_on_one_socket(
        self, make_service
    ):
        with running(make_service()) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                stream = sock.makefile("rb")
                for _ in range(3):
                    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    status, headers, body = _read_response(stream)
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                    assert json.loads(body)["status"] == "ok"

    def test_pipelined_requests_answered_in_order(self, make_service):
        body = json.dumps({"sql": SERVE_SQL}).encode()
        with running(make_service()) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                sock.sendall(
                    b"POST /categorize HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                    + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                stream = sock.makefile("rb")
                first = _read_response(stream)
                second = _read_response(stream)
        assert first[0] == 200 and json.loads(first[2])["rung"] == "full"
        assert second[0] == 200 and json.loads(second[2])["status"] == "ok"

    def test_connection_close_is_honored(self, make_service):
        with running(make_service()) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n"
                )
                stream = sock.makefile("rb")
                status, headers, _ = _read_response(stream)
                assert status == 200
                assert headers["connection"] == "close"
                assert stream.read() == b""  # server closed after the reply

    def test_http10_defaults_to_close(self, make_service):
        with running(make_service()) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
                stream = sock.makefile("rb")
                status, headers, _ = _read_response(stream)
                assert status == 200
                assert headers["connection"] == "close"
                assert stream.read() == b""

    def test_idle_keep_alive_connection_is_reaped(self, make_service):
        with running(make_service(), keep_alive_timeout_s=0.3) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.settimeout(10)
                assert sock.recv(1) == b""  # reaped without a byte sent

    def test_malformed_request_line_is_400_and_closes(self, make_service):
        with running(make_service()) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                stream = sock.makefile("rb")
                status, headers, _ = _read_response(stream)
                assert status == 400
                assert headers["connection"] == "close"
                assert stream.read() == b""

    def test_malformed_content_length_is_400(self, make_service):
        with running(make_service()) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(
                    b"POST /categorize HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: banana\r\n\r\n"
                )
                status, _, body = _read_response(sock.makefile("rb"))
                assert status == 400
                assert b"banana" in body

    def test_oversize_body_is_rejected(self, make_service):
        with running(make_service(), max_body_bytes=64) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(
                    b"POST /categorize HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 100000\r\n\r\n"
                )
                status, _, body = _read_response(sock.makefile("rb"))
                assert status == 400
                assert b"64" in body

    def test_chunked_bodies_are_rejected(self, make_service):
        with running(make_service()) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(
                    b"POST /categorize HTTP/1.1\r\nHost: t\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                )
                status, _, body = _read_response(sock.makefile("rb"))
                assert status == 400
                assert b"chunked" in body


class TestCoalescing:
    def test_identical_inflight_requests_compute_once(
        self, make_service, perf_on
    ):
        service = make_service(cache_capacity=0)
        blocker = _BlockingService(service)
        clients = 5
        results = []

        def client():
            results.append(_request(handle, "POST", "/categorize", {"sql": SQL_A}))

        with running(service, max_inflight=4, max_queue=32) as handle:
            threads = [
                threading.Thread(target=client, daemon=True) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            # The leader is inside the service; hold it there until every
            # follower has joined its flight (counted on aserve.coalesced),
            # then let the one computation finish.
            blocker.started.wait(timeout=30)
            _wait_for(
                lambda: perf_on.counters.get("aserve.coalesced", 0) >= clients - 1,
                message="followers to join the flight",
            )
            blocker.release.set()
            for thread in threads:
                thread.join(timeout=30)

        assert len(blocker.calls) == 1  # exactly one engine computation
        assert [status for status, _, _ in results] == [200] * clients
        trace_ids = {payload["trace_id"] for _, _, payload in results}
        assert len(trace_ids) == 1  # everyone shares the leader's result
        coalesced = [p for _, _, p in results if p.get("coalesced")]
        assert len(coalesced) == clients - 1
        assert perf_on.counters["aserve.coalesced"] == clients - 1

    def test_distinct_requests_do_not_coalesce(self, make_service, perf_on):
        service = make_service(cache_capacity=0)
        with running(service) as handle:
            for sql in (SQL_A, SQL_B, SQL_C):
                status, _, _ = _request(handle, "POST", "/categorize", {"sql": sql})
                assert status == 200
        assert perf_on.counters.get("aserve.coalesced", 0) == 0

    def test_invalid_sql_rejected_before_admission(self, make_service, perf_on):
        service = make_service()
        with running(service, max_inflight=1, max_queue=0) as handle:
            status, _, payload = _request(
                handle, "POST", "/categorize", {"sql": "SELECT FROM WHERE"}
            )
        assert status == 400
        assert payload["error"]["code"] == "SqlError"
        assert perf_on.gauges.get("aserve.waiting", 0) == 0


class TestShedding:
    def test_full_waiting_room_sheds_with_retry_after(
        self, make_service, perf_on
    ):
        service = make_service(cache_capacity=0)
        blocker = _BlockingService(service)
        answers = {}

        def client(name, sql):
            answers[name] = _request(handle, "POST", "/categorize", {"sql": sql})

        with running(
            service, max_inflight=1, max_queue=1, retry_after_s=2.0
        ) as handle:
            thread_a = threading.Thread(target=client, args=("a", SQL_A), daemon=True)
            thread_a.start()
            blocker.started.wait(timeout=30)  # A holds the one executor slot
            thread_b = threading.Thread(target=client, args=("b", SQL_B), daemon=True)
            thread_b.start()
            _wait_for(
                lambda: handle.frontend.gate.waiting >= 1,
                message="B to enter the waiting room",
            )
            # The room is now full: C must be shed *immediately* (while A
            # and B are still blocked), answered 503 with a Retry-After.
            status, headers, payload = _request(
                handle, "POST", "/categorize", {"sql": SQL_C}, timeout=10
            )
            assert status == 503
            assert headers["retry-after"] == "2"
            assert payload["error"]["code"] == "Shed"
            assert payload["error"]["detail"]["reason"] == "overload"
            # Shed answers are still traceable end to end.
            assert headers["x-trace-id"] == payload["trace_id"]
            assert payload["trace_id"].startswith("req-")
            blocker.release.set()
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)

        # Every admitted request was answered; the shed one was counted.
        assert answers["a"][0] == 200
        assert answers["b"][0] == 200
        assert perf_on.counters["aserve.shed{route=/categorize}"] == 1
        assert len(blocker.calls) == 2  # the shed request never computed

    def test_pressure_tightens_deadlines_down_the_ladder(
        self, make_service, perf_on
    ):
        service = make_service(cache_capacity=0)
        service.categorize(SERVE_SQL)  # warm the ladder's level-cost EWMA
        blocker = _BlockingService(service, block_first_only=True)
        answers = {}

        def client(name, sql):
            answers[name] = _request(handle, "POST", "/categorize", {"sql": sql})

        with running(
            service,
            max_inflight=1,
            max_queue=4,
            pressure_deadline_ms=2.0,
            min_deadline_ms=1.0,
        ) as handle:
            thread_a = threading.Thread(target=client, args=("a", SQL_A), daemon=True)
            thread_a.start()
            blocker.started.wait(timeout=30)
            thread_b = threading.Thread(target=client, args=("b", SQL_B), daemon=True)
            thread_b.start()
            _wait_for(
                lambda: handle.frontend.gate.waiting >= 1,
                message="B to queue behind A",
            )
            # C arrives at pressure 1/4: its (absent) deadline is capped at
            # ~1.75 ms, far below one level's warmed cost estimate, so the
            # ladder serves a degraded rung instead of queueing full work.
            thread_c = threading.Thread(target=client, args=("c", SQL_C), daemon=True)
            thread_c.start()
            _wait_for(
                lambda: handle.frontend.gate.waiting >= 2,
                message="C to queue behind B",
            )
            blocker.release.set()
            for thread in (thread_a, thread_b, thread_c):
                thread.join(timeout=30)

        assert answers["c"][0] == 200
        assert answers["c"][2]["rung"] != "full"  # quality shed, not the request
        assert perf_on.counters.get("aserve.tightened", 0) >= 1


class TestAdmissionGateUnit:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queue=-1)

    def test_deadline_cap_ramp(self):
        gate = AdmissionGate(pressure_deadline_ms=1000.0, min_deadline_ms=5.0)
        assert gate.deadline_cap_ms(0.0) is None
        assert gate.deadline_cap_ms(1.0) == pytest.approx(5.0)
        assert gate.deadline_cap_ms(0.5) == pytest.approx(502.5)
        assert gate.deadline_cap_ms(2.0) == pytest.approx(5.0)  # clamped

    def test_zero_queue_sheds_any_concurrent_arrival(self):
        async def scenario():
            gate = AdmissionGate(max_inflight=1, max_queue=0)
            release = asyncio.Event()

            async def hold():
                async with gate.admit("/categorize"):
                    await release.wait()

            holder = asyncio.ensure_future(hold())
            await asyncio.sleep(0)  # let the holder take the slot
            with pytest.raises(Overloaded):
                async with gate.admit("/categorize"):
                    pass
            release.set()
            await holder

        asyncio.run(scenario())


class TestSingleflightUnit:
    def test_leader_failure_propagates_to_followers(self):
        async def scenario():
            flights = Singleflight()
            entered = asyncio.Event()
            release = asyncio.Event()

            async def failing():
                entered.set()
                await release.wait()
                raise Overloaded(1.0)

            async def follow():
                await entered.wait()
                return await flights.run("k", failing)

            leader = asyncio.ensure_future(flights.run("k", failing))
            follower = asyncio.ensure_future(follow())
            await entered.wait()
            release.set()
            with pytest.raises(Overloaded):
                await leader
            with pytest.raises(Overloaded):
                await follower
            assert len(flights) == 0  # table drained after the failure

        asyncio.run(scenario())

    def test_flight_table_drains_after_success(self):
        async def scenario():
            flights = Singleflight()

            async def compute():
                return "tree"

            result, coalesced = await flights.run("k", compute)
            assert (result, coalesced) == ("tree", False)
            assert len(flights) == 0

        asyncio.run(scenario())


class TestHttpRequestUnit:
    def test_keep_alive_rules(self):
        def req(version, connection=None):
            headers = {"connection": connection} if connection else {}
            return HttpRequest("GET", "/", version, headers, b"")

        assert req("HTTP/1.1").keep_alive is True
        assert req("HTTP/1.1", "close").keep_alive is False
        assert req("HTTP/1.1", "Keep-Alive").keep_alive is True
        assert req("HTTP/1.0").keep_alive is False
        assert req("HTTP/1.0", "keep-alive").keep_alive is True
