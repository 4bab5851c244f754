"""The HTTP contract of the front end: routes, error mapping, route
labels, and clients that hang up mid-reply."""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.serving.aserve import AsyncFrontEnd, route_label, start_in_thread
from repro.serving.journal import SpillJournal
from repro.workload.model import WorkloadQuery

from tests.serving.conftest import LOG_SQL, SERVE_SQL, conserved, file_size_limit


@pytest.fixture
def server(make_service):
    handle = start_in_thread(make_service(batch_size=2))  # free port
    yield handle
    handle.stop()


def _url(server, path):
    return server.url + path


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post_with_headers(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        headers = {name.lower(): value for name, value in response.getheaders()}
        return response.status, headers, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["epoch"] == 0
        assert conserved(payload)

    def test_metrics_is_prometheus_text(self, server, perf_on):
        _post(server, "/categorize", {"sql": SERVE_SQL})
        with urllib.request.urlopen(_url(server, "/metrics"), timeout=10) as response:
            status = response.status
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE" in body
        assert "repro_serve_requests_total" in body
        assert "repro_http_requests_by_route_total" in body

    def test_executor_spans_nest_under_the_request(self, server, perf_on):
        # The service call runs on an executor thread in the request's
        # context, so one request records one span tree.
        _post(server, "/categorize", {"sql": SERVE_SQL})
        _, body = _get(server, "/metrics")
        assert 'path="aserve.request/serve.request"' in body
        assert 'path="serve.request"' not in body

    def test_categorize_roundtrip(self, server):
        status, payload = _post(
            server, "/categorize", {"sql": SERVE_SQL, "render": True}
        )
        assert status == 200
        assert payload["rung"] == "full"
        assert payload["row_count"] > 0
        assert payload["trace_id"].startswith("req-")
        assert "rendering" in payload

    def test_categorize_batch(self, server):
        status, payload = _post(
            server, "/categorize_batch", {"sqls": [SERVE_SQL, LOG_SQL]}
        )
        assert status == 200
        assert payload["count"] == 2
        assert {r["epoch"] for r in payload["results"]} == {payload["epoch"]}

    def test_responses_carry_x_trace_id(self, server):
        _, headers, payload = _post_with_headers(
            server, "/categorize", {"sql": SERVE_SQL}
        )
        assert headers["x-trace-id"] == payload["trace_id"]
        _, headers, payload = _post_with_headers(
            server, "/categorize_batch", {"sqls": [SERVE_SQL, LOG_SQL]}
        )
        assert headers["x-trace-id"] == payload["trace_id"]
        # Batch statements share the header's root id.
        assert all(
            r["trace_id"].startswith(payload["trace_id"] + "#")
            for r in payload["results"]
        )
        _, headers, payload = _post_with_headers(server, "/record", {"sql": LOG_SQL})
        assert headers["x-trace-id"].startswith("req-")

    def test_categorize_with_trace(self, server):
        _, payload = _post(server, "/categorize", {"sql": SERVE_SQL, "trace": True})
        assert payload["decision_trace"]["trace_id"] == payload["trace_id"]
        assert payload["decision_trace"]["served_rung"] == "full"

    def test_trace_after_untraced_read_carries_its_own_trace(self, server):
        # After an untraced read cached the tree, a traced read still
        # carries its own trace, not the cached build's (or none).
        _post(server, "/categorize", {"sql": SERVE_SQL})
        _, payload = _post(server, "/categorize", {"sql": SERVE_SQL, "trace": True})
        assert payload["decision_trace"]["trace_id"] == payload["trace_id"]

    def test_record_roundtrip(self, server):
        status, payload = _post(server, "/record", {"sql": LOG_SQL})
        assert status == 200
        assert payload["status"] == "recorded"
        assert payload["recorded"] == 1
        _post(server, "/record", {"sql": LOG_SQL})
        status, body = _get(server, "/healthz")
        assert json.loads(body)["epoch"] == 1  # batch of 2 published


class TestErrorMapping:
    def test_bad_sql_is_400_with_reason(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/categorize", {"sql": "SELECT FROM WHERE"})
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "SqlError"
        assert payload["error"]["detail"]["reason"] == "sql"
        assert "position" in payload["error"]["message"]

    @pytest.mark.parametrize("route", ["/categorize", "/record"])
    def test_unconvertible_digit_is_400_sql_error(self, server, route):
        # '²' is a digit to str.isdigit() but not to int(): the lexer must
        # turn it into a SqlError, not let a ValueError become a 500.
        sql = "SELECT * FROM ListProperty WHERE price = ²"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, route, {"sql": sql})
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "SqlError"
        assert payload["error"]["detail"]["reason"] == "sql"

    def test_missing_sql_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/categorize", {})
        assert excinfo.value.code == 400

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/categorize"),
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "InvalidRequest"
        assert payload["error"]["detail"]["reason"] == "request"

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/nope", {"sql": SERVE_SQL})
        assert excinfo.value.code == 404

    def test_degradation_is_not_an_error(self, server):
        status, payload = _post(
            server, "/categorize", {"sql": SERVE_SQL, "budget": "showtuples"}
        )
        assert status == 200
        assert payload["rung"] == "showtuples"
        assert payload["degraded"] is not None

    def test_malformed_content_length_is_400(self, server):
        # urllib always computes Content-Length itself, so speak raw HTTP:
        # a header the client mangled must map to 400 InvalidRequest, not
        # escape the request parser as a ValueError and surface as a 500.
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(
                b"POST /categorize HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: banana\r\n"
                b"Connection: close\r\n"
                b"\r\n"
            )
            sock.settimeout(10)
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        status_line = response.split(b"\r\n", 1)[0]
        assert b"400" in status_line, response
        assert b"500" not in status_line


class TestJournalRefusal:
    """An acked /record is on disk; one the journal refuses is never acked."""

    def test_failed_journal_write_is_503_and_not_recorded(
        self, make_service, tmp_path, perf_on
    ):
        sqls = [
            f"SELECT * FROM ListProperty WHERE bedroomcount = {n}"
            for n in range(1, 7)
        ]
        journal = SpillJournal(tmp_path)
        handle = start_in_thread(make_service(batch_size=4, journal=journal))
        try:
            for sql in sqls[:5]:
                _post(handle, "/record", {"sql": sql})
            # Room for the next record's header and 5 payload bytes: the
            # disk fills partway through the record.
            with file_size_limit(journal.size_bytes + 8 + 5):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post(handle, "/record", {"sql": LOG_SQL})
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "1"
            error = json.loads(excinfo.value.read())["error"]
            assert error["code"] == "IngestionStalled"
            assert error["detail"] == {"reason": "journal"}
            health = json.loads(_get(handle, "/healthz")[1])
            assert health["recorded"] == 5 and conserved(health)
            assert perf_on.counters["journal.append_failures"] == 1

            status, payload = _post(handle, "/record", {"sql": sqls[5]})
            assert status == 200 and payload["recorded"] == 6
            live_seq = journal.last_seq
        finally:
            handle.stop()
            journal.close()

        with SpillJournal(tmp_path) as reopened:
            assert reopened.last_seq == live_seq == 6
            assert reopened.truncated_records == 0
            assert list(reopened.replay()) == [
                (seq, WorkloadQuery.from_sql(sql).to_sql())
                for seq, sql in enumerate(sqls, start=1)
            ]


class TestRouteLabels:
    def test_known_routes_pass_through(self):
        assert route_label("/categorize") == "/categorize"
        assert route_label("/healthz?verbose=1") == "/healthz"

    def test_unknown_paths_collapse_to_other(self):
        # Bounded label cardinality: probes cannot mint new series.
        assert route_label("/nope") == "other"
        assert route_label("/../../etc/passwd") == "other"

    def test_requests_counted_by_route_method_status(self, server, perf_on):
        _get(server, "/healthz")
        _post(server, "/categorize", {"sql": SERVE_SQL})
        with pytest.raises(urllib.error.HTTPError):
            _get(server, "/nope")
        counters = perf_on.counters
        assert "http.requests" not in counters  # only the labeled series
        assert counters[
            "http.requests_by_route{method=GET,route=/healthz,status=200}"
        ] == 1
        assert counters[
            "http.requests_by_route{method=POST,route=/categorize,status=200}"
        ] == 1
        assert counters[
            "http.requests_by_route{method=GET,route=other,status=404}"
        ] == 1

    def test_labeled_series_exported_to_prometheus(self, server, perf_on):
        _get(server, "/healthz")
        _, body = _get(server, "/metrics")
        assert "repro_http_requests_by_route_total" in body
        assert 'route="/healthz"' in body


class TestClientDisconnects:
    def test_get_disconnect_is_swallowed_and_counted(
        self, server, perf_on, monkeypatch
    ):
        # A scraper that hangs up mid-/healthz must be counted, not raise
        # out of the connection task.
        async def broken_write(self, writer, *args, **kwargs):
            raise BrokenPipeError("scraper went away")

        monkeypatch.setattr(AsyncFrontEnd, "_write_response", broken_write)
        with pytest.raises((urllib.error.URLError, ConnectionResetError)):
            _get(server, "/healthz")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if perf_on.counters.get("http.client_disconnects", 0) >= 1:
                break
            time.sleep(0.01)
        assert perf_on.counters.get("http.client_disconnects", 0) >= 1
        assert perf_on.counters.get("http.internal_errors", 0) == 0

    def test_disconnect_during_reply_is_counted_not_raised(
        self, server, perf_on, monkeypatch
    ):
        # Simulate the client vanishing exactly when the reply is written:
        # the connection task must swallow the broken pipe and count it
        # instead of attempting a 500 on the same dead socket.
        async def broken_write(self, writer, *args, **kwargs):
            raise BrokenPipeError("client went away")

        monkeypatch.setattr(AsyncFrontEnd, "_write_response", broken_write)
        # The client sees the dropped connection (RemoteDisconnected is a
        # ConnectionResetError subclass; urllib sometimes wraps it).
        with pytest.raises((urllib.error.URLError, ConnectionResetError)):
            _post(server, "/categorize", {"sql": SERVE_SQL})
        # The connection task runs on the loop thread; poll for the count.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if perf_on.counters.get("http.client_disconnects", 0) >= 1:
                break
            time.sleep(0.01)
        assert perf_on.counters.get("http.client_disconnects", 0) >= 1
        assert perf_on.counters.get("http.internal_errors", 0) == 0

    def test_disconnect_on_error_path_is_swallowed(
        self, server, perf_on, monkeypatch
    ):
        # Error replies (400/503/500) are written the same way: a write
        # failure there must not raise out of the connection task.
        async def broken_write(self, writer, *args, **kwargs):
            raise ConnectionResetError("client went away")

        monkeypatch.setattr(AsyncFrontEnd, "_write_response", broken_write)
        with pytest.raises((urllib.error.URLError, ConnectionResetError)):
            _post(server, "/categorize", {"sql": "SELECT FROM WHERE"})
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if perf_on.counters.get("http.client_disconnects", 0) >= 1:
                break
            time.sleep(0.01)
        assert perf_on.counters.get("http.client_disconnects", 0) >= 1
        # The 400 was still classified as an invalid request first.
        assert any(
            key.startswith("http.invalid_requests")
            for key in perf_on.counters
        )
