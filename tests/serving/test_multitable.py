"""Table-scoped routing on the HTTP front end.

One server, two relations: every route must honor the ``table`` body
field / ``?table=`` query parameter, answer unknown tables with the 404
``UnknownTable`` envelope, stamp defaulted (table-less) requests with a
``Deprecation`` header, and keep /healthz and /metrics per-table.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import perf
from repro.catalog import Catalog, DatasetDescriptor
from repro.serving.aserve import start_in_thread
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService

HOMES_SQL = "SELECT * FROM ListProperty WHERE price <= 300000"
MOVIES_SQL = "SELECT * FROM Movies WHERE year >= 2000"


def two_table_catalog(homes_table, statistics) -> Catalog:
    movies_table, movies_statistics = DatasetDescriptor(
        name="Movies", generator="movies", rows=300, workload_queries=100
    ).build()
    return Catalog.of(
        CategorizationService(
            Relation(homes_table, statistics.copy()), batch_size=4
        ),
        CategorizationService(
            Relation(movies_table, movies_statistics), batch_size=4
        ),
    )


@pytest.fixture
def server(homes_table, statistics):
    handle = start_in_thread(two_table_catalog(homes_table, statistics))
    yield handle
    handle.stop()


def _url(server, path: str) -> str:
    return server.url + path


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, dict(response.headers), json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.read().decode("utf-8")


class TestTableRouting:
    def test_body_field_routes_to_named_relation(self, server):
        _, headers, body = _post(
            server, "/categorize", {"sql": MOVIES_SQL, "table": "Movies"}
        )
        assert body["table"] == "Movies"
        assert body["row_count"] > 0
        assert "Deprecation" not in headers

    def test_query_param_routes_too(self, server):
        _, headers, body = _post(
            server, "/categorize?table=Movies", {"sql": MOVIES_SQL}
        )
        assert body["table"] == "Movies"
        assert "Deprecation" not in headers

    def test_body_field_wins_over_query_param(self, server):
        _, _, body = _post(
            server,
            "/categorize?table=ListProperty",
            {"sql": MOVIES_SQL, "table": "Movies"},
        )
        assert body["table"] == "Movies"

    def test_tableless_request_defaults_with_deprecation_header(self, server):
        _, headers, body = _post(server, "/categorize", {"sql": HOMES_SQL})
        assert body["table"] == "ListProperty"
        assert headers.get("Deprecation") == "true"

    def test_unknown_table_is_404_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/categorize", {"sql": HOMES_SQL, "table": "Nope"})
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "UnknownTable"
        assert body["error"]["detail"]["available"] == ["ListProperty", "Movies"]

    def test_non_string_table_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/categorize", {"sql": HOMES_SQL, "table": 7})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "InvalidRequest"

    def test_batch_and_record_take_the_table_dimension(self, server):
        _, _, batch = _post(
            server,
            "/categorize_batch",
            {"sqls": [MOVIES_SQL], "table": "Movies"},
        )
        assert batch["table"] == "Movies"
        assert batch["count"] == 1
        _, _, ack = _post(
            server, "/record", {"sql": MOVIES_SQL, "table": "Movies"}
        )
        assert ack["status"] == "recorded"
        assert ack["table"] == "Movies"

    def test_record_moves_only_the_named_relation(self, server):
        before = json.loads(_get(server, "/healthz"))["tables"]
        for _ in range(4):
            _post(server, "/record", {"sql": MOVIES_SQL, "table": "Movies"})
        after = json.loads(_get(server, "/healthz"))["tables"]
        assert after["Movies"]["epoch"] == before["Movies"]["epoch"] + 1
        assert after["ListProperty"]["epoch"] == before["ListProperty"]["epoch"]


class TestObservability:
    def test_healthz_enumerates_tables(self, server):
        health = json.loads(_get(server, "/healthz"))
        assert health["default_table"] == "ListProperty"
        assert set(health["tables"]) == {"ListProperty", "Movies"}
        # Legacy single-table fields still sit at the top level, fed by
        # the default relation.
        assert health["table"] == "ListProperty"
        assert "durability" in health

    def test_healthz_table_param_narrows_top_level(self, server):
        health = json.loads(_get(server, "/healthz?table=Movies"))
        assert health["table"] == "Movies"
        assert set(health["tables"]) == {"ListProperty", "Movies"}

    def test_metrics_carry_per_table_gauges(self, server, perf_on):
        metrics = _get(server, "/metrics")
        for table in ("ListProperty", "Movies"):
            assert f'repro_serve_epoch{{table="{table}"}}' in metrics
            assert f'repro_serve_table_rows{{table="{table}"}}' in metrics


class TestAsyncFrontEnd:
    """The table dimension end to end through one body-field request, one
    defaulted request, and the catalog-wide health map."""

    def test_routes_and_deprecation_header(self, server):
        _, headers, body = _post(
            server, "/categorize", {"sql": MOVIES_SQL, "table": "Movies"}
        )
        assert body["table"] == "Movies"
        assert "Deprecation" not in headers
        _, headers, body = _post(server, "/categorize", {"sql": HOMES_SQL})
        assert body["table"] == "ListProperty"
        assert headers.get("Deprecation") == "true"

    def test_unknown_table_is_404_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/categorize", {"sql": HOMES_SQL, "table": "Nope"})
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "UnknownTable"
        assert body["error"]["detail"]["table"] == "Nope"

    def test_healthz_enumerates_tables(self, server):
        health = json.loads(_get(server, "/healthz"))
        assert set(health["tables"]) == {"ListProperty", "Movies"}
