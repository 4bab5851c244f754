"""Tests for the batch categorization API (service + HTTP front end)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serving.aserve import start_in_thread
from repro.serving.degrade import (
    RUNG_FULL,
    RUNG_SHOWTUPLES,
    RUNGS,
)
from repro.serving.errors import InvalidRequest

from tests.serving.conftest import LOG_SQL, SERVE_SQL

THIRD_SQL = "SELECT * FROM ListProperty WHERE bathcount >= 2"
BATCH = [SERVE_SQL, LOG_SQL, THIRD_SQL]


class TestCategorizeMany:
    def test_order_preserved(self, make_service):
        service = make_service()
        results = service.categorize_many(BATCH)
        assert len(results) == 3
        normalized = [service._parse(sql)[1] for sql in BATCH]
        assert [r.sql for r in results] == normalized

    def test_whole_batch_shares_one_epoch(self, make_service):
        service = make_service(batch_size=2)
        # Advance the epoch first so the pinned number is non-trivial.
        service.record_query(LOG_SQL)
        service.record_query(SERVE_SQL)
        results = service.categorize_many(BATCH)
        assert {r.epoch for r in results} == {1}

    def test_empty_batch_rejected(self, make_service):
        with pytest.raises(InvalidRequest, match="at least one"):
            make_service().categorize_many([])

    def test_bad_statement_fails_whole_batch_up_front(self, make_service, perf_on):
        service = make_service()
        with pytest.raises(InvalidRequest, match="batch statement 1"):
            service.categorize_many([SERVE_SQL, "SELECT FROM WHERE", LOG_SQL])
        # Validation happens before any serving work: nothing was cached
        # and no per-request spans ran.
        assert len(service.cache) == 0
        from repro import perf

        counters = dict(perf.get().counters)
        assert "serve.rung{rung=full}" not in counters

    def test_duplicate_statements_hit_cache_within_batch(self, make_service):
        service = make_service()
        first, second = service.categorize_many([SERVE_SQL, SERVE_SQL])
        assert not first.cached
        assert second.cached
        assert second.tree is first.tree

    def test_second_batch_served_from_cache(self, make_service):
        service = make_service()
        service.categorize_many(BATCH)
        again = service.categorize_many(BATCH)
        assert all(r.cached for r in again)

    def test_budget_caps_every_statement(self, make_service):
        results = make_service().categorize_many(BATCH, budget=RUNG_SHOWTUPLES)
        assert [r.rung for r in results] == [RUNG_SHOWTUPLES] * 3
        assert all(r.tree is None and len(r.rows) > 0 for r in results)

    def test_shared_deadline_never_raises(self, make_service):
        # A tiny budget for the WHOLE batch: later statements inherit an
        # exhausted deadline and degrade (bottoming at SHOWTUPLES) rather
        # than erroring.
        results = make_service().categorize_many(BATCH, deadline_ms=1.0)
        assert [r.rung in RUNGS for r in results] == [True] * 3
        assert results[-1].rung == RUNG_SHOWTUPLES

    def test_invalid_deadline_rejected(self, make_service):
        with pytest.raises(InvalidRequest):
            make_service().categorize_many(BATCH, deadline_ms=-1)

    def test_invalid_budget_rejected(self, make_service):
        with pytest.raises(InvalidRequest):
            make_service().categorize_many(BATCH, budget="platinum")

    def test_batch_counters(self, make_service, perf_on):
        from repro import perf

        make_service().categorize_many(BATCH)
        counters = dict(perf.get().counters)
        assert counters.get("serve.batch_requests") == 1
        assert counters.get("serve.requests") == 3

    def test_traces_are_per_statement(self, make_service):
        results = make_service().categorize_many(
            [SERVE_SQL, LOG_SQL], collect_trace=True
        )
        trace_ids = {r.trace_id for r in results}
        assert len(trace_ids) == 2
        for result in results:
            if result.tree is not None and result.tree.decision_trace is not None:
                assert result.tree.decision_trace.trace_id == result.trace_id


class TestCacheKeyBackendTag:
    def test_cache_keys_carry_backend_name(self, make_service):
        service = make_service()
        service.categorize(SERVE_SQL)
        (key,) = service.cache._entries.keys()
        namespace, epoch, technique, backend, sql = key.split(":", 4)
        assert namespace == service.namespace
        assert backend == service.table.backend_name == "columnar"
        assert technique == service.technique
        assert epoch == "0"

    def test_columnar_service_keys_differ(self, make_service, statistics):
        from repro.data.homes import generate_homes
        from repro.serving.relation import Relation
        from repro.serving.service import CategorizationService

        table = generate_homes(rows=500, seed=7, backend="rows")
        keys = []
        for service in (
            make_service(),
            CategorizationService(Relation(table, statistics.copy())),
        ):
            service.categorize(SERVE_SQL)
            keys.extend(service.cache._entries.keys())
        assert ":columnar:" in keys[0]
        assert ":rows:" in keys[1]


@pytest.fixture
def server(make_service):
    handle = start_in_thread(make_service(batch_size=2))
    yield handle
    handle.stop()


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestHttpBatchEndpoint:
    def test_roundtrip(self, server):
        status, payload = _post(server, "/categorize_batch", {"sqls": BATCH})
        assert status == 200
        assert payload["count"] == 3
        assert len(payload["results"]) == 3
        assert payload["epoch"] == payload["results"][0]["epoch"]
        for body in payload["results"]:
            assert body["rung"] in RUNGS
            assert body["row_count"] > 0

    def test_render_flag_applies_to_all(self, server):
        _, payload = _post(
            server, "/categorize_batch", {"sqls": [SERVE_SQL], "render": True}
        )
        (body,) = payload["results"]
        if body["rung"] == RUNG_FULL:
            assert "rendering" in body

    def test_missing_sqls_is_400(self, server):
        for bad in ({}, {"sqls": []}, {"sqls": ["", SERVE_SQL]}, {"sqls": "x"}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, "/categorize_batch", bad)
            assert excinfo.value.code == 400

    def test_bad_statement_is_400_naming_position(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                server,
                "/categorize_batch",
                {"sqls": [SERVE_SQL, "SELECT FROM WHERE"]},
            )
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "SqlError"
        assert "batch statement 1" in body["error"]["message"]
