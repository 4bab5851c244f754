"""Tests for the closed-loop load generator."""

from __future__ import annotations

import pytest

from repro.serving.aserve import start_in_thread
from repro.serving.loadgen import LoadReport, percentile, run_loadgen

from tests.serving.conftest import SERVE_SQL


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_single_sample(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100, unsorted input allowed
        assert percentile(list(reversed(samples)), 0.0) == 1
        assert percentile(samples, 0.5) == 51  # round(0.5 * 99) = 50 → samples[50]
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100


class TestValidation:
    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_loadgen("http://127.0.0.1:1", sqls=[])

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_loadgen("http://127.0.0.1:1", clients=0)
        with pytest.raises(ValueError, match=">= 1"):
            run_loadgen("http://127.0.0.1:1", requests_per_client=0)


class TestAgainstAsyncServer:
    def test_all_requests_answered(self, make_service):
        handle = start_in_thread(make_service(), max_inflight=4)
        try:
            report = run_loadgen(
                handle.url, clients=4, requests_per_client=3, timeout_s=60.0
            )
        finally:
            handle.stop()
        assert report.requests == 12
        assert report.responses == 12
        assert report.errors == 0
        assert report.status_counts == {200: 12}
        assert report.rung_counts.get("full", 0) == 12
        assert report.throughput_rps > 0
        assert report.p99_ms >= report.p50_ms > 0

    def test_duplicate_heavy_mix_coalesces(self, make_service):
        # One distinct query across many concurrent clients with the cache
        # off: the only way duplicates avoid recomputing is the
        # singleflight table, which the report surfaces as `coalesced`.
        handle = start_in_thread(make_service(cache_capacity=0), max_inflight=4)
        try:
            report = run_loadgen(
                handle.url,
                sqls=[SERVE_SQL],
                clients=8,
                requests_per_client=2,
                timeout_s=60.0,
            )
        finally:
            handle.stop()
        assert report.errors == 0
        assert report.responses == 16
        assert report.coalesced > 0

    def test_report_as_dict_round_trips(self, make_service):
        handle = start_in_thread(make_service())
        try:
            report = run_loadgen(handle.url, clients=2, requests_per_client=2)
        finally:
            handle.stop()
        payload = report.as_dict()
        assert payload["requests"] == 4
        assert payload["shed"] == report.shed == 0
        assert set(payload["status_counts"]) == {"200"}


class TestLoadReportShape:
    def test_shed_counts_503s(self):
        report = LoadReport(
            clients=1, requests=4, responses=4, errors=0, elapsed_s=1.0,
            throughput_rps=4.0, p50_ms=1.0, p99_ms=2.0, mean_ms=1.5,
            status_counts={200: 3, 503: 1},
        )
        assert report.shed == 1
        assert report.as_dict()["status_counts"] == {"200": 3, "503": 1}
