"""End-to-end telemetry: live front end -> sink -> audit reconstruction.

The CI smoke's invariant, asserted in-process: at sample rate 1.0 the
audit must reconstruct every request the load generator saw, with zero
partial traces, zero orphaned events, and distribution totals equal to
the server's own ``/metrics`` counters.
"""

from __future__ import annotations

from repro import telemetry
from repro.serving.aserve import start_in_thread
from repro.serving.loadgen import run_loadgen
from repro.telemetry import RotatingJsonlSink, TelemetryPipeline
from repro.telemetry.audit import audit_files

from tests.telemetry.conftest import LOG_SQL, SERVE_SQL, counter_total


class TestAsyncFrontEndRoundTrip:
    def test_audit_reconstructs_every_request_and_matches_metrics(
        self, tmp_path, make_service, perf_on
    ):
        service = make_service()
        sink = RotatingJsonlSink(tmp_path / "events.jsonl")
        pipeline = TelemetryPipeline(sink, sample_rate=1.0)
        with telemetry.installed(pipeline):
            handle = start_in_thread(service, max_inflight=8)
            try:
                load = run_loadgen(
                    handle.url,
                    sqls=[SERVE_SQL, LOG_SQL],
                    clients=4,
                    requests_per_client=5,
                    timeout_s=30.0,
                )
            finally:
                handle.stop()
        assert pipeline.close()
        assert pipeline.dropped == 0

        report = audit_files(sink.segments())
        # Reconstruction: every request the generator saw is a trace root,
        # fully joined — nothing partial, nothing orphaned.
        assert load.errors == 0
        assert report["requests"] == load.responses == 20
        assert report["complete"] == report["requests"]
        assert report["partial"] == 0
        assert report["orphaned_events"] == 0
        assert report["skipped_lines"] == 0

        # Distribution totals equal the server's /metrics counters.
        assert report["shed"] == counter_total(perf_on, "aserve.shed")
        assert report["coalesced"] == counter_total(perf_on, "aserve.coalesced")
        assert report["shed"] == load.status_counts.get(503, 0)
        assert report["coalesced"] == load.coalesced
        hits = counter_total(perf_on, "service.cache_hits")
        misses = counter_total(perf_on, "service.cache_misses")
        served = sum(slot["hits"] + slot["misses"] for slot in report["cache"].values())
        assert served == hits + misses == sum(report["rungs"].values())
        # Coalesced followers never reach the service; everyone else does.
        ok = load.status_counts.get(200, 0)
        assert served == ok - report["coalesced"]

        # Every fresh (uncached) tree shipped its decision digest.
        assert report["quality"]["decision_events"] == misses
        assert report["quality"]["chosen_attributes"]

    def test_sampling_rate_zero_ships_nothing(self, tmp_path, make_service):
        service = make_service()
        sink = RotatingJsonlSink(tmp_path / "events.jsonl")
        pipeline = TelemetryPipeline(sink, sample_rate=0.0)
        with telemetry.installed(pipeline):
            handle = start_in_thread(service, max_inflight=8)
            try:
                load = run_loadgen(
                    handle.url,
                    sqls=[SERVE_SQL],
                    clients=2,
                    requests_per_client=3,
                    timeout_s=30.0,
                )
            finally:
                handle.stop()
        assert pipeline.close()
        assert load.errors == 0
        assert pipeline.emitted == 0
        report = audit_files(sink.segments())
        assert report["requests"] == 0
