"""Audit-tool tests: event loading, trace joins, report math, diffs.

Synthetic events pin the join/report logic exactly; one test runs a real
service through a real pipeline so the digest shapes stay honest against
the emitters.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.telemetry import RotatingJsonlSink, TelemetryPipeline, decision_digest
from repro.telemetry.audit import (
    audit_files,
    build_report,
    diff_reports,
    format_diff,
    format_report,
    group_traces,
    load_events,
    percentile,
)

from tests.telemetry.conftest import SERVE_SQL


def fe(trace_id, **overrides):
    event = {
        "type": "frontend",
        "trace_id": trace_id,
        "frontend": "async",
        "route": "/categorize",
        "status": 200,
        "outcome": "ok",
        "queue_ms": 1.0,
        "compute_ms": 5.0,
        "respond_ms": 0.5,
        "pressure": 0.1,
        "tightened": False,
        "coalesced": False,
    }
    event.update(overrides)
    return event


def svc(trace_id, **overrides):
    event = {
        "type": "service",
        "trace_id": trace_id,
        "table": "ListProperty",
        "technique": "greedy",
        "rung": "full",
        "cached": False,
        "chosen": ["price", "bedroomcount"],
    }
    event.update(overrides)
    return event


def dec(trace_id, **overrides):
    event = {
        "type": "decision",
        "trace_id": trace_id,
        "eliminated": [{"attribute": "schooldistrict", "usage_fraction": 0.01}],
        "levels": [
            {
                "level": 0,
                "chosen": "price",
                "cost_all": 100.0,
                "cost_one": 40.0,
                "runner_up": "city",
                "delta_cost_all": 2.0,
                "delta_cost_one": 1.0,
            }
        ],
    }
    event.update(overrides)
    return event


def retired(trace_id, **overrides):
    """An event of a type this version no longer writes (older sinks)."""
    event = {
        "type": "retired",
        "trace_id": trace_id,
        "table": "ListProperty",
        "op": "select",
        "elapsed_ms": 1.5,
    }
    event.update(overrides)
    return event


class TestLoadEvents:
    def test_skips_meta_and_counts_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"type": "meta", "schema": "repro.telemetry.v1"}),
                    json.dumps(fe("req-000001")),
                    '{"type": "service", "trace_id": "req-0000',  # torn tail
                    "",
                    json.dumps(svc("req-000001")),
                ]
            ),
            encoding="utf-8",
        )
        events, skipped = load_events([path])
        assert [e["type"] for e in events] == ["frontend", "service"]
        assert skipped == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_events([tmp_path / "nope.jsonl"])


class TestJoins:
    def test_batch_statements_join_to_their_root(self):
        events = [
            fe("req-000001", route="/categorize_batch"),
            svc("req-000001#0"),
            svc("req-000001#1"),
            dec("req-000001#1"),
        ]
        groups = group_traces(events)
        assert set(groups) == {"req-000001"}
        group = groups["req-000001"]
        assert len(group.service) == 2
        assert len(group.decisions) == 1
        assert not group.partial

    def test_ok_frontend_without_service_event_is_partial(self):
        groups = group_traces([fe("req-000001")])
        assert groups["req-000001"].partial

    def test_shed_and_coalesced_frontends_expect_no_service_event(self):
        events = [
            fe("req-000001", status=503, outcome="shed"),
            fe("req-000002", coalesced=True, leader_trace_id="req-000003"),
        ]
        groups = group_traces(events)
        assert not groups["req-000001"].partial
        assert not groups["req-000002"].partial

    def test_decisions_without_service_event_are_orphaned(self):
        groups = group_traces([dec("req-000001"), retired("req-000001")])
        group = groups["req-000001"]
        assert group.orphaned_events() == 1
        assert group.partial

    def test_unknown_event_types_land_in_other(self):
        groups = group_traces(
            [fe("req-000001"), svc("req-000001"), retired("req-000001")]
        )
        group = groups["req-000001"]
        assert group.other == [retired("req-000001")]
        assert group.orphaned_events() == 0
        assert not group.partial

    def test_events_without_trace_id_are_ignored(self):
        assert group_traces([{"type": "frontend"}, {"type": "service", "trace_id": ""}]) == {}


class TestBuildReport:
    def report(self):
        events = [
            fe("req-000001", queue_ms=1.0, compute_ms=10.0),
            svc("req-000001"),
            dec("req-000001"),
            retired("req-000001"),
            fe("req-000002", queue_ms=3.0, compute_ms=20.0),
            svc("req-000002", cached=True, rung="single_level"),
            fe("req-000003", status=503, outcome="shed"),
            fe("req-000004", coalesced=True, leader_trace_id="req-000002"),
            fe("req-000005", tightened=True, deadline_ms=40.0),
            # req-000005 lost its service event: partial.
        ]
        return build_report(events, skipped_lines=2, files=["events.jsonl"])

    def test_reconstruction_counters(self):
        report = self.report()
        assert report["requests"] == 5
        assert report["partial"] == 1
        assert report["partial_trace_ids"] == ["req-000005"]
        assert report["complete"] == 4
        assert report["orphaned_events"] == 0
        assert report["skipped_lines"] == 2
        assert report["shed"] == 1
        assert report["coalesced"] == 1
        assert report["tightened"] == 1
        assert report["statuses"]["503"] == 1

    def test_waterfall_and_distributions(self):
        report = self.report()
        queue = report["waterfall_ms"]["queue"]
        assert queue["n"] == 5
        assert queue["max"] == 3.0
        assert report["rungs"] == {"full": 1, "single_level": 1}
        assert report["routes"]["/categorize"] == 5

    def test_cache_ratio_by_table_and_technique(self):
        report = self.report()
        slot = report["cache"]["ListProperty/greedy"]
        assert slot == {"hits": 1, "misses": 1, "ratio": 0.5}

    def test_quality_digest(self):
        report = self.report()
        quality = report["quality"]
        assert quality["decision_events"] == 1
        assert quality["levels"] == 1
        # delta 2.0 on cost 100.0 is a 2% margin: contested.
        assert quality["contested_levels"] == 1
        assert quality["chosen_attributes"]["price"] == 2
        assert quality["eliminations"] == {"schooldistrict": 1}
        assert quality["delta_cost_all"]["mean"] == 2.0

    def test_sink_with_retired_event_types_still_audits(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [fe("req-000001"), svc("req-000001"), retired("req-000001")]
        path.write_text(
            "\n".join(json.dumps(event) for event in events), encoding="utf-8"
        )
        for table in (None, "ListProperty"):
            report = audit_files([path], table=table)
            assert report["events"] == 3
            assert (report["requests"], report["partial"]) == (1, 0)
            assert report["orphaned_events"] == 0
        assert "Reconstruction" in format_report(report)

    def test_percentile_is_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([3.0, 1.0, 2.0], 0.99) == 3.0


class TestDiffAndRendering:
    def test_diff_compares_fractions_not_absolutes(self):
        current = build_report(
            [fe("req-000001"), svc("req-000001"), fe("req-000002"), svc("req-000002")]
        )
        baseline = build_report(
            [fe("req-000009"), svc("req-000009", rung="single_level", chosen=["city"])]
        )
        diff = diff_reports(current, baseline)
        assert diff["requests"] == {"current": 2, "baseline": 1}
        assert diff["rung_mix"]["full"] == {"current": 1.0, "baseline": 0.0}
        assert diff["chosen_attributes"]["city"]["baseline"] == 1.0
        assert diff["chosen_attributes"]["price"]["current"] == 0.5

    def test_text_renderers_cover_every_section(self):
        report = TestBuildReport().report()
        text = format_report(report)
        for title in (
            "Reconstruction",
            "Latency waterfall",
            "Distributions",
            "Cache hit ratio",
            "Tree quality digest",
            "Chosen attributes",
            "Eliminations",
        ):
            assert title in text
        assert "partial traces: req-000005" in text
        diff = diff_reports(report, report)
        assert "Audit diff" in format_diff(diff)


class TestAgainstRealEmitters:
    def test_decision_digest_shape_from_a_real_trace(self, make_service):
        service = make_service()
        result = service.categorize(SERVE_SQL, collect_trace=True)
        digest = decision_digest(result.tree.decision_trace)
        assert digest["technique"] == service.technique
        assert digest["levels"]
        for level in digest["levels"]:
            assert level["chosen"] is not None
            assert level["runner_up"] != level["chosen"]
            if level["delta_cost_all"] is not None:
                assert isinstance(level["delta_cost_all"], float)

    def test_service_pipeline_sink_audit_round_trip(self, tmp_path, make_service):
        service = make_service()
        sink = RotatingJsonlSink(tmp_path / "events.jsonl")
        pipeline = TelemetryPipeline(sink)
        with telemetry.installed(pipeline):
            first = service.categorize(SERVE_SQL)
            second = service.categorize(SERVE_SQL)
        assert pipeline.close()

        assert second.cached and not first.cached
        report = audit_files(sink.segments())
        # No front end ran, so service events stand alone: two requests,
        # nothing partial, and exactly one decision event (fresh tree only
        # — replaying the cached tree would re-ship another request's trace).
        assert report["requests"] == 2
        assert report["partial"] == 0
        assert report["orphaned_events"] == 0
        assert report["quality"]["service_events"] == 2
        assert report["quality"]["decision_events"] == 1
        slot = report["cache"][f"{service.table.schema.name}/{service.technique}"]
        assert slot == {"hits": 1, "misses": 1, "ratio": 0.5}
        assert report["quality"]["chosen_attributes"]
