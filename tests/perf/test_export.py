"""Tests for the JSON-lines and Prometheus exporters."""

import json
import re

import pytest

from repro.perf import (
    Instrumentation,
    export_json,
    export_jsonl,
    export_prometheus,
    registry_snapshot,
)


@pytest.fixture()
def inst():
    registry = Instrumentation(enabled=True)
    registry.count("cache.hit", 3, kind="partition")
    registry.count("cache.hit", 1, kind="groupby")
    registry.count("queries")
    registry.gauge("result.size", 1754)
    with registry.span("categorize"):
        with registry.span("level"):
            pass
    return registry


class TestJsonLines:
    def test_every_line_parses_as_json(self, inst):
        lines = export_jsonl(inst).strip().split("\n")
        events = [json.loads(line) for line in lines]
        assert {e["type"] for e in events} == {
            "counter", "gauge", "histogram", "span"
        }

    def test_one_line_per_snapshot_entry(self, inst):
        events = [json.loads(line) for line in export_jsonl(inst).splitlines()]
        snapshot = registry_snapshot(inst)
        assert events == [
            {"type": section.removesuffix("s"), **entry}
            for section, entries in snapshot.items()
            for entry in entries
        ]
        assert export_jsonl(Instrumentation(enabled=True)) == ""

    def test_counters_round_trip_with_labels(self, inst):
        events = [
            json.loads(line) for line in export_jsonl(inst).strip().split("\n")
        ]
        counters = {
            (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
            for e in events
            if e["type"] == "counter"
        }
        assert counters[("cache.hit", (("kind", "partition"),))] == 3
        assert counters[("cache.hit", (("kind", "groupby"),))] == 1
        assert counters[("queries", ())] == 1

    def test_span_paths_are_slash_joined(self, inst):
        events = [
            json.loads(line) for line in export_jsonl(inst).strip().split("\n")
        ]
        paths = [e["path"] for e in events if e["type"] == "span"]
        assert paths == ["categorize", "categorize/level"]

    def test_export_does_not_mutate(self, inst):
        before = registry_snapshot(inst)
        export_jsonl(inst)
        export_jsonl(inst)
        assert registry_snapshot(inst) == before


# One Prometheus sample line: name{optional labels} float-or-int
_SAMPLE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" -?[0-9]+(\.[0-9]+(e[+-]?[0-9]+)?)?$"
)


class TestPrometheus:
    def test_every_line_is_type_decl_or_sample(self, inst):
        for line in export_prometheus(inst).strip().split("\n"):
            if line.startswith("# TYPE "):
                parts = line.split()
                assert len(parts) == 4
                assert parts[3] in ("counter", "gauge", "summary")
            else:
                assert _SAMPLE.match(line), line

    def test_counter_series_share_one_type_line(self, inst):
        text = export_prometheus(inst)
        assert text.count("# TYPE repro_cache_hit_total counter") == 1
        assert 'repro_cache_hit_total{kind="partition"} 3' in text
        assert 'repro_cache_hit_total{kind="groupby"} 1' in text

    def test_names_are_sanitized_and_prefixed(self, inst):
        text = export_prometheus(inst)
        assert "repro_queries_total 1" in text
        assert "repro_result_size" in text
        assert "cache.hit" not in text  # dots never reach the wire

    def test_durations_export_as_summaries(self, inst):
        text = export_prometheus(inst)
        assert "# TYPE repro_duration_seconds summary" in text
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'quantile="{quantile}"' in text
        assert 'repro_duration_seconds_count{name="categorize"} 1' in text

    def test_span_paths_exported_with_path_label(self, inst):
        text = export_prometheus(inst)
        assert 'repro_span_calls_total{path="categorize/level"} 1' in text

    def test_label_values_are_escaped(self):
        registry = Instrumentation(enabled=True)
        registry.count("odd", label='va"lue')
        text = export_prometheus(registry)
        assert 'label="va\\"lue"' in text


class TestLabelEscaping:
    """Regression: every escape the exposition format requires, round-tripped.

    A SQL fragment in a label once shipped a raw newline, splitting the
    sample across two lines and corrupting the whole scrape.
    """

    def test_backslash_quote_and_newline_all_escape(self):
        registry = Instrumentation(enabled=True)
        registry.count("odd", label='back\\slash "quoted"\nnewline')
        text = export_prometheus(registry)
        assert 'label="back\\\\slash \\"quoted\\"\\nnewline"' in text
        # The sample stays on one physical line.
        sample_lines = [l for l in text.splitlines() if l.startswith("repro_odd")]
        assert len(sample_lines) == 1

    def test_sql_like_label_value_survives(self):
        registry = Instrumentation(enabled=True)
        sql = 'SELECT * FROM "ListProperty"\nWHERE city = \'a\\b\''
        registry.count("serve.sql", sql=sql)
        text = export_prometheus(registry)
        line = next(l for l in text.splitlines() if l.startswith("repro_serve_sql"))
        assert "\n" not in line
        assert '\\"ListProperty\\"' in line


class TestDerivedCacheHitRatio:
    def test_gauge_appears_at_scrape_time_from_counters(self):
        registry = Instrumentation(enabled=True)
        registry.count("service.cache_hits", 3)
        registry.count("service.cache_misses", 1)
        text = export_prometheus(registry)
        assert "# TYPE repro_serve_cache_hit_ratio gauge" in text
        assert "repro_serve_cache_hit_ratio 0.75" in text

    def test_absent_without_any_cache_traffic(self, inst):
        assert "cache_hit_ratio" not in export_prometheus(inst)

    def test_label_split_series_still_sum(self):
        registry = Instrumentation(enabled=True)
        registry.count("service.cache_hits", 1, table="a")
        registry.count("service.cache_hits", 1, table="b")
        registry.count("service.cache_misses", 2)
        assert "repro_serve_cache_hit_ratio 0.5" in export_prometheus(registry)


class TestJsonDocument:
    def test_snapshot_mirrors_the_jsonl_stream(self, inst):
        snapshot = registry_snapshot(inst)
        assert set(snapshot) == {"counters", "gauges", "histograms", "spans"}
        assert {c["name"] for c in snapshot["counters"]} == {"cache.hit", "queries"}
        assert snapshot["gauges"] == [
            {"name": "result.size", "labels": {}, "value": 1754}
        ]
        assert [s["path"] for s in snapshot["spans"]] == [
            "categorize", "categorize/level"
        ]
        assert [h["name"] for h in snapshot["histograms"]] == ["categorize", "level"]
        assert snapshot["histograms"][0]["count"] == 1

        document = json.loads(export_json(inst))
        assert document == json.loads(json.dumps(snapshot))

    def test_export_json_does_not_mutate(self, inst):
        before = registry_snapshot(inst)
        export_json(inst)
        assert registry_snapshot(inst) == before
