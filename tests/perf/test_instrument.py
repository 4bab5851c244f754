"""Tests for the instrumentation subsystem (counters, gauges, spans)."""

import json

import pytest

from repro import perf
from repro.perf import Instrumentation, export_json, registry_snapshot


@pytest.fixture()
def inst():
    return Instrumentation(enabled=True)


class TestCounters:
    def test_count_accumulates(self, inst):
        inst.count("a")
        inst.count("a", 2)
        inst.count("b")
        assert inst.counters["a"] == 3
        assert inst.counters["b"] == 1

    def test_disabled_counts_nothing(self):
        inst = Instrumentation(enabled=False)
        inst.count("a")
        assert not inst.counters

    def test_reset_clears(self, inst):
        inst.count("a")
        inst.reset()
        assert not inst.counters

    def test_labeled_counters_form_distinct_series(self, inst):
        inst.count("cache.hit", kind="partition")
        inst.count("cache.hit", kind="partition")
        inst.count("cache.hit", kind="groupby")
        inst.count("cache.hit")
        assert inst.counters["cache.hit{kind=partition}"] == 2
        assert inst.counters["cache.hit{kind=groupby}"] == 1
        assert inst.counters["cache.hit"] == 1

    def test_label_keys_are_sorted_into_one_series(self, inst):
        inst.count("c", b=2, a=1)
        inst.count("c", a=1, b=2)
        assert inst.counters == {"c{a=1,b=2}": 2}

    def test_series_key_round_trips(self):
        key = perf.series_key("cache.hit", {"kind": "partition", "aaa": "z"})
        assert key == "cache.hit{aaa=z,kind=partition}"
        name, labels = perf.split_series_key(key)
        assert name == "cache.hit"
        assert labels == {"aaa": "z", "kind": "partition"}
        assert perf.split_series_key("plain") == ("plain", {})


class TestGauges:
    def test_gauge_last_value_wins(self, inst):
        inst.gauge("result_size", 10)
        inst.gauge("result_size", 42)
        assert inst.gauges["result_size"] == 42

    def test_disabled_gauge_is_noop(self):
        inst = Instrumentation(enabled=False)
        inst.gauge("g", 1.0)
        assert not inst.gauges

    def test_labeled_gauges(self, inst):
        inst.gauge("depth", 3, technique="cost-based")
        assert inst.gauges["depth{technique=cost-based}"] == 3


class TestDurations:
    def test_each_span_exit_feeds_its_name_histogram(self, inst):
        with inst.span("outer"):
            with inst.span("phase"):
                pass
        with inst.span("phase"):
            pass
        # One histogram per name, whatever the span's place in the tree.
        assert inst.durations["outer"].count == 1
        assert inst.durations["phase"].count == 2

    def test_duration_summary_in_report(self, inst):
        for _ in range(4):
            with inst.span("phase"):
                pass
        (summary,) = registry_snapshot(inst)["histograms"]
        assert summary["name"] == "phase"
        assert summary["count"] == 4
        assert summary["p50"] <= summary["p95"] <= summary["p99"]


class TestSpans:
    def test_nesting_builds_a_tree(self, inst):
        with inst.span("outer"):
            with inst.span("inner"):
                pass
            with inst.span("inner"):
                pass
        outer = inst.spans.children["outer"]
        assert outer.calls == 1
        inner = outer.children["inner"]
        assert inner.calls == 2
        assert outer.seconds >= inner.seconds

    def test_same_name_same_parent_aggregates(self, inst):
        for _ in range(5):
            with inst.span("repeated"):
                pass
        assert len(inst.spans.children) == 1
        assert inst.spans.children["repeated"].calls == 5

    def test_sibling_then_child_distinct_nodes(self, inst):
        with inst.span("a"):
            with inst.span("b"):
                pass
        with inst.span("b"):
            pass
        assert inst.spans.children["a"].children["b"].calls == 1
        assert inst.spans.children["b"].calls == 1

    def test_disabled_span_records_nothing(self):
        inst = Instrumentation(enabled=False)
        with inst.span("x"):
            pass
        assert not inst.spans.children

    def test_span_survives_exceptions(self, inst):
        with pytest.raises(RuntimeError):
            with inst.span("boom"):
                raise RuntimeError("boom")
        assert inst.spans.children["boom"].calls == 1
        # the current-span context is restored
        with inst.span("after"):
            pass
        assert "after" in inst.spans.children

    def test_reset_detaches_an_open_span(self, inst):
        span = inst.span("outer")
        span.__enter__()
        inst.reset()
        span.__exit__(None, None, None)
        # the discarded span neither records nor re-parents what follows
        assert not inst.spans.children
        with inst.span("fresh"):
            pass
        assert list(inst.spans.children) == ["fresh"]
        assert inst._current.get() is None

    def test_reset_inside_open_span_keeps_later_spans_at_root(self, inst):
        with inst.span("outer"):
            inst.reset()
            with inst.span("inner"):
                pass
        # "inner" lands at the root of the fresh tree, not under a stale node
        assert list(inst.spans.children) == ["inner"]


class TestReporting:
    def test_report_is_json_serializable(self, inst):
        inst.count("hits", 2)
        with inst.span("outer"):
            with inst.span("inner"):
                pass
        data = json.loads(export_json(inst))
        assert data["counters"] == [{"name": "hits", "labels": {}, "value": 2}]
        assert [span["path"] for span in data["spans"]] == ["outer", "outer/inner"]
        assert [span["calls"] for span in data["spans"]] == [1, 1]

    def test_format_report_mentions_everything(self, inst):
        inst.count("hits")
        with inst.span("outer"):
            pass
        text = inst.format_report()
        assert "outer" in text
        assert "hits" in text

    def test_empty_report(self, inst):
        assert "nothing recorded" in inst.format_report()


class TestModuleLevelApi:
    def test_enable_disable_roundtrip(self):
        assert not perf.enabled()
        perf.enable()
        try:
            perf.count("module.level")
            perf.count("module.level", 2, kind="x")
            perf.gauge("module.gauge", 3.0, kind="x")
            assert perf.get().counters == {
                "module.level": 1, "module.level{kind=x}": 2
            }
            assert perf.get().gauges == {"module.gauge{kind=x}": 3.0}
            assert perf.enabled()
        finally:
            perf.disable()
            perf.reset()
        assert not perf.enabled()
        assert not perf.get().counters

    def test_disabled_module_calls_are_noops(self):
        perf.reset()
        perf.count("never")
        perf.gauge("never", 1.0)
        with perf.span("never"):
            pass
        assert registry_snapshot() == {
            "counters": [], "gauges": [], "histograms": [], "spans": []
        }
