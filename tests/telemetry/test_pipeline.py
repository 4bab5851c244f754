"""Pipeline and sink tests: rotation, backpressure, sampling, lifecycle.

The pressure tests are the contract behind "telemetry never blocks a
request": a sink wedged mid-write must leave ``emit`` fast and lossy
(drops counted), and a wedged shutdown must time out rather than hang.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import telemetry
from repro.telemetry import (
    SCHEMA,
    RotatingJsonlSink,
    TelemetryPipeline,
    trace_root,
)
from repro.telemetry.audit import load_events


class GateSink:
    """A sink whose writes block until the test opens the gate."""

    def __init__(self):
        self.gate = threading.Event()
        self.events = []
        self.closed = False

    def write(self, events):
        assert self.gate.wait(timeout=10.0), "test forgot to open the gate"
        self.events.extend(events)

    def close(self):
        self.closed = True


class ListSink:
    def __init__(self):
        self.events = []
        self.closed = False

    def write(self, events):
        self.events.extend(events)

    def close(self):
        self.closed = True


class BrokenSink:
    def write(self, events):
        raise OSError("disk on fire")

    def close(self):
        pass


def read_lines(path):
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line
    ]


class TestRotatingJsonlSink:
    def test_every_segment_opens_with_a_schema_meta_line(self, tmp_path):
        sink = RotatingJsonlSink(tmp_path / "events.jsonl")
        sink.write([{"type": "frontend", "trace_id": "req-000001"}])
        sink.close()
        lines = read_lines(tmp_path / "events.jsonl")
        assert lines[0]["type"] == "meta"
        assert lines[0]["schema"] == SCHEMA
        assert lines[0]["segment"] == 0
        assert lines[1]["trace_id"] == "req-000001"

    def test_rotates_at_max_bytes_and_loses_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = RotatingJsonlSink(path, max_bytes=1024)
        padding = "x" * 120
        for i in range(40):
            sink.write([{"type": "service", "trace_id": f"req-{i:06d}", "pad": padding}])
        sink.close()

        assert len(sink.rotated) >= 2
        # Rotated names ascend and the bare path is the newest segment.
        assert sink.rotated[0] == path.with_name("events.jsonl.1")
        assert sink.segments()[-1] == path
        for segment in sink.segments():
            assert segment.exists()
            assert read_lines(segment)[0]["schema"] == SCHEMA
        # The audit loader recovers every event across all segments.
        events, skipped = load_events(sink.segments())
        assert skipped == 0
        assert sorted(e["trace_id"] for e in events) == sorted(
            f"req-{i:06d}" for i in range(40)
        )

    def test_rotations_are_counted(self, tmp_path, perf_on):
        sink = RotatingJsonlSink(tmp_path / "events.jsonl", max_bytes=1024)
        for i in range(40):
            sink.write([{"type": "service", "trace_id": f"req-{i:06d}", "pad": "x" * 120}])
        sink.close()
        assert perf_on.counters.get("telemetry.rotations") == len(sink.rotated)

    def test_fsync_always_policy_writes_through(self, tmp_path):
        sink = RotatingJsonlSink(tmp_path / "events.jsonl", fsync_policy="always")
        sink.write([{"type": "frontend", "trace_id": "req-000001"}])
        # Durable before close: another reader sees the line already.
        assert len(read_lines(tmp_path / "events.jsonl")) == 2
        sink.close()
        sink.close()  # idempotent

    def test_non_json_values_stringify_instead_of_crashing(self, tmp_path):
        sink = RotatingJsonlSink(tmp_path / "events.jsonl")
        sink.write([{"type": "service", "trace_id": "req-000001", "path": tmp_path}])
        sink.close()
        assert read_lines(tmp_path / "events.jsonl")[1]["path"] == str(tmp_path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_bytes": 512},
            {"fsync_policy": "sometimes"},
        ],
    )
    def test_invalid_options_raise(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            RotatingJsonlSink(tmp_path / "events.jsonl", **kwargs)


class TestPipelineLifecycle:
    def test_emitted_events_reach_the_sink(self, tmp_path):
        sink = RotatingJsonlSink(tmp_path / "events.jsonl")
        pipeline = TelemetryPipeline(sink)
        for i in range(25):
            assert pipeline.emit("frontend", f"req-{i:06d}", status=200)
        assert pipeline.flush()
        assert pipeline.close()
        events, _ = load_events(sink.segments())
        assert len(events) == 25
        assert pipeline.stats() == {
            "emitted": 25,
            "dropped": 0,
            "written": 25,
            "write_errors": 0,
        }

    def test_close_flushes_the_queued_tail(self, tmp_path):
        sink = RotatingJsonlSink(tmp_path / "events.jsonl")
        pipeline = TelemetryPipeline(sink, queue_capacity=512)
        for i in range(100):
            pipeline.emit("service", f"req-{i:06d}", rung="full")
        # No flush: close() alone must drain whatever was accepted.
        assert pipeline.close()
        events, _ = load_events(sink.segments())
        assert len(events) == 100

    def test_emit_after_close_is_refused(self):
        pipeline = TelemetryPipeline(ListSink())
        assert pipeline.close()
        assert not pipeline.emit("frontend", "req-000001")
        assert pipeline.close()  # idempotent

    def test_sink_write_errors_are_counted_not_raised(self):
        pipeline = TelemetryPipeline(BrokenSink())
        assert pipeline.emit("frontend", "req-000001")
        assert pipeline.flush()
        assert pipeline.close()
        assert pipeline.write_errors == 1
        assert pipeline.written == 0

    @pytest.mark.parametrize(
        "kwargs", [{"sample_rate": -0.1}, {"sample_rate": 1.5}, {"queue_capacity": 0}]
    )
    def test_invalid_options_raise(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryPipeline(ListSink(), **kwargs)


class TestBackpressure:
    def test_full_queue_drops_and_counts_instead_of_blocking(self, perf_on):
        sink = GateSink()
        pipeline = TelemetryPipeline(sink, queue_capacity=4)
        try:
            accepted = 0
            worst = 0.0
            for i in range(40):
                started = time.perf_counter()
                if pipeline.emit("frontend", f"req-{i:06d}"):
                    accepted += 1
                worst = max(worst, time.perf_counter() - started)
            # The writer holds at most one in-flight event on top of the
            # queue capacity; everything else must have been dropped.
            assert accepted <= 5
            assert pipeline.dropped == 40 - accepted
            assert perf_on.counters.get("telemetry.dropped") == pipeline.dropped
            # A sink wedged for seconds never shows up in emit latency.
            assert worst < 0.05
            sink.gate.set()
            assert pipeline.flush()
            assert len(sink.events) == accepted
        finally:
            sink.gate.set()
            assert pipeline.close()

    def test_wedged_sink_cannot_hold_shutdown_hostage(self):
        sink = GateSink()
        pipeline = TelemetryPipeline(sink, queue_capacity=4)
        pipeline.emit("frontend", "req-000001")
        pipeline.emit("frontend", "req-000002")
        started = time.perf_counter()
        drained = pipeline.close(timeout_s=0.5)
        elapsed = time.perf_counter() - started
        sink.gate.set()  # release the writer thread after the verdict
        assert not drained
        assert elapsed < 2.0


class TestSampling:
    def test_rate_extremes(self):
        always = TelemetryPipeline(ListSink(), sample_rate=1.0)
        never = TelemetryPipeline(ListSink(), sample_rate=0.0)
        try:
            assert always.sampled("req-000001")
            assert not never.sampled("req-000001")
            assert not always.sampled(None)  # unjoinable, even at rate 1.0
        finally:
            always.close()
            never.close()

    def test_decision_is_deterministic_and_batch_statements_share_fate(self):
        pipeline = TelemetryPipeline(ListSink(), sample_rate=0.3)
        try:
            ids = [f"req-{i:06d}" for i in range(2000)]
            first = [pipeline.sampled(i) for i in ids]
            assert first == [pipeline.sampled(i) for i in ids]
            assert all(
                pipeline.sampled(f"{i}#7") == pipeline.sampled(i) for i in ids
            )
            assert trace_root("req-000042#7") == "req-000042"
            assert trace_root("req-000042") == "req-000042"
            # crc32 is uniform enough that the hit fraction tracks the rate.
            fraction = sum(first) / len(first)
            assert 0.25 < fraction < 0.35
        finally:
            pipeline.close()


class TestModuleRuntime:
    def test_emit_without_installed_pipeline_is_a_cheap_no_op(self):
        assert telemetry.active() is None
        assert not telemetry.emit("frontend", "req-000001", status=200)

    def test_installed_scopes_install_and_always_uninstall(self):
        pipeline = TelemetryPipeline(ListSink())
        try:
            with telemetry.installed(pipeline) as active:
                assert active is pipeline
                assert telemetry.active() is pipeline
                assert telemetry.emit("frontend", "req-000001", status=200)
            assert telemetry.active() is None
            assert pipeline.flush()
            assert pipeline.sink.events[0]["status"] == 200
        finally:
            pipeline.close()

    def test_module_emit_respects_the_sampling_decision(self):
        pipeline = TelemetryPipeline(ListSink(), sample_rate=0.0)
        try:
            with telemetry.installed(pipeline):
                assert not telemetry.emit("frontend", "req-000001")
            assert pipeline.emitted == 0
        finally:
            pipeline.close()
