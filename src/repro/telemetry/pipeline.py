"""The request-telemetry pipeline: bounded queue, writer thread, JSONL sink.

Design constraints, in priority order:

1. **Never block a request thread.**  :meth:`TelemetryPipeline.emit`
   enqueues with ``put_nowait`` and returns; when the bounded queue is
   full the event is *dropped and counted* (``telemetry.dropped``), never
   waited on.  A wedged disk slows the writer thread, not the service.
2. **Near-zero cost when uninstalled.**  Every hook in the serving stack
   goes through the module-level helpers below, whose disabled path is a
   single global load and ``None`` check — the same discipline as
   :mod:`repro.perf.instrument`.
3. **Whole traces or nothing.**  Sampling is a *deterministic* function
   of the trace id (:meth:`TelemetryPipeline.sampled`), so the front end
   and the service independently agree on whether a request is in the
   sample — a trace never comes out half-shipped because two layers
   flipped different coins.  Batch statements share their root id's
   fate (``req-000042#3`` samples as ``req-000042``).

The sink is a :class:`RotatingJsonlSink`: one JSON object per line,
rotated by size (``events.jsonl`` -> ``events.jsonl.1`` ascending, newest
always in the bare path), each segment opened with a ``meta`` line naming
the schema.  ``fsync_policy`` trades durability for throughput:
``"never"`` (page cache only), ``"rotate"`` (fsync on rotation and close
— the default), ``"always"`` (fsync every write; for tests and audits of
the pipeline itself, not production traffic).

``close()`` drains the queue tail before closing the sink, so a clean
shutdown (the CLI's ``finally`` block) loses nothing that was accepted.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro import perf

#: Schema tag written on the meta line of every sink segment.
SCHEMA = "repro.telemetry.v1"

FSYNC_POLICIES = ("never", "rotate", "always")

_STOP = object()


def trace_root(trace_id: str) -> str:
    """The sampling root of a trace id (batch statements share it)."""
    return trace_id.split("#", 1)[0]


class RotatingJsonlSink:
    """Size-rotated JSON-lines file sink.

    Not thread-safe by itself — the pipeline's single writer thread owns
    it.  Rotation renames the active file to ``<path>.<n>`` (n ascending,
    so ``<path>`` is always the newest segment) and reopens; every opened
    segment starts with a ``{"type": "meta", ...}`` line so a consumer
    can verify the schema before trusting the rest.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        max_bytes: int = 16 * 1024 * 1024,
        fsync_policy: str = "rotate",
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError(f"max_bytes must be >= 1024, got {max_bytes}")
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, got {fsync_policy!r}"
            )
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.fsync_policy = fsync_policy
        self._clock = clock
        self._segment = 0
        self.rotated: list[Path] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self._open_segment()

    def _open_segment(self):
        file = open(self.path, "w", encoding="utf-8")
        meta = {
            "ts": self._clock(),
            "type": "meta",
            "schema": SCHEMA,
            "segment": self._segment,
        }
        file.write(json.dumps(meta) + "\n")
        self._segment += 1
        return file

    def write(self, events: Sequence[dict[str, Any]]) -> None:
        for event in events:
            self._file.write(json.dumps(event, default=str) + "\n")
        if self.fsync_policy == "always":
            self._file.flush()
            os.fsync(self._file.fileno())
        if self._file.tell() >= self.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._file.flush()
        if self.fsync_policy in ("rotate", "always"):
            os.fsync(self._file.fileno())
        self._file.close()
        rotated = self.path.with_name(f"{self.path.name}.{len(self.rotated) + 1}")
        self.path.rename(rotated)
        self.rotated.append(rotated)
        perf.count("telemetry.rotations")
        self._file = self._open_segment()

    def close(self) -> None:
        if self._file.closed:
            return
        self._file.flush()
        if self.fsync_policy in ("rotate", "always"):
            with contextlib.suppress(OSError):
                os.fsync(self._file.fileno())
        self._file.close()

    def segments(self) -> list[Path]:
        """Every segment written so far, oldest first (active one last)."""
        return [*self.rotated, self.path]


class TelemetryPipeline:
    """Bounded, non-blocking event shipper over one sink.

    Args:
        sink: anything with ``write(events)`` / ``close()`` — normally a
            :class:`RotatingJsonlSink`.
        sample_rate: fraction of trace roots shipped, in [0, 1].
        queue_capacity: bounded buffer between request threads and the
            writer; overflow drops (counted), never blocks.
        collect_decisions: when True, the service forces decision-trace
            collection on sampled cache misses so every sampled request
            ships its tree's reasoning; False ships only the cheap
            events (frontend/service).
        clock: wall-clock source stamped on events (injectable in tests).
    """

    def __init__(
        self,
        sink: Any,
        sample_rate: float = 1.0,
        queue_capacity: int = 2048,
        collect_decisions: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.sink = sink
        self.sample_rate = sample_rate
        self.collect_decisions = collect_decisions
        self._clock = clock
        self._queue: queue.Queue = queue.Queue(maxsize=queue_capacity)
        self._closed = False
        self.emitted = 0
        self.dropped = 0
        self.written = 0
        self.write_errors = 0
        self._writer = threading.Thread(
            target=self._drain, daemon=True, name="telemetry-writer"
        )
        self._writer.start()

    # -- request-thread side (never blocks) ---------------------------------

    def sampled(self, trace_id: str | None) -> bool:
        """Deterministic per-trace sampling decision (see module docs)."""
        if not trace_id:
            return False  # an untraceable event can never be joined
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        digest = zlib.crc32(trace_root(trace_id).encode("utf-8")) & 0xFFFFFFFF
        return digest / 4294967296.0 < rate

    def emit(self, type_: str, trace_id: str | None, **fields: Any) -> bool:
        """Enqueue one event; False when dropped (queue full / closed)."""
        if self._closed:
            return False
        event = {"ts": self._clock(), "type": type_, "trace_id": trace_id}
        event.update(fields)
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1
            perf.count("telemetry.dropped")
            return False
        self.emitted += 1
        perf.count("telemetry.emitted")
        return True

    # -- writer side ---------------------------------------------------------

    def _drain(self) -> None:
        while True:
            event = self._queue.get()
            try:
                if event is _STOP:
                    return
                try:
                    self.sink.write([event])
                except Exception:
                    self.write_errors += 1
                    perf.count("telemetry.write_errors")
                else:
                    self.written += 1
            finally:
                self._queue.task_done()

    # -- lifecycle ------------------------------------------------------------

    def flush(self, timeout_s: float = 5.0) -> bool:
        """Wait (bounded) for everything accepted so far to reach the sink."""
        deadline = time.monotonic() + timeout_s
        while self._queue.unfinished_tasks and time.monotonic() < deadline:
            time.sleep(0.002)
        return self._queue.unfinished_tasks == 0

    def close(self, timeout_s: float = 5.0) -> bool:
        """Flush the tail, stop the writer, close the sink.

        Returns False when the writer could not drain in time (a wedged
        sink); the pipeline is closed regardless — it must never hold a
        shutdown hostage.
        """
        if self._closed:
            return True
        self._closed = True
        drained = True
        try:
            self._queue.put(_STOP, timeout=timeout_s)
        except queue.Full:
            drained = False
        self._writer.join(timeout_s)
        drained = drained and not self._writer.is_alive()
        with contextlib.suppress(Exception):
            self.sink.close()
        return drained

    def stats(self) -> dict[str, int]:
        return {
            "emitted": self.emitted,
            "dropped": self.dropped,
            "written": self.written,
            "write_errors": self.write_errors,
        }


# -- module-level runtime (the hooks' fast path) ----------------------------

_ACTIVE: TelemetryPipeline | None = None


def install(pipeline: TelemetryPipeline) -> TelemetryPipeline:
    """Make ``pipeline`` the process-wide event destination."""
    global _ACTIVE
    _ACTIVE = pipeline
    return pipeline


def uninstall() -> TelemetryPipeline | None:
    """Detach (but do not close) the active pipeline; returns it."""
    global _ACTIVE
    pipeline, _ACTIVE = _ACTIVE, None
    return pipeline


def active() -> TelemetryPipeline | None:
    """The installed pipeline, or None (the common, free case)."""
    return _ACTIVE


@contextlib.contextmanager
def installed(pipeline: TelemetryPipeline) -> Iterator[TelemetryPipeline]:
    """Scoped install/uninstall for tests."""
    install(pipeline)
    try:
        yield pipeline
    finally:
        uninstall()


def emit(type_: str, trace_id: str | None, **fields: Any) -> bool:
    """Emit one event iff a pipeline is installed and the trace sampled."""
    pipeline = _ACTIVE
    if pipeline is None or not pipeline.sampled(trace_id):
        return False
    return pipeline.emit(type_, trace_id, **fields)
