"""Zero-dependency instrumentation: counters, gauges, spans.

The serving hot path (``categorize`` and everything under it) needs to be
*measurably* fast, which requires measurement that is cheap enough to leave
compiled in.  This module provides the primitives, all hanging off one
:class:`Instrumentation` registry:

* **counters** — named monotonically increasing integers (cache hits,
  partitionings computed/avoided, cost evaluations).  Counters accept
  **labels** (``count("cache.hit", kind="partition")``), canonicalized to
  a ``name{key=value,...}`` series key with sorted label keys.
* **gauges** — named last-value-wins floats (result-set sizes, tree
  depths), also labelable.
* **spans** — *nestable* wall-clock scopes forming a trace tree
  ("categorize" → "categorize.level" → "partition.categorical").  The
  current span is tracked in a :mod:`contextvars` context variable, so
  nesting is correct across generators and threads without any global
  stack.  Repeated spans with the same name under the same parent are
  aggregated (calls + total seconds) rather than appended, keeping the
  tree bounded regardless of input size.
* **duration histograms** — every span exit feeds a per-name
  :class:`~repro.perf.metrics.Histogram`, so each phase reports
  p50/p95/p99 latency, not just totals.

An enabled registry records every span it is asked for.  It makes no
sampling decision: the program's one sampler is telemetry's trace-root
hash (:meth:`repro.telemetry.TelemetryPipeline.sampled`), which decides
what a request ships, not what the registry measures.

Everything is **disabled by default**.  Disabled-mode overhead is one
module-global load, one attribute read and one branch per call site — the
perf benchmark (``benchmarks/test_perf_partition.py``) asserts it stays
within 5% of fully uninstrumented code, and bounds enabled-mode overhead
too.  Instrumented modules therefore never guard their calls; they just
call :func:`count` / :func:`span` unconditionally.

Typical use::

    from repro import perf

    perf.enable()
    categorizer.categorize(rows, query)
    print(perf.format_report())     # text trace + counter table
    print(perf.export_json())       # the same registry as one document
    perf.reset()

Exporters (JSON, JSON-lines, Prometheus text format) live in
:mod:`repro.perf.export`.
"""

from __future__ import annotations

import time
from collections import Counter
from contextvars import ContextVar
from typing import Any, Iterator

from repro.perf.metrics import Histogram


def series_key(name: str, labels: dict[str, Any]) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}``, keys sorted."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`series_key` (exporters need name and labels apart)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner[:-1].split(","):
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


class SpanNode:
    """One aggregated node of the trace tree.

    ``calls`` and ``seconds`` accumulate over every execution of the span
    at this position in the tree; ``children`` maps child span names to
    their aggregated nodes.
    """

    __slots__ = ("name", "calls", "seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.children: dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        """Return (creating if needed) the aggregated child span ``name``."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, calls={self.calls}, "
            f"seconds={self.seconds:.6f}, children={len(self.children)})"
        )


class _Span:
    """Context manager recording one execution of a named span."""

    __slots__ = (
        "_instrumentation", "_name", "_node", "_token", "_started", "_generation"
    )

    def __init__(self, instrumentation: "Instrumentation", name: str) -> None:
        self._instrumentation = instrumentation
        self._name = name

    def __enter__(self) -> SpanNode:
        inst = self._instrumentation
        parent = inst._current.get()
        if parent is None:
            parent = inst.spans
        self._node = parent.child(self._name)
        self._token = inst._current.set(self._node)
        self._generation = inst._generation
        self._started = time.perf_counter()
        return self._node

    def __exit__(self, *exc_info: object) -> bool:
        elapsed = time.perf_counter() - self._started
        inst = self._instrumentation
        if inst._generation != self._generation:
            # reset() ran while this span was open: its node belongs to a
            # discarded tree.  Restoring the token would re-parent every
            # later span onto that stale node, so detach instead.
            inst._current.set(None)
            return False
        self._node.calls += 1
        self._node.seconds += elapsed
        inst._current.reset(self._token)
        inst._observe_duration(self._name, elapsed)
        return False


class _NullScope:
    """Shared no-op context manager returned by every disabled call site."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class Instrumentation:
    """A registry of counters, gauges, trace spans and histograms.

    One module-level instance (:data:`ACTIVE`) backs the convenience
    functions; independent instances can be created for isolated
    measurement (tests do this to avoid cross-talk).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        #: span name -> duration Histogram
        self.durations: dict[str, Histogram] = {}
        self.spans = SpanNode("<root>")
        self._current: ContextVar[Any] = ContextVar(
            "repro_perf_current_span", default=None
        )
        # Bumped by reset(); spans open across a reset detach on exit
        # instead of restoring a context token into the discarded tree.
        self._generation = 0

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        """Turn recording on (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off; already-recorded data is kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded data and detach any in-flight span.

        Clearing the current-span context matters: a span left open across
        ``reset()`` must not re-parent later spans onto a node of the
        discarded tree (its own exit is guarded the same way).
        """
        self.counters.clear()
        self.gauges.clear()
        self.durations.clear()
        self.spans = SpanNode("<root>")
        self._generation += 1
        self._current.set(None)

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Add ``amount`` to counter ``name`` (no-op while disabled)."""
        if self.enabled:
            self.counters[series_key(name, labels) if labels else name] += amount

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name`` to ``value`` (no-op while disabled)."""
        if self.enabled:
            self.gauges[series_key(name, labels) if labels else name] = value

    def span(self, name: str):
        """Context manager tracing a nestable span (no-op while disabled)."""
        if self.enabled:
            return _Span(self, name)
        return _NULL_SCOPE

    def _observe_duration(self, name: str, elapsed: float) -> None:
        histogram = self.durations.get(name)
        if histogram is None:
            histogram = self.durations[name] = Histogram()
        histogram.observe(elapsed)

    # -- reporting -----------------------------------------------------------

    def format_report(self) -> str:
        """A human-readable text report: spans, durations, counters, gauges.

        Every section is stable-sorted by name, so two runs that record
        the same data render byte-identical reports regardless of
        insertion order.
        """
        lines: list[str] = ["== perf report =="]
        if self.spans.children:
            lines.append("-- spans (total seconds / calls) --")
            for _, child in sorted(self.spans.children.items()):
                lines.extend(self._format_span(child, depth=0))
        if self.durations:
            lines.append("-- durations (p50 / p95 / p99 seconds) --")
            for name, histogram in sorted(self.durations.items()):
                summary = histogram.summary()
                lines.append(
                    f"  {name}: {summary['p50']:.6f} / {summary['p95']:.6f} / "
                    f"{summary['p99']:.6f} ({summary['count']} samples)"
                )
        if self.counters:
            lines.append("-- counters --")
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name}: {value}")
        if self.gauges:
            lines.append("-- gauges --")
            for name, value in sorted(self.gauges.items()):
                lines.append(f"  {name}: {value:g}")
        if len(lines) == 1:
            lines.append("(nothing recorded)")
        return "\n".join(lines)

    @staticmethod
    def _format_span(node: SpanNode, depth: int) -> Iterator[str]:
        yield f"  {'  ' * depth}{node.name}: {node.seconds:.6f}s / {node.calls} calls"
        for _, child in sorted(node.children.items()):
            yield from Instrumentation._format_span(child, depth + 1)


#: The process-wide default registry used by the module-level functions.
ACTIVE = Instrumentation()


def get() -> Instrumentation:
    """The active registry (for direct inspection of counters/spans)."""
    return ACTIVE


def enable() -> None:
    """Enable the active registry."""
    ACTIVE.enable()


def disable() -> None:
    """Disable the active registry."""
    ACTIVE.disable()


def reset() -> None:
    """Reset the active registry."""
    ACTIVE.reset()


def enabled() -> bool:
    """True when the active registry is recording."""
    return ACTIVE.enabled


# The module-level hooks act on ACTIVE directly rather than through its
# methods: forwarding ``**labels`` adds a call and repacks a dict on
# every bump, more than half of what enabled counters cost the
# categorize hot path.


def count(name: str, amount: int = 1, **labels: Any) -> None:
    """Increment a counter on the active registry (no-op while disabled)."""
    if ACTIVE.enabled:
        ACTIVE.counters[series_key(name, labels) if labels else name] += amount


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the active registry (no-op while disabled)."""
    if ACTIVE.enabled:
        ACTIVE.gauges[series_key(name, labels) if labels else name] = value


def span(name: str):
    """Trace a span on the active registry (no-op while disabled)."""
    if ACTIVE.enabled:
        return _Span(ACTIVE, name)
    return _NULL_SCOPE


def format_report() -> str:
    """The active registry's text report."""
    return ACTIVE.format_report()
