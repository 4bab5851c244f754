"""Observability for the serving hot path.

Counters, gauges, nestable trace spans, per-span duration histograms
(p50/p95/p99), and exporters (JSON, JSON-lines, Prometheus text format).
Import the package and call the module-level functions::

    from repro import perf

    perf.enable()
    ...                           # instrumented code runs
    print(perf.format_report())
    print(perf.export_prometheus())

See :mod:`repro.perf.instrument` for the full API and the design notes
(contextvar-based span nesting, disabled-mode overhead budget),
:mod:`repro.perf.export` for the wire formats, and
``docs/observability.md`` for the user guide.
"""

from repro.perf.export import (
    export_json,
    export_jsonl,
    export_prometheus,
    registry_snapshot,
)
from repro.perf.instrument import (
    ACTIVE,
    Instrumentation,
    SpanNode,
    count,
    disable,
    enable,
    enabled,
    format_report,
    gauge,
    get,
    reset,
    series_key,
    span,
    split_series_key,
)
from repro.perf.metrics import Histogram

__all__ = [
    "ACTIVE",
    "Histogram",
    "Instrumentation",
    "SpanNode",
    "count",
    "disable",
    "enable",
    "enabled",
    "export_json",
    "export_jsonl",
    "export_prometheus",
    "registry_snapshot",
    "format_report",
    "gauge",
    "get",
    "reset",
    "series_key",
    "span",
    "split_series_key",
]
