"""Metric exporters: one registry snapshot in three wire formats.

:func:`registry_snapshot` is the one traversal of an
:class:`~repro.perf.instrument.Instrumentation` registry: counters,
gauges, duration histograms and spans, each a sorted list of JSON-ready
entries.  Every exporter renders that snapshot:

* :func:`export_json` — the snapshot as one pretty-printed document
  (``perf-report --format json``), for tools that want ``json.load``.
* :func:`export_jsonl` — one JSON object per line, one line per entry,
  tagged with its kind (``counter`` / ``gauge`` / ``histogram`` /
  ``span``).  Meant for log shipping: append the lines to a file and any
  JSON-lines consumer can aggregate.
* :func:`export_prometheus` — the Prometheus text exposition format
  (``# TYPE`` declarations plus ``name{labels} value`` samples), ready to
  serve from a ``/metrics`` endpoint or push through a textfile collector.
  Metric names are sanitized to ``[a-zA-Z_][a-zA-Z0-9_]*`` and prefixed
  ``repro_``; duration histograms export as summaries with ``quantile``
  labels.

All are pure functions of the registry — exporting never mutates or
resets recorded data, so repeated scrapes are safe.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterator

from repro.perf.instrument import (
    ACTIVE,
    Instrumentation,
    SpanNode,
    split_series_key,
)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(name: str) -> str:
    """Mangle a dotted series name into a legal Prometheus identifier."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = f"_{cleaned}"
    return cleaned


def _escape_label_value(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize(key)}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return f"{{{inner}}}"


def _span_paths(node: SpanNode, prefix: str = "") -> Iterator[tuple[str, SpanNode]]:
    """Every span below ``node``, depth first, siblings sorted by name."""
    for name, child in sorted(node.children.items()):
        path = f"{prefix}/{name}" if prefix else name
        yield path, child
        yield from _span_paths(child, path)


def _labeled(series: dict[str, Any]) -> list[dict[str, Any]]:
    entries = []
    for key, value in sorted(series.items()):
        name, labels = split_series_key(key)
        entries.append({"name": name, "labels": labels, "value": value})
    return entries


def registry_snapshot(inst: Instrumentation | None = None) -> dict[str, Any]:
    """The whole registry as one JSON-ready object, every section sorted.

    ``counters`` and ``gauges`` hold ``{name, labels, value}`` entries;
    ``histograms`` one ``{name, **Histogram.summary()}`` entry per span
    name; ``spans`` one ``{path, calls, seconds}`` entry per node of the
    span tree, depth first, with a slash-joined ``path``
    (``"categorize/categorize.level"``).
    """
    inst = ACTIVE if inst is None else inst
    return {
        "counters": _labeled(inst.counters),
        "gauges": _labeled(inst.gauges),
        "histograms": [
            {"name": name, **histogram.summary()}
            for name, histogram in sorted(inst.durations.items())
        ],
        "spans": [
            {"path": path, "calls": node.calls, "seconds": node.seconds}
            for path, node in _span_paths(inst.spans)
        ],
    }


def export_json(inst: Instrumentation | None = None) -> str:
    """Serialize :func:`registry_snapshot` as pretty-printed JSON."""
    return json.dumps(registry_snapshot(inst), indent=2) + "\n"


def export_jsonl(inst: Instrumentation | None = None) -> str:
    """Serialize :func:`registry_snapshot` as JSON lines.

    One ``{"type": kind, **entry}`` object per entry, ``kind`` being its
    section in the singular: ``counter``, ``gauge``, ``histogram`` or
    ``span``.
    """
    return "".join(
        json.dumps({"type": section.removesuffix("s"), **entry}) + "\n"
        for section, entries in registry_snapshot(inst).items()
        for entry in entries
    )


# -- Prometheus text format ------------------------------------------------


def _by_name(entries: list[dict[str, Any]]) -> dict[str, list[dict[str, Any]]]:
    grouped: dict[str, list[dict[str, Any]]] = {}
    for entry in entries:
        grouped.setdefault(entry["name"], []).append(entry)
    return grouped


def export_prometheus(inst: Instrumentation | None = None) -> str:
    """Serialize the registry in the Prometheus text exposition format."""
    snapshot = registry_snapshot(inst)
    lines: list[str] = []

    # Counters: group series by base name so each gets one TYPE line.
    counters = _by_name(snapshot["counters"])
    for name, series in counters.items():
        metric = f"repro_{_sanitize(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        for entry in series:
            lines.append(f"{metric}{_format_labels(entry['labels'])} {entry['value']}")

    gauges = _by_name(snapshot["gauges"])
    # serve.cache_hit_ratio is *derived at scrape time* from the result
    # cache's hit/miss counters — a ratio is a gauge, and materializing it
    # per-request would just be a slower way to compute hits/(hits+misses).
    hits = sum(entry["value"] for entry in counters.get("service.cache_hits", ()))
    misses = sum(entry["value"] for entry in counters.get("service.cache_misses", ()))
    if hits + misses:
        gauges.setdefault("serve.cache_hit_ratio", []).append(
            {"labels": {}, "value": hits / (hits + misses)}
        )
    for name, series in gauges.items():
        metric = f"repro_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} gauge")
        for entry in series:
            lines.append(
                f"{metric}{_format_labels(entry['labels'])} "
                f"{_format_value(entry['value'])}"
            )

    if snapshot["histograms"]:
        lines.append("# TYPE repro_duration_seconds summary")
        for entry in snapshot["histograms"]:
            for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                labels = _format_labels({"name": entry["name"], "quantile": quantile})
                lines.append(
                    f"repro_duration_seconds{labels} {_format_value(entry[key])}"
                )
            labels = _format_labels({"name": entry["name"]})
            lines.append(
                f"repro_duration_seconds_sum{labels} {_format_value(entry['sum'])}"
            )
            lines.append(f"repro_duration_seconds_count{labels} {entry['count']}")

    if snapshot["spans"]:
        lines.append("# TYPE repro_span_seconds_total counter")
        for entry in snapshot["spans"]:
            labels = _format_labels({"path": entry["path"]})
            lines.append(
                f"repro_span_seconds_total{labels} {_format_value(entry['seconds'])}"
            )
        lines.append("# TYPE repro_span_calls_total counter")
        for entry in snapshot["spans"]:
            labels = _format_labels({"path": entry["path"]})
            lines.append(f"repro_span_calls_total{labels} {entry['calls']}")

    return "".join(f"{line}\n" for line in lines)


def _format_value(value: float) -> str:
    """Render a sample value (Prometheus accepts any float literal)."""
    return repr(float(value))
