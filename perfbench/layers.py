"""Attribute each traced request's client latency to the layers below.

A layer's self time is its spans' duration minus the part their child
spans cover.  Only the part inside the request's client window (first
byte sent to last byte received) counts, so work the server does after
answering (the front end's telemetry, say) is not charged to the
request.  ``trace.unattributed_ms`` is what no span explains: the front
end's own code, the event loop, executor queueing, the network and the
client.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field

#: Span name -> per-layer metric name (ms of self time per request).
LAYER_METRICS = {
    "service": "service.self_ms",
    "sql.parse": "sql.parse_ms",
    "relational.select": "relational.select_ms",
    "core.categorize": "core.categorize_ms",
    "core.partition": "core.partition_ms",
    "core.cost": "core.cost_ms",
    "render": "render.ms",
    "ingest.record": "ingest.record_ms",
    "workload.fold": "workload.fold_ms",
    "journal.append": "journal.append_ms",
    "snapshot.publish": "snapshot.publish_ms",
    "telemetry.emit": "telemetry.emit_ms",
}

#: Boot spans -> set-up metric (inclusive seconds, summed).
SETUP_METRICS = {
    "setup.load": "setup.load_s",
    "setup.log": "setup.log_s",
    "setup.preprocess": "setup.preprocess_s",
    "setup.warm_load": "setup.warm_load_s",
}

#: Tolerance of the add-up check: per request, the layers may not explain
#: more than the client saw by more than this (clock reads, rounding).
ADD_UP_TOLERANCE_MS = 0.05


@dataclass
class Attribution:
    joined: int = 0  # requests whose spans were found by trace id
    skipped: int = 0  # 200s not joinable (coalesced followers share an id)
    latency_ms: float = 0.0  # mean client window of the joined requests
    layers: dict = field(default_factory=dict)  # metric -> mean ms/request
    unattributed_ms: float = 0.0
    over_explained: int = 0  # requests whose spans exceed their window
    span_counts: dict = field(default_factory=dict)  # span name -> per request
    internal_nodes: float = 0.0  # per request
    setup: dict = field(default_factory=dict)  # metric -> seconds

    @property
    def adds_up(self) -> bool:
        """``unattributed_ms`` is the residual, so the sum always matches;
        what can fail is a request whose spans explain more than its
        window (a double count)."""
        return self.joined > 0 and not self.over_explained


def _overlap(start: int, end: int, lo: int, hi: int) -> int:
    return max(0, min(end, hi) - max(start, lo))


def attribute(trace: dict, responses: list, bodies: dict) -> Attribution:
    """Join ``trace`` (the launcher's output) to the client's responses."""
    spans = [tuple(span) for span in trace["spans"]]
    children = collections.defaultdict(list)
    by_trace = collections.defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
        if span[5] is not None:
            by_trace[span[5]].append(span)
    nodes = collections.Counter()
    for name, value, trace_id in trace["counts"]:
        if name == "core.internal_nodes" and trace_id is not None:
            nodes[trace_id] += value

    result = Attribution()
    totals = collections.Counter()
    counts = collections.Counter()
    latency = unattributed = 0.0
    for response in responses:
        body = bodies.get(id(response))
        if response.status != 200 or body is None:
            continue
        if body.get("coalesced") or response.trace_id not in by_trace:
            result.skipped += 1
            continue
        lo, hi = response.sent_ns, response.recv_ns
        explained = 0.0
        for span in by_trace[response.trace_id]:
            own = _overlap(span[2], span[3], lo, hi)
            own -= sum(_overlap(c[2], c[3], lo, hi) for c in children[span[0]])
            metric = LAYER_METRICS.get(span[1])
            if metric is None:
                continue
            totals[metric] += own / 1e6
            explained += own / 1e6
            counts[span[1]] += 1
        window = (hi - lo) / 1e6
        if explained > window + ADD_UP_TOLERANCE_MS:
            result.over_explained += 1
        result.joined += 1
        latency += window
        unattributed += window - explained
        result.internal_nodes += nodes.get(response.trace_id, 0)

    n = max(1, result.joined)
    result.latency_ms = latency / n
    result.unattributed_ms = unattributed / n
    result.layers = {metric: totals[metric] / n for metric in LAYER_METRICS.values()}
    result.span_counts = {name: counts[name] / n for name in LAYER_METRICS}
    result.internal_nodes /= n
    for span in spans:
        metric = SETUP_METRICS.get(span[1])
        if metric is not None and span[4] == 0:
            result.setup[metric] = result.setup.get(metric, 0.0) + (span[3] - span[2]) / 1e9
    return result
