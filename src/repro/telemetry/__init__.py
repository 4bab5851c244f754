"""Request-scoped telemetry: durable trace/decision events + offline audit.

The serving stack's counters (:mod:`repro.perf`) say *how much*; this
package records *which request got which tree, and why* — the ROADMAP's
observability gap.  A sampled request leaves a correlated JSONL record
across every layer it touched:

* the front end's admission story and latency waterfall (``frontend``),
* the service's cache/epoch/rung outcome (``service``),
* the engine's decision trace digest (``decision``),

all joined by the existing per-request trace id, shipped through a
bounded non-blocking writer (:class:`TelemetryPipeline`) to a rotating
sink (:class:`RotatingJsonlSink`), and analyzed offline by ``repro
audit`` (:mod:`repro.telemetry.audit`).

Enable on a server with ``repro serve --telemetry-sink events.jsonl
[--telemetry-sample 0.1]``; in code::

    from repro import telemetry
    pipeline = telemetry.TelemetryPipeline(
        telemetry.RotatingJsonlSink("events.jsonl"), sample_rate=0.1)
    telemetry.install(pipeline)
    ...
    telemetry.uninstall()
    pipeline.close()

With nothing installed every hook is one global load and a ``None``
check — the hot path stays within the <2% overhead budget (see
docs/observability.md for measured numbers).
"""

from repro.telemetry.events import (
    DECISION,
    FRONTEND,
    META,
    SERVICE,
    decision_digest,
)
from repro.telemetry.pipeline import (
    FSYNC_POLICIES,
    SCHEMA,
    RotatingJsonlSink,
    TelemetryPipeline,
    active,
    emit,
    install,
    installed,
    trace_root,
    uninstall,
)

__all__ = [
    "DECISION",
    "FRONTEND",
    "FSYNC_POLICIES",
    "META",
    "RotatingJsonlSink",
    "SCHEMA",
    "SERVICE",
    "TelemetryPipeline",
    "active",
    "decision_digest",
    "emit",
    "install",
    "installed",
    "trace_root",
    "uninstall",
]
