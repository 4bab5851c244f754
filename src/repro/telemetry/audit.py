"""Offline quality audit over telemetry sinks (``repro audit``).

Joins the events of one or more JSONL sink files (rotated segments
included — pass them all) per trace id and reports:

* **reconstruction** — how many requests the sink describes, how many
  joined completely, and any partial traces / orphaned events (the CI
  smoke's invariant is zero of both at sample rate 1.0);
* the **latency waterfall** (queue -> compute -> respond quantiles) from
  the front-end events;
* **rung / coalesce / shed / tightened distributions** — these totals
  equal the server's ``/metrics`` counters for the run when sampling
  is 1.0;
* **cache hit ratios** by table and technique from the service events;
* a **tree-quality digest** from the decision events: chosen-attribute
  frequencies, threshold-x elimination reasons, and the CostAll/CostOne
  deltas between each level's winner and runner-up (how contested the
  choices were).

``diff_reports`` compares two sinks (``--diff baseline.jsonl``) for
A/B-judging workload-model variants: same traffic, did the trees change,
and did the margins that picked them move?

Batch statements (``req-000042#1``) join to their batch root, so a
``/categorize_batch`` request audits as one request with N service
events.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.telemetry.events import DECISION, FRONTEND, META, SERVICE
from repro.telemetry.pipeline import trace_root

#: Trace ids listed verbatim in reports before truncating to a count.
MAX_LISTED_IDS = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def load_events(paths: Iterable[Path | str]) -> tuple[list[dict], int]:
    """Parse sink files into events; returns ``(events, skipped_lines)``.

    ``meta`` lines and unparsable lines (a torn tail from a crash) are
    skipped, the latter counted.

    Raises:
        FileNotFoundError: a named sink file does not exist.
    """
    events: list[dict] = []
    skipped = 0
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if not isinstance(event, dict) or event.get("type") == META:
                continue
            events.append(event)
    return events, skipped


@dataclass
class TraceGroup:
    """Every event of one request, joined on the trace root.

    Events of any other type — older sinks hold types this version no
    longer writes — land in ``other``: counted, kept by ``--table``,
    never making a trace partial.
    """

    root: str
    frontend: list[dict] = field(default_factory=list)
    service: list[dict] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)
    other: list[dict] = field(default_factory=list)

    def add(self, event: dict) -> None:
        kind = event.get("type")
        if kind == FRONTEND:
            self.frontend.append(event)
        elif kind == SERVICE:
            self.service.append(event)
        elif kind == DECISION:
            self.decisions.append(event)
        else:
            self.other.append(event)

    @property
    def table(self) -> str | None:
        """The relation this request resolved to, when any event names it."""
        for event in (*self.frontend, *self.service):
            table = event.get("table")
            if isinstance(table, str) and table:
                return table
        return None

    @property
    def expects_service(self) -> bool:
        """True when a front-end event promises at least one service event."""
        return any(
            e.get("outcome") == "ok"
            and not e.get("coalesced")
            and e.get("route") in ("/categorize", "/categorize_batch")
            for e in self.frontend
        )

    def orphaned_events(self) -> int:
        """Decision events with no service event to hang off."""
        if self.service:
            return 0
        return len(self.decisions)

    @property
    def partial(self) -> bool:
        return (self.expects_service and not self.service) or bool(
            self.orphaned_events()
        )


def group_traces(events: Iterable[dict]) -> dict[str, TraceGroup]:
    groups: dict[str, TraceGroup] = {}
    for event in events:
        trace_id = event.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            continue
        root = trace_root(trace_id)
        group = groups.get(root)
        if group is None:
            group = groups[root] = TraceGroup(root)
        group.add(event)
    return groups


def _quantiles(values: list[float]) -> dict[str, float]:
    if not values:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "n": len(values),
        "mean": round(sum(values) / len(values), 3),
        "p50": round(percentile(values, 0.5), 3),
        "p95": round(percentile(values, 0.95), 3),
        "p99": round(percentile(values, 0.99), 3),
        "max": round(max(values), 3),
    }


def _delta_summary(values: list[float]) -> dict[str, float]:
    if not values:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "n": len(values),
        "mean": round(sum(values) / len(values), 3),
        "min": round(min(values), 3),
        "max": round(max(values), 3),
    }


def build_report(
    events: list[dict],
    skipped_lines: int = 0,
    files: list[str] | None = None,
    table: str | None = None,
) -> dict[str, Any]:
    """Aggregate events into the audit report (a JSON-ready dict).

    ``table`` narrows the report to requests that resolved to one
    relation (``repro audit --table``); requests whose events never name
    a table are dropped by the filter.
    """
    groups = group_traces(events)
    if table is not None:
        groups = {
            root: group
            for root, group in groups.items()
            if group.table == table
        }
        events = [
            event
            for group in groups.values()
            for bucket in (
                group.frontend,
                group.service,
                group.decisions,
                group.other,
            )
            for event in bucket
        ]
    partial_ids = sorted(g.root for g in groups.values() if g.partial)
    orphaned = sum(g.orphaned_events() for g in groups.values())

    frontends = [e for g in groups.values() for e in g.frontend]
    services = [e for g in groups.values() for e in g.service]
    decisions = [e for g in groups.values() for e in g.decisions]

    waterfall = {
        stage: _quantiles(
            [
                float(e[field_name])
                for e in frontends
                if isinstance(e.get(field_name), (int, float))
            ]
        )
        for stage, field_name in (
            ("queue", "queue_ms"),
            ("compute", "compute_ms"),
            ("respond", "respond_ms"),
        )
    }

    cache: dict[str, dict[str, Any]] = {}
    for event in services:
        key = f"{event.get('table')}/{event.get('technique')}"
        slot = cache.setdefault(key, {"hits": 0, "misses": 0})
        slot["hits" if event.get("cached") else "misses"] += 1
    for slot in cache.values():
        total = slot["hits"] + slot["misses"]
        slot["ratio"] = round(slot["hits"] / total, 4) if total else 0.0

    chosen: Counter[str] = Counter()
    for event in services:
        for attribute in event.get("chosen") or ():
            chosen[str(attribute)] += 1
    eliminations: Counter[str] = Counter()
    delta_all: list[float] = []
    delta_one: list[float] = []
    contested = 0
    levels_seen = 0
    for event in decisions:
        for entry in event.get("eliminated") or ():
            if isinstance(entry, dict) and entry.get("attribute"):
                eliminations[str(entry["attribute"])] += 1
        for level in event.get("levels") or ():
            if not isinstance(level, dict):
                continue
            levels_seen += 1
            d_all, d_one = level.get("delta_cost_all"), level.get("delta_cost_one")
            if isinstance(d_all, (int, float)):
                delta_all.append(float(d_all))
                cost_all = level.get("cost_all")
                if (
                    isinstance(cost_all, (int, float))
                    and cost_all > 0
                    and d_all < 0.05 * cost_all
                ):
                    contested += 1
            if isinstance(d_one, (int, float)):
                delta_one.append(float(d_one))

    per_table: dict[str, dict[str, Any]] = {}
    for group in groups.values():
        name = group.table or "<unresolved>"
        slot = per_table.setdefault(
            name,
            {
                "requests": 0,
                "shed": 0,
                "coalesced": 0,
                "partial": 0,
                "rungs": Counter(),
            },
        )
        slot["requests"] += 1
        slot["shed"] += sum(
            1 for e in group.frontend if e.get("outcome") == "shed"
        )
        slot["coalesced"] += sum(1 for e in group.frontend if e.get("coalesced"))
        slot["partial"] += 1 if group.partial else 0
        slot["rungs"].update(str(e.get("rung")) for e in group.service)
    tables = {
        name: {**slot, "rungs": dict(slot["rungs"])}
        for name, slot in sorted(per_table.items())
    }

    return {
        "files": files or [],
        "table_filter": table,
        "events": len(events),
        "skipped_lines": skipped_lines,
        "requests": len(groups),
        "complete": len(groups) - len(partial_ids),
        "partial": len(partial_ids),
        "partial_trace_ids": partial_ids[:MAX_LISTED_IDS],
        "orphaned_events": orphaned,
        "tables": tables,
        "routes": dict(Counter(str(e.get("route")) for e in frontends)),
        "outcomes": dict(Counter(str(e.get("outcome")) for e in frontends)),
        "statuses": dict(Counter(str(e.get("status")) for e in frontends)),
        "waterfall_ms": waterfall,
        "rungs": dict(Counter(str(e.get("rung")) for e in services)),
        "shed": sum(1 for e in frontends if e.get("outcome") == "shed"),
        "coalesced": sum(1 for e in frontends if e.get("coalesced")),
        "tightened": sum(1 for e in frontends if e.get("tightened")),
        "cache": {key: cache[key] for key in sorted(cache)},
        "quality": {
            "service_events": len(services),
            "decision_events": len(decisions),
            "levels": levels_seen,
            "contested_levels": contested,
            "chosen_attributes": dict(chosen.most_common()),
            "eliminations": dict(eliminations.most_common()),
            "delta_cost_all": _delta_summary(delta_all),
            "delta_cost_one": _delta_summary(delta_one),
        },
    }


def audit_files(
    paths: Iterable[Path | str], table: str | None = None
) -> dict[str, Any]:
    """Load sink files and build their report in one step."""
    paths = [Path(p) for p in paths]
    events, skipped = load_events(paths)
    return build_report(
        events, skipped, files=[str(p) for p in paths], table=table
    )


# -- diff mode ---------------------------------------------------------------


def _fractions(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    if not total:
        return {}
    return {key: round(value / total, 4) for key, value in counts.items()}


def diff_reports(current: dict[str, Any], baseline: dict[str, Any]) -> dict[str, Any]:
    """Compare two audit reports for A/B judging (current vs baseline).

    The comparison is distributional, not absolute: the two runs may
    differ in length, so rung mix and chosen-attribute mix are compared
    as fractions, cost deltas as means.
    """
    cur_chosen = current["quality"]["chosen_attributes"]
    base_chosen = baseline["quality"]["chosen_attributes"]
    attribute_shift = {
        attribute: {
            "current": _fractions(cur_chosen).get(attribute, 0.0),
            "baseline": _fractions(base_chosen).get(attribute, 0.0),
        }
        for attribute in sorted(set(cur_chosen) | set(base_chosen))
    }
    return {
        "requests": {"current": current["requests"], "baseline": baseline["requests"]},
        "rung_mix": {
            rung: {
                "current": _fractions(current["rungs"]).get(rung, 0.0),
                "baseline": _fractions(baseline["rungs"]).get(rung, 0.0),
            }
            for rung in sorted(set(current["rungs"]) | set(baseline["rungs"]))
        },
        "cache_ratio": {
            key: {
                "current": current["cache"].get(key, {}).get("ratio"),
                "baseline": baseline["cache"].get(key, {}).get("ratio"),
            }
            for key in sorted(set(current["cache"]) | set(baseline["cache"]))
        },
        "chosen_attributes": attribute_shift,
        "mean_delta_cost_all": {
            "current": current["quality"]["delta_cost_all"]["mean"],
            "baseline": baseline["quality"]["delta_cost_all"]["mean"],
        },
        "compute_p50_ms": {
            "current": current["waterfall_ms"]["compute"]["p50"],
            "baseline": baseline["waterfall_ms"]["compute"]["p50"],
        },
    }


# -- text rendering ----------------------------------------------------------


def format_report(report: dict[str, Any]) -> str:
    """Human-readable audit report (``--format text``)."""
    from repro.study.report import format_table

    sections: list[str] = []
    sections.append(
        format_table(
            ["metric", "value"],
            [
                ["events", report["events"]],
                ["skipped lines", report["skipped_lines"]],
                ["requests (trace roots)", report["requests"]],
                ["complete", report["complete"]],
                ["partial", report["partial"]],
                ["orphaned events", report["orphaned_events"]],
                ["shed (503)", report["shed"]],
                ["coalesced", report["coalesced"]],
                ["tightened deadlines", report["tightened"]],
            ],
            title="Reconstruction: " + (", ".join(report["files"]) or "<events>"),
        )
    )
    if report["partial_trace_ids"]:
        sections.append(
            "partial traces: " + ", ".join(report["partial_trace_ids"])
        )

    waterfall_rows = [
        [
            stage,
            stats["n"],
            f"{stats['mean']:.2f}",
            f"{stats['p50']:.2f}",
            f"{stats['p95']:.2f}",
            f"{stats['p99']:.2f}",
            f"{stats['max']:.2f}",
        ]
        for stage, stats in report["waterfall_ms"].items()
    ]
    sections.append(
        format_table(
            ["stage", "n", "mean", "p50", "p95", "p99", "max"],
            waterfall_rows,
            title="Latency waterfall (ms)",
        )
    )

    distribution_rows = [
        [f"rung {rung}", count] for rung, count in sorted(report["rungs"].items())
    ] + [
        [f"outcome {outcome}", count]
        for outcome, count in sorted(report["outcomes"].items())
    ]
    if distribution_rows:
        sections.append(
            format_table(
                ["series", "count"], distribution_rows, title="Distributions"
            )
        )

    tables = report.get("tables") or {}
    if tables:
        sections.append(
            format_table(
                ["table", "requests", "shed", "coalesced", "partial", "rungs"],
                [
                    [
                        name,
                        slot["requests"],
                        slot["shed"],
                        slot["coalesced"],
                        slot["partial"],
                        ", ".join(
                            f"{rung}: {count}"
                            for rung, count in sorted(slot["rungs"].items())
                        )
                        or "none",
                    ]
                    for name, slot in tables.items()
                ],
                title="Per-table",
            )
        )

    if report["cache"]:
        sections.append(
            format_table(
                ["table/technique", "hits", "misses", "ratio"],
                [
                    [key, slot["hits"], slot["misses"], f"{slot['ratio']:.3f}"]
                    for key, slot in report["cache"].items()
                ],
                title="Cache hit ratio",
            )
        )

    quality = report["quality"]
    quality_rows = [
        ["service events", quality["service_events"]],
        ["decision events", quality["decision_events"]],
        ["levels traced", quality["levels"]],
        ["contested levels (<5% margin)", quality["contested_levels"]],
        [
            "mean delta CostAll (runner-up - chosen)",
            f"{quality['delta_cost_all']['mean']:.2f}",
        ],
        [
            "mean delta CostOne",
            f"{quality['delta_cost_one']['mean']:.2f}",
        ],
    ]
    sections.append(
        format_table(["metric", "value"], quality_rows, title="Tree quality digest")
    )
    if quality["chosen_attributes"]:
        sections.append(
            format_table(
                ["attribute", "levels chosen"],
                list(quality["chosen_attributes"].items()),
                title="Chosen attributes",
            )
        )
    if quality["eliminations"]:
        sections.append(
            format_table(
                ["attribute", "eliminated (threshold x)"],
                list(quality["eliminations"].items()),
                title="Eliminations",
            )
        )
    return "\n\n".join(sections)


def format_diff(diff: dict[str, Any]) -> str:
    """Human-readable A/B comparison (``--diff``)."""
    from repro.study.report import format_table

    def pair_rows(mapping: dict[str, dict[str, Any]]) -> list[list[Any]]:
        rows = []
        for key, sides in mapping.items():
            current, base = sides["current"], sides["baseline"]
            rows.append(
                [
                    key,
                    "-" if current is None else current,
                    "-" if base is None else base,
                ]
            )
        return rows

    sections = [
        format_table(
            ["metric", "current", "baseline"],
            [
                [
                    "requests",
                    diff["requests"]["current"],
                    diff["requests"]["baseline"],
                ],
                [
                    "mean delta CostAll",
                    diff["mean_delta_cost_all"]["current"],
                    diff["mean_delta_cost_all"]["baseline"],
                ],
                [
                    "compute p50 ms",
                    diff["compute_p50_ms"]["current"],
                    diff["compute_p50_ms"]["baseline"],
                ],
            ],
            title="Audit diff (current vs baseline)",
        ),
        format_table(
            ["rung", "current", "baseline"],
            pair_rows(diff["rung_mix"]),
            title="Rung mix (fractions)",
        ),
        format_table(
            ["attribute", "current", "baseline"],
            pair_rows(diff["chosen_attributes"]),
            title="Chosen-attribute mix (fractions)",
        ),
    ]
    if diff["cache_ratio"]:
        sections.append(
            format_table(
                ["table/technique", "current", "baseline"],
                pair_rows(diff["cache_ratio"]),
                title="Cache hit ratio",
            )
        )
    return "\n\n".join(sections)
