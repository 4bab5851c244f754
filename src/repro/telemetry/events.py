"""Event schema (``repro.telemetry.v1``) and digest builders.

One request that samples in produces up to three event types, all joined
by ``trace_id`` (batch statements carry ``<root>#<position>`` ids and
join on the root):

``frontend``
    Emitted by the HTTP front end after the response bytes are written.
    Fields: ``frontend`` (always ``async`` since the threading front
    end was removed; kept so older sinks audit the same), ``route``,
    ``table`` (the resolved relation, None when resolution failed),
    ``status``, ``outcome`` (``ok`` | ``shed`` | ``invalid`` | ``stalled``
    | ``error``), the latency waterfall ``queue_ms`` (arrival ->
    admitted), ``compute_ms`` (admitted -> service returned),
    ``respond_ms`` (service returned -> bytes written), and the admission
    story: ``pressure``, ``tightened``, ``deadline_ms`` (the effective,
    possibly tightened deadline), ``coalesced`` + ``leader_trace_id``
    for singleflight followers.

``service``
    Emitted by :class:`~repro.serving.service.CategorizationService` per
    served statement: ``table``, ``technique``, ``backend``, ``sql``
    (normalized), ``rung``, ``epoch``, ``cached``, ``elapsed_ms``,
    ``rows``, ``categories``, ``chosen`` (per-level attributes),
    ``degraded`` (reason, or None).

``decision``
    The :class:`~repro.core.trace.DecisionTrace` digest
    (:func:`decision_digest`) for freshly computed trees: threshold-x
    eliminations and, per level, the chosen attribute's CostAll/CostOne
    plus the runner-up deltas — the fields the audit tool's quality
    digest aggregates.  The full trace (every candidate's node
    evaluations) stays available via the ``trace: true`` request flag;
    shipping all of it per sampled request would swamp the sink.

Every event also carries ``ts`` (wall-clock seconds).  Segments start
with a ``{"type": "meta", "schema": "repro.telemetry.v1", ...}`` line.
"""

from __future__ import annotations

from typing import Any

from repro.core.trace import DecisionTrace

FRONTEND = "frontend"
SERVICE = "service"
DECISION = "decision"
META = "meta"


def decision_digest(trace: DecisionTrace) -> dict[str, Any]:
    """Compress a decision trace to the audit tool's quality fields.

    Per level: the chosen attribute's CostAll/CostOne, the best viable
    runner-up, and the cost deltas between them (how contested the choice
    was — a tiny ``delta_cost_all`` means a different workload model
    could plausibly flip the level).
    """
    levels = []
    for level in trace.levels:
        chosen = None
        if level.chosen is not None:
            try:
                chosen = level.candidate(level.chosen)
            except KeyError:
                chosen = None
        runner_up = None
        if chosen is not None:
            viable = sorted(
                (
                    c
                    for c in level.candidates
                    if c.viable and c.attribute != chosen.attribute
                ),
                key=lambda c: c.cost_all,
            )
            runner_up = viable[0] if viable else None
        levels.append(
            {
                "level": level.level,
                "oversized_nodes": level.oversized_nodes,
                "candidates": len(level.candidates),
                "chosen": level.chosen,
                "cost_all": chosen.cost_all if chosen else None,
                "cost_one": chosen.cost_one if chosen else None,
                "runner_up": runner_up.attribute if runner_up else None,
                "delta_cost_all": (
                    round(runner_up.cost_all - chosen.cost_all, 6)
                    if chosen and runner_up
                    else None
                ),
                "delta_cost_one": (
                    round(runner_up.cost_one - chosen.cost_one, 6)
                    if chosen and runner_up
                    else None
                ),
            }
        )
    return {
        "technique": trace.technique,
        "elimination_threshold": trace.elimination_threshold,
        "served_rung": trace.served_rung,
        "eliminated": [
            {"attribute": e.attribute, "usage_fraction": e.usage_fraction}
            for e in trace.eliminated
        ],
        "levels": levels,
    }
