"""Deadline enforcement and the graceful-degradation ladder.

An interactive front end would rather show *something* organized within
its latency budget than the perfect tree late (the paper's whole premise
is reducing browsing effort — a categorization that arrives after the
user gave up reduces nothing).  The ladder, descending:

1. **full** — the complete cost-based tree, no compromise.
2. **truncated** — the build hit its deadline between levels; the levels
   already attached are returned (``tree.truncated``).  This falls out
   of the engine's ``checkpoint`` hook: the predicate returning False
   stops growth but keeps the work, so a timeout converts paid work into
   a shallower tree instead of discarding it.
3. **single_level** — when the remaining budget is too small to even
   start the full build (per an EWMA estimate of level cost), build just
   the cheapest single-attribute level (``max_levels=1``) — the paper's
   one-level categorization, still cost-ranked.
4. **showtuples** — the deadline is effectively gone: return the plain
   result set, exactly what a system without categorization shows.

The ladder never raises :class:`~repro.serving.errors.DeadlineExceeded`
to callers — it bottoms out at SHOWTUPLES, which always succeeds in
O(1).  The rung actually served is recorded in the labeled perf counter
``serve.rung{rung=...}`` and on the decision trace, so degradation is
observable, never silent.

Fault site: ``degrade.level`` fires inside the between-levels checkpoint;
an armed delay simulates a slow level, and an armed failure forces the
checkpoint to stop the build (descending the ladder) rather than
escaping the engine.
"""

from __future__ import annotations

import time
from typing import Callable

from repro import perf
from repro.core.algorithm import LevelByLevelCategorizer
from repro.core.tree import CategoryTree
from repro.relational.query import SelectQuery
from repro.relational.table import RowSet
from repro.serving.errors import Degraded
from repro.serving.faults import NULL_INJECTOR, FaultInjector, InjectedFault

#: Ladder rungs, best first.
RUNG_FULL = "full"
RUNG_TRUNCATED = "truncated"
RUNG_SINGLE_LEVEL = "single_level"
RUNG_SHOWTUPLES = "showtuples"

RUNGS = (RUNG_FULL, RUNG_TRUNCATED, RUNG_SINGLE_LEVEL, RUNG_SHOWTUPLES)

#: Weight of the newest observation in the per-level build-cost EWMA.
EWMA_ALPHA = 0.3


class Deadline:
    """A request's time budget against an injectable monotonic clock.

    Args:
        budget_ms: milliseconds allowed; None means no deadline.
        clock: monotonic time source.
    """

    def __init__(
        self,
        budget_ms: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_ms is not None and budget_ms < 0:
            raise ValueError(f"deadline must be >= 0 ms, got {budget_ms}")
        self.budget_ms = budget_ms
        self._clock = clock
        self._started = clock()

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._started

    @property
    def remaining_s(self) -> float:
        """Seconds left; ``inf`` when there is no deadline."""
        if self.budget_ms is None:
            return float("inf")
        return self.budget_ms / 1000.0 - self.elapsed_s

    @property
    def expired(self) -> bool:
        return self.remaining_s <= 0.0


class DegradationLadder:
    """Run categorization under a deadline, descending the ladder as needed.

    The ladder is stateful only in its EWMA estimate of per-level build
    cost, so one instance is shared across requests while the engine
    itself is passed per call (the service builds a fresh engine against
    each pinned epoch's statistics — sharing an engine across epochs
    would read stale counts).

    Args:
        faults: injector wired to the ``degrade.level`` site.
        level_cost_hint_s: seed for the EWMA estimate of per-level build
            cost, used to skip rungs that cannot fit the remaining
            budget.  Tests pass a large hint to force ``single_level``
            deterministically.
    """

    def __init__(
        self,
        faults: FaultInjector | None = None,
        level_cost_hint_s: float = 0.0,
    ) -> None:
        self._faults = faults or NULL_INJECTOR
        self._level_cost_s = level_cost_hint_s

    @property
    def level_cost_s(self) -> float:
        """Current EWMA estimate of one level's build cost in seconds."""
        return self._level_cost_s

    def categorize(
        self,
        categorizer: LevelByLevelCategorizer,
        rows: RowSet,
        query: SelectQuery | None,
        deadline: Deadline,
        *,
        collect_trace: bool = False,
        max_rung: str = RUNG_FULL,
    ) -> tuple[CategoryTree | None, str, Degraded | None]:
        """Produce the best response the deadline allows.

        ``max_rung`` caps the *best* rung attempted (a cost budget
        independent of wall-clock): ``single_level`` skips the deep
        build, ``showtuples`` skips categorization entirely.

        Returns:
            ``(tree, rung, degraded)`` — ``tree`` is None only on the
            SHOWTUPLES rung; ``degraded`` is None only on the full rung.
            Never raises for deadline reasons.
        """
        tree, rung, reason = self._run_ladder(
            categorizer, rows, query, deadline, collect_trace, max_rung
        )
        perf.count("serve.rung", rung=rung)
        degraded = None if rung == RUNG_FULL else Degraded(rung, reason)
        if tree is not None and tree.decision_trace is not None:
            tree.decision_trace.served_rung = rung
        return tree, rung, degraded

    def _run_ladder(
        self,
        categorizer: LevelByLevelCategorizer,
        rows: RowSet,
        query: SelectQuery | None,
        deadline: Deadline,
        collect_trace: bool,
        max_rung: str,
    ) -> tuple[CategoryTree | None, str, str]:
        if deadline.expired:
            return None, RUNG_SHOWTUPLES, "deadline"
        if max_rung == RUNG_SHOWTUPLES:
            return None, RUNG_SHOWTUPLES, "budget"

        # Not enough budget to fit even one estimated level (or the caller
        # capped the rung): skip straight to the cheapest rung that can
        # still finish.
        if max_rung == RUNG_SINGLE_LEVEL or (
            self._level_cost_s > 0.0 and deadline.remaining_s < self._level_cost_s
        ):
            reason = "budget" if max_rung == RUNG_SINGLE_LEVEL else "deadline"
            tree = self._single_level(
                categorizer, rows, query, deadline, collect_trace
            )
            if tree is not None:
                return tree, RUNG_SINGLE_LEVEL, reason
            return None, RUNG_SHOWTUPLES, reason

        started = deadline.elapsed_s
        tree = categorizer.categorize(
            rows,
            query,
            collect_trace=collect_trace,
            checkpoint=lambda: self._checkpoint(deadline),
        )
        self._observe(deadline.elapsed_s - started, self._depth(tree))

        if not tree.truncated:
            return tree, RUNG_FULL, ""
        if tree.root.children:
            return tree, RUNG_TRUNCATED, "deadline"
        # Truncated before level 1 even built: nothing categorized.
        return None, RUNG_SHOWTUPLES, "deadline"

    def _checkpoint(self, deadline: Deadline) -> bool:
        """Continue-predicate between levels; False stops (keeps) the build."""
        try:
            self._faults.fire("degrade.level")
        except InjectedFault:
            # An injected level failure degrades instead of escaping.
            return False
        return not deadline.expired

    def _single_level(
        self,
        categorizer: LevelByLevelCategorizer,
        rows: RowSet,
        query: SelectQuery | None,
        deadline: Deadline,
        collect_trace: bool,
    ) -> CategoryTree | None:
        shallow = categorizer.config.with_overrides(max_levels=1)
        original = categorizer.config
        try:
            categorizer.config = shallow
            tree = categorizer.categorize(
                rows,
                query,
                collect_trace=collect_trace,
                checkpoint=lambda: self._checkpoint(deadline),
            )
        finally:
            categorizer.config = original
        if tree.truncated and not tree.root.children:
            return None
        return tree

    def _observe(self, elapsed_s: float, levels: int) -> None:
        if levels <= 0:
            return
        sample = elapsed_s / levels
        if self._level_cost_s <= 0.0:
            self._level_cost_s = sample
        else:
            self._level_cost_s = (
                EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * self._level_cost_s
            )
        perf.gauge("degrade.level_cost_est_s", self._level_cost_s)

    @staticmethod
    def _depth(tree: CategoryTree) -> int:
        depth = 0
        frontier = [tree.root]
        while frontier:
            children = [c for node in frontier for c in node.children]
            if not children:
                break
            depth += 1
            frontier = children
        return depth
