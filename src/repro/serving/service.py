"""The long-lived categorization service.

:class:`CategorizationService` is the request/response front end over the
offline pipeline: it owns one relation, an epoch-versioned
:class:`~repro.serving.snapshot.SnapshotStore` of workload statistics, a
result cache, and the degradation ladder.  The contract of
:meth:`CategorizationService.categorize`:

* it **never raises for capacity reasons** — deadlines and injected
  faults descend the ladder and bottom out at SHOWTUPLES;
* the only exception is :class:`~repro.serving.errors.InvalidRequest`,
  for requests that are wrong rather than expensive (malformed SQL,
  unknown table, negative deadline);
* every response carries a per-request **trace id**, the **epoch** it
  was served from, and the **rung** it was served at — also threaded
  into the PR 3 decision trace when tracing is requested, so a trace on
  disk can be joined back to the request that produced it.

Batches go through :meth:`CategorizationService.categorize_many`, which
pins a single statistics epoch for the whole batch and shares one
deadline across it (the ROADMAP's batch-API follow-on).

Results are cached per ``(epoch, technique, storage backend, normalized
SQL)`` with LRU + TTL
eviction; evicting an entry releases the tree and its per-``RowSet``
partition derivations.  Only full-rung responses are cached — caching a
degraded tree would keep serving yesterday's timeout after the pressure
is gone.  Epoch-keyed caching makes invalidation free: a new epoch
simply stops hitting the old keys, and TTL expiry collects them.
"""

from __future__ import annotations

import itertools
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import perf, telemetry
from repro.core.algorithm import CostBasedCategorizer, LevelByLevelCategorizer
from repro.core.baselines import AttrCostCategorizer, NoCostCategorizer
from repro.core.config import CategorizerConfig, PAPER_CONFIG
from repro.core.tree import CategoryTree
from repro.relational.table import RowSet, Table
from repro.serving.degrade import (
    RUNG_FULL,
    RUNG_SHOWTUPLES,
    RUNGS,
    Deadline,
    DegradationLadder,
)
from repro.serving.errors import Degraded, InvalidRequest, PublishError, UnknownTable
from repro.serving.faults import NULL_INJECTOR, FaultInjector
from repro.serving.journal import SpillJournal
from repro.serving.relation import Relation
from repro.serving.retry import CircuitBreaker, ResilientIngestor, RetryPolicy
from repro.serving.snapshot import SnapshotStore
from repro.sql.compiler import parse_query
from repro.sql.errors import SqlError
from repro.sql.formatter import format_query
from repro.workload.model import WorkloadQuery
from repro.workload.preprocess import WorkloadStatistics

TECHNIQUES: dict[str, type[LevelByLevelCategorizer]] = {
    "cost-based": CostBasedCategorizer,
    "attr-cost": AttrCostCategorizer,
    "no-cost": NoCostCategorizer,
}


@dataclass
class ServeResult:
    """One categorization response.

    Attributes:
        trace_id: per-request id, also stamped on the decision trace.
        sql: the normalized SQL actually served (the cache key's query).
        rung: degradation-ladder rung served (``full`` ... ``showtuples``).
        epoch: statistics epoch the response was computed against.
        rows: the query's result set (always present — SHOWTUPLES is
            exactly these rows with no tree).
        tree: the category tree, or None on the SHOWTUPLES rung.
        degraded: the :class:`~repro.serving.errors.Degraded` signal, or
            None on the full rung.
        cached: True when served from the result cache.
        elapsed_ms: service-side latency.
    """

    trace_id: str
    sql: str
    rung: str
    epoch: int
    rows: RowSet
    tree: CategoryTree | None = None
    degraded: Degraded | None = None
    cached: bool = False
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary (rows/tree reduced to counts and rendering)."""
        return {
            "trace_id": self.trace_id,
            "sql": self.sql,
            "rung": self.rung,
            "epoch": self.epoch,
            "row_count": len(self.rows),
            "category_count": (
                sum(1 for node in self.tree.nodes() if not node.is_root)
                if self.tree is not None
                else 0
            ),
            "degraded": str(self.degraded) if self.degraded else None,
            "cached": self.cached,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _tree_digest(tree) -> dict[str, Any]:
    """Category count + per-level attributes, memoized on the tree.

    Both accessors walk the whole tree (hundreds of microseconds at
    scale); a cached tree is served many times and is immutable once
    built, so sampled cache hits must not re-pay the traversals.
    """
    if tree is None:
        return {"categories": 0, "chosen": []}
    digest = getattr(tree, "_telemetry_digest", None)
    if digest is None:
        digest = {
            "categories": tree.category_count(),
            "chosen": tree.level_attributes(),
        }
        tree._telemetry_digest = digest
    return digest


@dataclass
class _CacheEntry:
    tree: CategoryTree
    rows: RowSet
    stored_at: float
    hits: int = 0


class ResultCache:
    """LRU + TTL cache of full-rung categorizations.

    Keys are ``epoch:technique:backend:normalized-SQL`` strings; values hold the tree
    and its result set, so a hit skips query execution *and* tree
    building.  The ``service.cache`` fault site fires on every lookup —
    an armed ``evict`` directive drops the entry being looked up,
    simulating memory pressure.
    """

    def __init__(
        self,
        capacity: int = 128,
        ttl_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        faults: FaultInjector | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._faults = faults or NULL_INJECTOR
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> _CacheEntry | None:
        with self._lock:
            if self._faults.fire("service.cache"):
                if self._entries.pop(key, None) is not None:
                    perf.count("service.cache_evictions", reason="injected")
            entry = self._entries.get(key)
            if entry is None:
                perf.count("service.cache_misses")
                return None
            if self._clock() - entry.stored_at > self.ttl_s:
                del self._entries[key]
                perf.count("service.cache_evictions", reason="ttl")
                perf.count("service.cache_misses")
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            perf.count("service.cache_hits")
            return entry

    def put(self, key: str, tree: CategoryTree, rows: RowSet) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = _CacheEntry(tree, rows, self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                perf.count("service.cache_evictions", reason="lru")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class CategorizationService:
    """Request/response categorization over one relation.

    The canonical constructor takes a
    :class:`~repro.serving.relation.Relation` — the bundle of table, seed
    statistics, namespace, and durability state the catalog builds per
    dataset.  The original two-argument form
    ``CategorizationService(table, statistics)`` still works as a
    **deprecation shim**: it wraps its arguments into an ad-hoc Relation
    and emits a :class:`DeprecationWarning` (see docs/catalog.md; the
    guard in ``tests/test_deprecation_lint.py`` keeps new code off it).

    Args:
        relation: the :class:`~repro.serving.relation.Relation` to serve
            (or, deprecated, a bare :class:`~repro.relational.table.Table`
            combined with ``statistics``).
        statistics: deprecated — seed workload statistics when ``relation``
            is a bare table.  Must be None when a Relation is passed.
        config: categorizer tunables, fixed for the service's lifetime.
        technique: key into :data:`TECHNIQUES`.
        batch_size: ingestion batch per epoch publish.
        cache_capacity / cache_ttl_s: result-cache sizing.
        faults: shared fault injector for every component.
        clock: monotonic time source (injectable for tests).
        retry / breaker / spill_limit: ingestion-resilience knobs, passed
            through to :class:`~repro.serving.retry.ResilientIngestor`.
        level_cost_hint_s: seed for the ladder's level-cost estimate.
        journal: durable spill journal override; defaults to the
            relation's own journal (docs/serving.md, "Durability & warm
            start").
        initial_epoch: epoch override; defaults to the relation's
            ``initial_epoch`` (non-zero on a warm start resuming a
            persisted epoch).
    """

    def __init__(
        self,
        relation: Relation | Table,
        statistics: WorkloadStatistics | None = None,
        config: CategorizerConfig = PAPER_CONFIG,
        technique: str = "cost-based",
        batch_size: int = 64,
        cache_capacity: int = 128,
        cache_ttl_s: float = 300.0,
        faults: FaultInjector | None = None,
        clock: Callable[[], float] = time.monotonic,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        spill_limit: int = 1024,
        level_cost_hint_s: float = 0.0,
        journal: SpillJournal | None = None,
        initial_epoch: int = 0,
    ) -> None:
        if technique not in TECHNIQUES:
            raise ValueError(
                f"unknown technique {technique!r}; choose from {sorted(TECHNIQUES)}"
            )
        if isinstance(relation, Relation):
            if statistics is not None:
                raise TypeError(
                    "statistics travels inside the Relation; "
                    "do not pass it separately"
                )
            if journal is None:
                journal = relation.journal
            if initial_epoch == 0:
                initial_epoch = relation.initial_epoch
        else:
            # Deprecation shim: the pre-catalog single-table constructor.
            if statistics is None:
                raise TypeError(
                    "CategorizationService(table, ...) needs statistics"
                )
            warnings.warn(
                "CategorizationService(table, statistics) is deprecated; "
                "pass a repro.serving.relation.Relation instead "
                "(docs/catalog.md)",
                DeprecationWarning,
                stacklevel=2,
            )
            relation = Relation(
                table=relation,
                statistics=statistics,
                journal=journal,
                initial_epoch=initial_epoch,
            )
        statistics = relation.statistics
        self.relation = relation
        self.table = relation.table
        self.namespace = relation.namespace
        self.config = config
        self.technique = technique
        self._faults = faults or NULL_INJECTOR
        self._clock = clock
        self.store = SnapshotStore(
            statistics,
            batch_size=batch_size,
            clock=clock,
            faults=self._faults,
            initial_epoch=initial_epoch,
        )
        self.journal = journal
        self.ingestor = ResilientIngestor(
            self.store,
            retry=retry,
            breaker=breaker or CircuitBreaker(clock=clock),
            spill_limit=spill_limit,
            journal=journal,
        )
        self._warm_start = False
        self._snapshot_epoch = initial_epoch
        self._replayed_on_boot = 0
        perf.gauge("serve.warm_start", 0, table=self.name)
        self.ladder = DegradationLadder(
            faults=self._faults, level_cost_hint_s=level_cost_hint_s
        )
        self.cache = ResultCache(
            capacity=cache_capacity,
            ttl_s=cache_ttl_s,
            clock=clock,
            faults=self._faults,
        )
        self._trace_ids = itertools.count(1)

    @property
    def name(self) -> str:
        """The served relation's name (the table's schema name)."""
        return self.relation.name

    # -- read path -----------------------------------------------------------

    def new_trace_id(self) -> str:
        """Allocate the next request trace id (thread-safe).

        Front ends call this *before* dispatching so the id exists even
        for requests that never reach :meth:`categorize` (shed 503s carry
        an ``X-Trace-Id`` too), then pass it through ``trace_id=``.
        """
        return f"req-{next(self._trace_ids):06d}"

    def categorize(
        self,
        sql: str,
        deadline_ms: float | None = None,
        budget: str = RUNG_FULL,
        collect_trace: bool = False,
        trace_id: str | None = None,
    ) -> ServeResult:
        """Serve one categorization request.

        Args:
            sql: the SELECT to categorize the results of.
            deadline_ms: time budget; the ladder degrades to fit it.
            budget: the *best* rung the caller will pay for — ``full``
                (default), ``single_level`` (skip the deep build), or
                ``showtuples`` (no categorization at all); a way to cap
                cost independent of wall-clock.
            collect_trace: attach a PR 3 decision trace (stamped with the
                request's trace id and the served rung).
            trace_id: caller-assigned request id (front ends allocate via
                :meth:`new_trace_id` so shed requests share the same id
                space); None allocates one here.

        Raises:
            InvalidRequest: malformed SQL / unknown table / bad deadline.
                The only exception this method lets escape.
        """
        perf.count("serve.requests")
        with perf.span("serve.request"):
            deadline = self._validated_deadline(deadline_ms)
            self._validate_budget(budget)
            query, normalized_sql = self._parse(sql)
            epoch = self.store.pin()
            return self._serve_pinned(
                query,
                normalized_sql,
                epoch,
                deadline,
                budget,
                collect_trace,
                trace_id=trace_id,
            )

    def categorize_many(
        self,
        sqls: Sequence[str],
        deadline_ms: float | None = None,
        budget: str = RUNG_FULL,
        collect_trace: bool = False,
        trace_id: str | None = None,
    ) -> list[ServeResult]:
        """Serve a batch of categorization requests against ONE epoch.

        The whole batch is validated up front (any malformed statement
        fails the batch before any work is done), then a single statistics
        epoch is pinned and shared, so every response is mutually
        consistent — a concurrent ``record_query`` publish cannot land
        between two queries of the same batch.  ``deadline_ms`` is a
        budget for the **whole batch**: one shared
        :class:`~repro.serving.degrade.Deadline` spans all queries, so
        later queries degrade harder as earlier ones spend the budget
        (bottoming out at SHOWTUPLES, never raising).

        Args:
            sqls: the SELECT statements to categorize; order is preserved
                in the returned results.
            deadline_ms: time budget shared across the batch.
            budget: best rung any query of the batch may be served at.
            collect_trace: attach decision traces, as in :meth:`categorize`.
            trace_id: the batch's root id; statement N is traced as
                ``<root>#N`` so telemetry joins the whole batch to one
                request (the root also decides sampling for the batch).

        Raises:
            InvalidRequest: empty batch, bad deadline/budget, or any
                statement that fails parsing/validation — the message
                names the failing position.
        """
        if not sqls:
            raise InvalidRequest("batch needs at least one statement", reason="sql")
        perf.count("serve.batch_requests")
        perf.count("serve.requests", len(sqls))
        with perf.span("serve.batch"):
            deadline = self._validated_deadline(deadline_ms)
            self._validate_budget(budget)
            parsed = []
            for position, sql in enumerate(sqls):
                try:
                    parsed.append(self._parse(sql))
                except InvalidRequest as exc:
                    raise InvalidRequest(
                        f"batch statement {position}: {exc}", reason=exc.reason
                    ) from exc
            epoch = self.store.pin()
            batch_id = trace_id or self.new_trace_id()
            return [
                self._serve_pinned(
                    query,
                    normalized_sql,
                    epoch,
                    deadline,
                    budget,
                    collect_trace,
                    trace_id=f"{batch_id}#{position}",
                )
                for position, (query, normalized_sql) in enumerate(parsed)
            ]

    def result_key(self, epoch_number: int, normalized_sql: str) -> str:
        """The canonical result identity: cache key and singleflight key.

        The backend tag keeps cache entries honest when a service is
        rebuilt over the same data on a different storage backend:
        RowSets in cached trees are index views into one specific table.
        The async front end uses the same key shape to coalesce identical
        in-flight requests (docs/serving.md); the leading namespace keeps
        keys disjoint across a catalog's relations, which all share one
        singleflight map.
        """
        return (
            f"{self.namespace}:{epoch_number}:{self.technique}:"
            f"{self.table.backend_name}:{normalized_sql}"
        )

    def coalescing_key(self, sql: str) -> str:
        """Singleflight key for ``sql`` against the *current* epoch.

        Two requests with the same coalescing key would compute identical
        full-rung results, so a front end may serve both from one
        computation.  The epoch may advance between key computation and
        execution; that only splits a coalescable pair (each still pins a
        consistent epoch), never merges requests that should differ.

        Raises:
            InvalidRequest: malformed SQL or unknown table, exactly as
                :meth:`categorize` would — front ends can validate before
                admitting the request.
        """
        _, normalized_sql = self._parse(sql)
        return self.result_key(self.store.epoch_number, normalized_sql)

    def _serve_pinned(
        self,
        query: Any,
        normalized_sql: str,
        epoch: Any,
        deadline: Deadline,
        budget: str,
        collect_trace: bool,
        trace_id: str | None = None,
    ) -> ServeResult:
        """Serve one already-parsed request against a pinned epoch.

        The telemetry shell around :meth:`_compute_pinned`: when a
        pipeline is installed and this trace samples in, it ships a
        ``service`` event — plus a ``decision`` digest for freshly
        computed trees.
        With nothing installed this adds one global load and a branch.
        """
        if trace_id is None:
            trace_id = self.new_trace_id()
        pipeline = telemetry.active()
        if pipeline is None or not pipeline.sampled(trace_id):
            return self._compute_pinned(
                query, normalized_sql, epoch, deadline, budget, collect_trace,
                trace_id,
            )
        # Sampled: optionally force trace collection so the sink gets the
        # tree's reasoning, not just its shape.  Cache hits skip the
        # build entirely, so the forced collection only costs on misses.
        collect = collect_trace or pipeline.collect_decisions
        result = self._compute_pinned(
            query, normalized_sql, epoch, deadline, budget, collect, trace_id
        )
        tree = result.tree
        pipeline.emit(
            telemetry.SERVICE,
            trace_id,
            table=self.table.schema.name,
            technique=self.technique,
            backend=self.table.backend_name,
            sql=result.sql,
            rung=result.rung,
            epoch=result.epoch,
            cached=result.cached,
            elapsed_ms=round(result.elapsed_ms, 3),
            rows=len(result.rows),
            **_tree_digest(tree),
            degraded=result.degraded.reason if result.degraded else None,
        )
        # Decision events only for freshly computed trees: a cache hit
        # would re-ship a trace recorded under another request's id.
        if not result.cached and tree is not None and tree.decision_trace is not None:
            pipeline.emit(
                telemetry.DECISION,
                trace_id,
                **telemetry.decision_digest(tree.decision_trace),
            )
        return result

    def _compute_pinned(
        self,
        query: Any,
        normalized_sql: str,
        epoch: Any,
        deadline: Deadline,
        budget: str,
        collect_trace: bool,
        trace_id: str,
    ) -> ServeResult:
        """Cache lookup, query execution, and the degradation ladder."""
        started = self._clock()
        cache_key = self.result_key(epoch.number, normalized_sql)
        if budget == RUNG_FULL:
            hit = self.cache.get(cache_key)
            if hit is not None:
                perf.count("serve.rung", rung=RUNG_FULL)
                return ServeResult(
                    trace_id=trace_id,
                    sql=normalized_sql,
                    rung=RUNG_FULL,
                    epoch=epoch.number,
                    rows=hit.rows,
                    tree=hit.tree,
                    cached=True,
                    elapsed_ms=(self._clock() - started) * 1000.0,
                )

        rows = query.execute(self.table)
        if budget == RUNG_SHOWTUPLES:
            perf.count("serve.rung", rung=RUNG_SHOWTUPLES)
            return ServeResult(
                trace_id=trace_id,
                sql=normalized_sql,
                rung=RUNG_SHOWTUPLES,
                epoch=epoch.number,
                rows=rows,
                degraded=Degraded(RUNG_SHOWTUPLES, "budget"),
                elapsed_ms=(self._clock() - started) * 1000.0,
            )

        categorizer = TECHNIQUES[self.technique](epoch.statistics, self.config)
        tree, rung, degraded = self.ladder.categorize(
            categorizer,
            rows,
            query,
            deadline,
            collect_trace=collect_trace,
            max_rung=budget,
        )
        if tree is not None and tree.decision_trace is not None:
            tree.decision_trace.trace_id = trace_id
        if rung == RUNG_FULL and tree is not None:
            self.cache.put(cache_key, tree, rows)
        return ServeResult(
            trace_id=trace_id,
            sql=normalized_sql,
            rung=rung,
            epoch=epoch.number,
            rows=rows,
            tree=tree,
            degraded=degraded,
            elapsed_ms=(self._clock() - started) * 1000.0,
        )

    # -- write path ----------------------------------------------------------

    def record_query(self, sql: str) -> None:
        """Ingest one logged query into the workload statistics.

        Raises:
            InvalidRequest: the SQL does not parse or normalize.
            IngestionStalled: breaker open and the spill log is full.
        """
        query, _ = self._parse(sql)
        try:
            entry = WorkloadQuery.from_query(query)
        except ValueError as exc:
            raise InvalidRequest(f"unnormalizable query: {exc}", reason="sql") from exc
        self._faults.fire("ingest.record")
        self.ingestor.record_query(entry)

    def flush(self) -> None:
        """Replay spill and publish everything pending."""
        self.ingestor.flush()

    # -- durability ----------------------------------------------------------

    def mark_boot(self, warm_start: bool, snapshot_epoch: int | None = None) -> None:
        """Record how this service booted (for /healthz and /metrics).

        Called by the CLI after the cold/warm decision; ``warm_start``
        drives the ``serve.warm_start`` gauge the integration tests use
        to prove a restart actually skipped regeneration.
        """
        self._warm_start = warm_start
        if snapshot_epoch is not None:
            self._snapshot_epoch = snapshot_epoch
        perf.gauge("serve.warm_start", 1 if warm_start else 0, table=self.name)

    def recover_from_journal(self, after_seq: int = 0) -> int:
        """Replay journal records past ``after_seq`` into the statistics.

        Each replayed record counts as recorded (it was acknowledged in a
        previous process life) but is NOT re-journaled — it is already
        durable.  The batch publishes at the end; a failing publish
        leaves the replayed queries pending, which still conserves.

        Returns:
            How many records were folded back in.
        """
        if self.journal is None:
            return 0
        count = 0
        with perf.span("journal.replay"):
            for _seq, sql in self.journal.replay(after_seq):
                try:
                    query = parse_query(sql)
                    entry = WorkloadQuery.from_query(query)
                except (SqlError, ValueError):
                    # A journaled statement this build cannot parse
                    # (format drift) is counted, never fatal: recovery
                    # must bring the server up.
                    perf.count("journal.replay_errors")
                    continue
                self.ingestor.restore(entry)
                count += 1
            if count:
                try:
                    self.ingestor.flush()
                except PublishError:
                    pass  # replayed queries stay safely pending
        self._replayed_on_boot += count
        if count:
            perf.count("journal.replayed", count)
        return count

    # -- introspection -------------------------------------------------------

    @property
    def epoch_number(self) -> int:
        return self.store.epoch_number

    def health(self) -> dict[str, Any]:
        """Liveness summary for the /healthz endpoint and `repro request`."""
        journal = self.journal
        return {
            "table": self.name,
            "namespace": self.namespace,
            "epoch": self.store.epoch_number,
            "pending": self.store.pending_count,
            "breaker": self.ingestor.breaker.state,
            "spilled": self.ingestor.spilled,
            "recorded": self.ingestor.recorded,
            "published": self.ingestor.published,
            "cache_entries": len(self.cache),
            "table_rows": len(self.table),
            "backend": self.table.backend_name,
            "durability": {
                "journal": journal is not None,
                "journal_segments": journal.segment_count if journal else 0,
                "journal_bytes": journal.size_bytes if journal else 0,
                "journal_last_seq": journal.last_seq if journal else 0,
                "journal_truncated_records": (
                    journal.truncated_records if journal else 0
                ),
                "replayed_on_boot": self._replayed_on_boot,
                "warm_start": self._warm_start,
                "snapshot_epoch": self._snapshot_epoch,
            },
        }

    # -- helpers -------------------------------------------------------------

    def _validated_deadline(self, deadline_ms: float | None) -> Deadline:
        try:
            return Deadline(deadline_ms, clock=self._clock)
        except ValueError as exc:
            raise InvalidRequest(str(exc), reason="deadline") from exc

    def _validate_budget(self, budget: str) -> None:
        if budget not in RUNGS:
            raise InvalidRequest(
                f"unknown budget rung {budget!r}; choose from {RUNGS}",
                reason="budget",
            )

    def _parse(self, sql: str):
        try:
            query = parse_query(sql)
        except SqlError as exc:
            perf.count("serve.errors", reason="sql")
            raise InvalidRequest(f"bad SQL: {exc}", reason="sql") from exc
        if query.table_name != self.table.schema.name:
            perf.count("serve.errors", reason="table")
            raise UnknownTable(query.table_name, (self.table.schema.name,))
        try:
            normalized_sql = format_query(query.normalized())
        except ValueError:
            normalized_sql = format_query(query)
        return query, normalized_sql
