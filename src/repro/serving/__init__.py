"""Fault-tolerant serving layer over the categorization pipeline.

The offline reproduction runs once and exits; this package turns it into
a long-lived service (the setting the paper assumes — categorization
inside an interactive search front end) that stays correct and available
under concurrent ingestion, deadlines, and injected faults:

* :mod:`~repro.serving.service` — the request/response front end with
  trace ids and an LRU+TTL result cache.
* :mod:`~repro.serving.snapshot` — epoch-based statistics snapshots:
  readers pin immutable epochs, writers batch and publish atomically,
  and a failed publish stays pending for the next one.
* :mod:`~repro.serving.degrade` — deadlines and the degradation ladder
  (full → truncated → single level → SHOWTUPLES).
* :mod:`~repro.serving.errors` — the typed exception taxonomy.
* :mod:`~repro.serving.faults` — deterministic fault injection.
* :mod:`~repro.serving.aserve` — the HTTP front end behind `repro serve`:
  an asyncio keep-alive event loop with in-flight request coalescing and
  admission control / load shedding.
* :mod:`~repro.serving.loadgen` — the closed-loop load generator
  (`repro loadgen`).
* :mod:`~repro.serving.journal` — the write-ahead spill journal that
  makes acked ingestion survive process death; a record it refuses is
  never acked.
* :mod:`~repro.serving.warmstart` — snapshot pair (table + statistics)
  behind `repro serve --warm-start`.
* :mod:`~repro.serving.relation` — the per-relation state bundle
  (table, statistics, namespace, journal) a
  :class:`~repro.catalog.catalog.Catalog` builds one of per dataset
  (docs/catalog.md).

See ``docs/serving.md`` for the design, including the "Durability &
warm start" section covering the crash-safety layer.
"""

from repro.serving.aserve import (
    AdmissionGate,
    AsyncFrontEnd,
    AsyncServerHandle,
    Overloaded,
    Singleflight,
    start_in_thread,
)
from repro.serving.degrade import (
    RUNG_FULL,
    RUNG_SHOWTUPLES,
    RUNG_SINGLE_LEVEL,
    RUNG_TRUNCATED,
    RUNGS,
    Deadline,
    DegradationLadder,
)
from repro.serving.errors import (
    ERROR_CODES,
    Degraded,
    DeadlineExceeded,
    IngestionStalled,
    InvalidRequest,
    PublishError,
    ServingError,
    UnknownTable,
    error_payload,
    error_response,
)
from repro.serving.faults import (
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
)
from repro.serving.journal import FSYNC_POLICIES, SpillJournal
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService, ResultCache, ServeResult
from repro.serving.snapshot import EpochSnapshot, SnapshotStore
from repro.serving.warmstart import (
    SnapshotMismatch,
    WarmState,
    load_warm,
    write_stats_snapshot,
    write_table_snapshot,
)

from repro.serving.loadgen import DEFAULT_MIX, LoadReport, run_loadgen

__all__ = [
    "RUNG_FULL",
    "RUNG_SHOWTUPLES",
    "RUNG_SINGLE_LEVEL",
    "RUNG_TRUNCATED",
    "RUNGS",
    "AdmissionGate",
    "AsyncFrontEnd",
    "AsyncServerHandle",
    "DEFAULT_MIX",
    "ERROR_CODES",
    "LoadReport",
    "Overloaded",
    "Singleflight",
    "run_loadgen",
    "start_in_thread",
    "CategorizationService",
    "Deadline",
    "DeadlineExceeded",
    "Degraded",
    "DegradationLadder",
    "EpochSnapshot",
    "FaultInjector",
    "FaultSpec",
    "FSYNC_POLICIES",
    "IngestionStalled",
    "InjectedCrash",
    "InjectedFault",
    "InvalidRequest",
    "PublishError",
    "Relation",
    "ResultCache",
    "ServeResult",
    "ServingError",
    "SnapshotMismatch",
    "SnapshotStore",
    "SpillJournal",
    "UnknownTable",
    "WarmState",
    "error_payload",
    "error_response",
    "load_warm",
    "write_stats_snapshot",
    "write_table_snapshot",
]
