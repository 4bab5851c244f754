"""One relation's bundle of serving state.

A :class:`Relation` is everything a
:class:`~repro.serving.service.CategorizationService` needs to serve one
table: the table itself, its seed workload statistics, the cache /
telemetry namespace, and — when durability is armed — the per-relation
spill journal, the epoch the warm snapshot resumed at, and the directory
the snapshots live in.  The catalog (``repro.catalog``) builds one of
these per dataset descriptor, and it is the only thing a service is
constructed from.

The bundle is deliberately passive: it holds no locks and runs no logic
beyond defaulting, so it can be constructed anywhere (tests, the CLI,
the catalog) without ordering constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.relational.table import Table
from repro.serving.journal import SpillJournal
from repro.workload.preprocess import WorkloadStatistics


@dataclass
class Relation:
    """Everything one table brings to the serving layer.

    Attributes:
        table: the relation queries run against.
        statistics: seed workload statistics (becomes the initial epoch).
        namespace: prefix for result-cache / singleflight keys; defaults
            to the table's schema name.  Distinct namespaces guarantee
            two relations never collide in a shared coalescing map even
            if their epochs and SQL happen to match.
        journal: optional durable spill journal for this relation only.
        initial_epoch: epoch number of the seed statistics (non-zero on
            a warm start resuming a persisted epoch).
        replay_after: journal watermark — replay only records with a
            sequence number strictly greater than this on boot.
        warm: True when ``table``/``statistics`` came from a warm
            snapshot rather than CSV parse + workload preprocessing.
        state_dir: the per-relation durable directory
            (``<root>/<table>/``) holding ``journal/`` and the snapshot
            pair, or None when durability is off.
    """

    table: Table
    statistics: WorkloadStatistics
    namespace: str | None = None
    journal: SpillJournal | None = None
    initial_epoch: int = 0
    replay_after: int = 0
    warm: bool = False
    state_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.namespace is None:
            self.namespace = self.table.schema.name

    @property
    def name(self) -> str:
        """The relation's name — always the table's schema name."""
        return self.table.schema.name
