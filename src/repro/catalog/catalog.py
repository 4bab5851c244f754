"""The multi-relation catalog: one process, many relations.

A :class:`Catalog` maps relation names to
:class:`~repro.serving.service.CategorizationService` instances — each
with its own :class:`~repro.serving.snapshot.SnapshotStore` epochs,
workload statistics, result-cache namespace, spill journal, and
warm-start snapshot directory.  The HTTP front end holds a catalog
(wrapping a lone service in one when needed) and resolves every request's
``table=`` through it; a request that names no table falls back to the
catalog's **default relation** and is answered with a ``Deprecation``
response header (docs/catalog.md).

Cross-relation sharing is deliberately minimal:

* **trace ids** come from one process-wide counter here, so telemetry
  never sees two tables minting the same ``req-000001``;
* everything else — epochs, caches, journals, snapshots — is
  per-relation, which the isolation tests in ``tests/catalog/`` pin
  down (recording into A never moves B's epoch, keys never collide).

Durability is per relation too: :func:`open_catalog` gives each dataset
its own state directory ``<root>/<table>/`` holding ``journal/`` and the
``table.snap``/``stats.snap`` pair, replays each journal past its own
watermark, and :func:`persist_relation` checkpoints them independently.
"""

from __future__ import annotations

import itertools
import sys
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro import perf
from repro.catalog.descriptor import DatasetDescriptor
from repro.serving.errors import PublishError, UnknownTable
from repro.serving.journal import SpillJournal
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService
from repro.serving.warmstart import (
    TABLE_SNAPSHOT,
    SnapshotMismatch,
    load_warm,
    write_stats_snapshot,
    write_table_snapshot,
)


class Catalog:
    """Name → service registry with a default relation.

    The first relation added becomes the default unless one was named at
    construction; the default is what legacy table-less requests resolve
    to.  Reads are lock-free after setup (the dict is only mutated by
    :meth:`add`, expected at boot); trace-id allocation takes a lock so
    ids stay unique across tables and front-end threads.
    """

    def __init__(self, default: str | None = None) -> None:
        self._services: dict[str, CategorizationService] = {}
        self._default = default
        self._trace_ids = itertools.count(1)
        self._lock = threading.Lock()

    @classmethod
    def of(
        cls,
        *services: CategorizationService,
        default: str | None = None,
    ) -> "Catalog":
        catalog = cls(default=default)
        for service in services:
            catalog.add(service)
        return catalog

    def add(self, service: CategorizationService) -> CategorizationService:
        name = service.name
        if name in self._services:
            raise ValueError(f"catalog already holds a relation named {name!r}")
        self._services[name] = service
        return service

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._services)

    def __contains__(self, name: object) -> bool:
        return name in self._services

    def __iter__(self) -> Iterator[str]:
        return iter(self._services)

    def names(self) -> tuple[str, ...]:
        return tuple(self._services)

    def services(self) -> tuple[CategorizationService, ...]:
        return tuple(self._services.values())

    @property
    def default_name(self) -> str:
        if not self._services:
            raise ValueError("empty catalog has no default relation")
        if self._default is not None:
            if self._default not in self._services:
                raise UnknownTable(self._default, self.names())
            return self._default
        return next(iter(self._services))

    @property
    def default(self) -> CategorizationService:
        return self._services[self.default_name]

    def get(self, name: str) -> CategorizationService:
        """Look up one relation by name.

        Raises:
            UnknownTable: the catalog holds no relation named ``name``.
        """
        try:
            return self._services[name]
        except KeyError:
            raise UnknownTable(name, self.names()) from None

    def resolve(
        self, name: str | None
    ) -> tuple[CategorizationService, bool]:
        """Resolve a request's table to a service.

        Returns ``(service, defaulted)`` — ``defaulted`` is True when the
        request named no table and fell back to the default relation, the
        condition the front end answers with a ``Deprecation`` header.

        Raises:
            UnknownTable: a table was named but is not in the catalog.
        """
        if name is None:
            return self.default, True
        return self.get(name), False

    # -- shared state --------------------------------------------------------

    def new_trace_id(self) -> str:
        """Allocate the next trace id — one sequence for the whole catalog."""
        with self._lock:
            return f"req-{next(self._trace_ids):06d}"

    # -- aggregate operations ------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Per-table health, plus which relation answers by default."""
        return {
            "default_table": self.default_name if self._services else None,
            "tables": {
                name: service.health()
                for name, service in self._services.items()
            },
        }

    def record_gauges(self) -> None:
        """Publish per-table gauges (called at /metrics scrape time)."""
        for name, service in self._services.items():
            perf.gauge("serve.epoch", service.epoch_number, table=name)
            perf.gauge("serve.pending", service.store.pending_count, table=name)
            perf.gauge("serve.cache_entries", len(service.cache), table=name)
            perf.gauge("serve.table_rows", len(service.table), table=name)

    def flush(self) -> None:
        for service in self._services.values():
            service.flush()

    def persist(self) -> None:
        """Checkpoint every relation that has durable state armed."""
        for service in self._services.values():
            persist_relation(service)

    def close(self) -> None:
        """Close every relation's journal (idempotent)."""
        for service in self._services.values():
            if service.journal is not None:
                service.journal.close()


# -- opening relations -------------------------------------------------------


def open_relation(
    descriptor: DatasetDescriptor,
    state_root: Path | None = None,
    journal_fsync: str = "always",
) -> Relation:
    """Open one relation, warm when its snapshots check out.

    With ``state_root`` set, the relation's durable state lives under
    ``state_root/<name>/`` — its own journal and snapshot pair, fully
    independent of every other relation's.  A snapshot that fails any
    check boots the relation cold (``warmstart.fallback``) and the
    journal replays from sequence 0; other relations are unaffected.
    """
    if state_root is None:
        table, statistics = descriptor.build()
        return Relation(
            table=table,
            statistics=statistics,
            namespace=descriptor.namespace,
        )
    state_dir = Path(state_root) / descriptor.name
    journal = SpillJournal(state_dir / "journal", fsync=journal_fsync)
    try:
        warm = load_warm(
            descriptor.load_schema(),
            state_dir,
            backend=descriptor.backend,
        )
    except SnapshotMismatch as exc:
        # Fail-stop honesty: a snapshot that does not fully check out is
        # never served.  Count why, boot cold, replay everything.
        perf.count("warmstart.fallback", reason=exc.reason, table=descriptor.name)
        table, statistics = descriptor.build()
        return Relation(
            table=table,
            statistics=statistics,
            namespace=descriptor.namespace,
            journal=journal,
            state_dir=state_dir,
            warm=False,
        )
    return Relation(
        table=warm.table,
        statistics=warm.statistics,
        namespace=descriptor.namespace,
        journal=journal,
        initial_epoch=warm.epoch,
        replay_after=warm.journal_seq,
        state_dir=state_dir,
        warm=True,
    )


def open_catalog(
    descriptors: Iterable[DatasetDescriptor],
    default: str | None = None,
    state_root: Path | None = None,
    journal_fsync: str = "always",
    service_options: Mapping[str, Any] | None = None,
) -> Catalog:
    """Open every descriptor into one serving catalog.

    Each relation is built (warm or cold), wrapped in a service, its
    journal replayed past its own watermark, and — when durability is
    armed — immediately re-persisted so the *next* boot is warm and
    replays (close to) nothing.  ``service_options`` are shared service
    knobs (batch_size, cache sizing...); the technique comes from each
    descriptor.

    On any failure the relations opened so far are closed again —
    half-open journals must not leak lock files.
    """
    catalog = Catalog(default=default)
    options = dict(service_options or {})
    try:
        for descriptor in descriptors:
            relation = open_relation(
                descriptor, state_root=state_root, journal_fsync=journal_fsync
            )
            service = CategorizationService(
                relation, technique=descriptor.technique, **options
            )
            if relation.journal is not None:
                service.mark_boot(relation.warm, snapshot_epoch=relation.initial_epoch)
                service.recover_from_journal(after_seq=relation.replay_after)
                persist_relation(service)
            catalog.add(service)
        catalog.default_name  # validate an explicit default actually exists
    except BaseException:
        catalog.close()
        raise
    return catalog


def persist_relation(service: CategorizationService) -> bool:
    """Snapshot one relation's epoch and checkpoint its journal behind it.

    Only safe when nothing is pending: the stats snapshot's watermark
    claims every journal record up to ``journal.last_seq`` is folded in,
    which a pending (unpublished) query would falsify.  Returns False —
    leaving the previous snapshot and watermark untouched, so no query
    can be lost — when durability is off for this relation, a failed
    publish keeps queries pending, or a snapshot write fails.
    """
    journal = service.journal
    directory = service.relation.state_dir
    if journal is None or directory is None:
        return False
    try:
        service.flush()
    except PublishError:
        return False
    if service.store.pending_count:
        return False
    try:
        if not (directory / TABLE_SNAPSHOT).exists():
            write_table_snapshot(service.table, directory)
        epoch = service.store.pin()
        write_stats_snapshot(
            epoch.statistics, directory, epoch.number, journal.last_seq
        )
        journal.checkpoint(journal.last_seq)
    except OSError as exc:
        print(
            f"warning: could not persist durable state for "
            f"{service.name}: {exc}",
            file=sys.stderr,
        )
        return False
    return True
