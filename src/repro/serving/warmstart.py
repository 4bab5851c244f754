"""Warm-start snapshots: persist a table + statistics epoch, reload fast.

Cold boot pays two big bills: materializing the relation (CSV parse or
synthetic generation, per-value coercion) and building the workload
statistics.  Both are pure functions of state that the serving layer
already holds, so ``repro serve --warm-start DIR`` persists them once and
a restarted server resumes from disk:

* ``table.snap`` — the relation's :class:`ColumnStore
  <repro.relational.backends.ColumnStore>` typed arrays + dictionaries
  (``ColumnStore.dump``); loading is a handful of ``frombytes`` memcpys.
* ``stats.snap`` — the current statistics epoch: every count table, the
  packed range-index endpoint arrays, the epoch number, and the **journal
  watermark** — the :class:`~repro.serving.journal.SpillJournal` sequence
  this snapshot covers.  Queries recorded after the watermark live only
  in the journal and are replayed on top of the loaded statistics.
* ``journal/`` — the spill journal itself (owned by
  :mod:`repro.serving.journal`).

The decision table lives in docs/serving.md; the contract here is
fail-stop honesty: :func:`load_warm` either returns state whose every
CRC, version, and schema fingerprint checked out, or raises
:class:`~repro.relational.snapio.SnapshotMismatch` — the caller counts
the fallback (``warmstart.fallback{reason=...}``) and boots cold.  A
snapshot is never "partially" trusted.

Both snapshot files are written atomically (temp + fsync + rename); the
``warmstart.rename`` fault site fires between the two so crash tests can
die with the temp file on disk and prove the old snapshot still serves.
"""

from __future__ import annotations

from array import array
from collections import Counter
from pathlib import Path
from typing import Any

from repro import perf
from repro.relational.backends import (
    DEFAULT_BACKEND,
    ColumnStore,
    schema_fingerprint,
)
from repro.relational.schema import TableSchema
from repro.relational.snapio import (
    Container,
    SnapshotMismatch,
    base_manifest,
    write_container,
)
from repro.relational.table import Table
from repro.serving.faults import NULL_INJECTOR, FaultInjector
from repro.workload.counts import (
    AttributeUsageCounts,
    OccurrenceCounts,
    RangeIndex,
    SplitPointsTable,
)
from repro.workload.preprocess import WorkloadStatistics

TABLE_SNAPSHOT = "table.snap"
STATS_SNAPSHOT = "stats.snap"

#: Bump when the statistics manifest/block layout changes.
STATS_FORMAT_VERSION = 1


class WarmState:
    """Everything :func:`load_warm` recovered from a snapshot directory."""

    __slots__ = ("table", "statistics", "epoch", "journal_seq")

    def __init__(
        self,
        table: Table,
        statistics: WorkloadStatistics,
        epoch: int,
        journal_seq: int,
    ) -> None:
        self.table = table
        self.statistics = statistics
        self.epoch = epoch
        self.journal_seq = journal_seq


# -- write side --------------------------------------------------------------


def _columnar_store(table: Table) -> ColumnStore:
    """The table's data as a ColumnStore (converting if need be).

    The columnar backend already is one; the row backend pays a one-time
    conversion at snapshot time (coercion already happened on load, so
    this is a straight columnar re-pack).
    """
    backend = table._backend
    if isinstance(backend, ColumnStore):
        return backend
    store = ColumnStore(table.schema)
    store.load_columns(
        {name: table.column(name) for name in table.schema.names()}
    )
    return store


def write_table_snapshot(
    table: Table,
    directory: str | Path,
    faults: FaultInjector | None = None,
) -> Path:
    """Dump the relation to ``DIR/table.snap`` atomically; return the path.

    The relation is immutable while serving (only statistics change), so
    this runs once per cold boot — warm boots find it already on disk.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    injector = faults or NULL_INJECTOR
    path = directory / TABLE_SNAPSHOT
    with perf.span("warmstart.dump_table"):
        _columnar_store(table).dump(
            table.schema,
            path,
            rename_hook=lambda: injector.fire("warmstart.rename"),
        )
    return path


def write_stats_snapshot(
    statistics: WorkloadStatistics,
    directory: str | Path,
    epoch: int,
    journal_seq: int,
    faults: FaultInjector | None = None,
) -> Path:
    """Dump one statistics epoch to ``DIR/stats.snap`` atomically.

    ``journal_seq`` is the watermark: every journal record with a
    sequence <= it is already folded into ``statistics``, so recovery
    replays strictly after it.  Callers pass a *published* epoch's
    statistics (never the live pending state) so the snapshot is
    internally consistent.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    injector = faults or NULL_INJECTOR
    schema = statistics.schema
    manifest = base_manifest("workload_stats", STATS_FORMAT_VERSION)
    manifest["table"] = schema.name
    manifest["schema"] = schema_fingerprint(schema)
    manifest["epoch"] = epoch
    manifest["journal_seq"] = journal_seq
    usage = statistics.usage
    manifest["total_queries"] = usage.total_queries
    manifest["usage"] = dict(usage._counts)
    manifest["occurrences"] = {
        attribute: sorted(
            ([value, count] for value, count in table._counts.items()),
            key=lambda pair: repr(pair[0]),
        )
        for attribute, table in statistics._occurrences.items()
    }
    manifest["splitpoints"] = {
        attribute: {
            "interval": table.separation_interval,
            "starts": sorted(table._starts.items()),
            "ends": sorted(table._ends.items()),
        }
        for attribute, table in statistics._splitpoints.items()
    }
    blocks: list[tuple[str, bytes]] = []
    ranges: list[str] = []
    for attribute, index in statistics._range_indexes.items():
        index.finalize()
        ranges.append(attribute)
        blocks.append((f"lows:{attribute}", index._lows.tobytes()))
        blocks.append((f"highs:{attribute}", index._highs.tobytes()))
    manifest["ranges"] = ranges
    path = directory / STATS_SNAPSHOT
    with perf.span("warmstart.dump_stats"):
        write_container(
            path,
            manifest,
            blocks,
            rename_hook=lambda: injector.fire("warmstart.rename"),
        )
    return path


# -- read side ---------------------------------------------------------------


def _load_statistics(
    schema: TableSchema, path: Path
) -> tuple[WorkloadStatistics, int, int]:
    """Rebuild (statistics, epoch, journal_seq) from ``stats.snap``."""
    with Container(path) as container:
        manifest = container.manifest
        if manifest.get("kind") != "workload_stats":
            raise SnapshotMismatch(
                f"{path}: not a statistics snapshot "
                f"(kind={manifest.get('kind')!r})",
                reason="format",
            )
        if manifest.get("version") != STATS_FORMAT_VERSION:
            raise SnapshotMismatch(
                f"{path}: statistics format version "
                f"{manifest.get('version')} (this build reads "
                f"{STATS_FORMAT_VERSION})",
                reason="version",
            )
        if manifest.get("schema") != schema_fingerprint(schema):
            raise SnapshotMismatch(
                f"{path}: snapshot schema does not match {schema.name!r}",
                reason="schema",
            )
        epoch = manifest.get("epoch")
        journal_seq = manifest.get("journal_seq")
        if not isinstance(epoch, int) or not isinstance(journal_seq, int):
            raise SnapshotMismatch(
                f"{path}: bad epoch/journal_seq "
                f"({epoch!r}/{journal_seq!r})",
                reason="format",
            )
        usage = AttributeUsageCounts()
        usage._counts = Counter(
            {str(k): int(v) for k, v in manifest.get("usage", {}).items()}
        )
        usage._total_queries = int(manifest.get("total_queries", 0))
        occurrences: dict[str, OccurrenceCounts] = {}
        for attribute, pairs in manifest.get("occurrences", {}).items():
            table = OccurrenceCounts(attribute)
            table._counts = Counter(
                {_occ_key(value): int(count) for value, count in pairs}
            )
            occurrences[attribute] = table
        splitpoints: dict[str, SplitPointsTable] = {}
        for attribute, spec in manifest.get("splitpoints", {}).items():
            table = SplitPointsTable(attribute, float(spec["interval"]))
            table._starts = Counter(
                {float(point): int(count) for point, count in spec["starts"]}
            )
            table._ends = Counter(
                {float(point): int(count) for point, count in spec["ends"]}
            )
            splitpoints[attribute] = table
        range_indexes: dict[str, RangeIndex] = {}
        for attribute in manifest.get("ranges", []):
            index = RangeIndex(attribute)
            lows = array("d")
            lows.frombytes(container.block(f"lows:{attribute}"))
            highs = array("d")
            highs.frombytes(container.block(f"highs:{attribute}"))
            if len(lows) != len(highs):
                raise SnapshotMismatch(
                    f"{path}: range index {attribute!r} has {len(lows)} "
                    f"lows but {len(highs)} highs",
                    reason="format",
                )
            index._lows = lows
            index._highs = highs
            index._finalized = True  # dumped post-finalize, still sorted
            range_indexes[attribute] = index
        statistics = WorkloadStatistics(
            schema, usage, occurrences, splitpoints, range_indexes
        )
        return statistics, epoch, journal_seq


def _occ_key(value: Any) -> Any:
    """Occurrence-table keys round-tripped through JSON.

    JSON preserves str/int/float/bool exactly, which is the full set of
    SQL literal types an IN-clause can contain; anything else in a
    snapshot means the format changed without a version bump.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise SnapshotMismatch(
        f"unexpected occurrence key type {type(value).__name__}",
        reason="format",
    )


def load_warm(
    schema: TableSchema,
    directory: str | Path,
    backend: str = DEFAULT_BACKEND,
) -> WarmState:
    """Load a full warm state from a snapshot directory, or fail stop.

    The columnar backend adopts the deserialized store zero-copy; the
    row backend rebuilds from the loaded columns (still far cheaper than
    re-parsing a CSV — coercion is skipped entirely).

    Raises:
        SnapshotMismatch: missing files, CRC/version/schema mismatch —
            the caller falls back to cold start and counts why.
    """
    directory = Path(directory)
    with perf.span("warmstart.load"):
        store, rows = ColumnStore.load(schema, directory / TABLE_SNAPSHOT)
        statistics, epoch, journal_seq = _load_statistics(
            schema, directory / STATS_SNAPSHOT
        )
        if backend == "columnar":
            table = Table.from_backend(schema, store, rows)
        else:
            table = Table.from_columns(
                schema,
                {name: store.column(name) for name in schema.names()},
                backend=backend,
                coerce=False,
            )
    return WarmState(table, statistics, epoch, journal_seq)
