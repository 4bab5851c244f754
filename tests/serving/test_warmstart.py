"""Warm-start snapshots: roundtrips, fail-stop verification, replay glue.

The contract under test (docs/serving.md, "Durability & warm start"):
``load_warm`` either returns state that is element-identical to what was
dumped — same columns, same count tables, same categorization tree — or
raises :class:`SnapshotMismatch` with a counted reason; and the journal
watermark stitched through ``stats.snap`` makes recovery replay exactly
the records the snapshot does not cover, no matter how many times the
process dies between snapshots.
"""

from __future__ import annotations

import math
from array import array

import pytest

from repro import perf
from repro.catalog import DatasetDescriptor
from repro.catalog.catalog import open_relation
from repro.data.homes import generate_homes
from repro.relational.backends import (
    NUMERIC_DICTIONARY_CAP,
    ColumnStore,
    DictColumn,
    FloatColumn,
    schema_fingerprint,
)
from repro.relational.schema import Attribute, TableSchema
from repro.relational.snapio import (
    Container,
    SnapshotMismatch,
    base_manifest,
    write_container,
)
from repro.relational.table import Table
from repro.relational.types import AttributeKind, DataType
from repro.render.treeview import render_tree
from repro.serving.journal import SpillJournal
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService
from repro.serving.warmstart import (
    STATS_SNAPSHOT,
    TABLE_SNAPSHOT,
    load_warm,
    write_stats_snapshot,
    write_table_snapshot,
)
from tests.serving.conftest import LOG_SQL, SERVE_SQL, conserved

RECORD_SQLS = [
    f"SELECT * FROM ListProperty WHERE bedroomcount = {n % 4 + 1}"
    for n in range(12)
]


def _columns_equal(schema, left: Table, right: Table) -> bool:
    return all(
        list(left.column(name)) == list(right.column(name))
        for name in schema.names()
    )


# -- table snapshot ----------------------------------------------------------


def test_table_snapshot_roundtrips_columnar(tmp_path):
    table = generate_homes(rows=300, seed=11)
    path = write_table_snapshot(table, tmp_path)
    assert path == tmp_path / TABLE_SNAPSHOT
    store, rows = ColumnStore.load(table.schema, path)
    assert rows == len(table)
    loaded = Table.from_store(table.schema, store, rows)
    assert _columns_equal(table.schema, table, loaded)


def test_table_snapshot_preserves_nulls_and_dictionaries(tmp_path):
    schema = TableSchema(
        "Mixed",
        (
            Attribute("city", DataType.TEXT, AttributeKind.CATEGORICAL),
            Attribute("price", DataType.INT, AttributeKind.NUMERIC),
            Attribute("score", DataType.FLOAT, AttributeKind.NUMERIC),
        ),
    )
    table = Table.from_columns(
        schema,
        {
            "city": ["seattle", None, "bellevue", "seattle", None],
            "price": [100, None, 300, None, 500],
            "score": [1.5, 2.5, None, 4.5, None],
        },
    )
    write_table_snapshot(table, tmp_path)
    store, rows = ColumnStore.load(schema, tmp_path / TABLE_SNAPSHOT)
    loaded = Table.from_store(schema, store, rows)
    assert _columns_equal(schema, table, loaded)


def test_table_snapshot_keeps_code_widths_raw_columns_and_signs(tmp_path):
    schema = TableSchema(
        "Edges",
        (
            Attribute("wide", DataType.INT, AttributeKind.NUMERIC),
            Attribute("raw", DataType.FLOAT, AttributeKind.NUMERIC),
            Attribute("score", DataType.FLOAT, AttributeKind.NUMERIC),
        ),
    )
    rows = NUMERIC_DICTIONARY_CAP + 1
    scores = [0.0, -0.0, math.nan, math.inf, -math.inf, None, 1.5]
    table = Table.from_columns(
        schema,
        {
            "wide": [n % 300 for n in range(rows)],  # 300 values: 2-byte codes
            "raw": [n / 7 for n in range(rows)],  # past the cap: raw
            "score": [scores[n % len(scores)] for n in range(rows)],
        },
    )
    assert isinstance(table.column("raw"), FloatColumn)
    write_table_snapshot(table, tmp_path)
    with Container(tmp_path / TABLE_SNAPSHOT) as container:
        entries = {e["name"]: e for e in container.manifest["columns"]}
    assert container.manifest["version"] == ColumnStore.FORMAT_VERSION == 2
    assert entries["wide"]["typecode"] == "H"
    assert entries["score"]["typecode"] == "B"
    assert entries["raw"] == {"name": "raw", "layout": "num", "typecode": "d"}
    store, rows_loaded = ColumnStore.load(schema, tmp_path / TABLE_SNAPSHOT)
    loaded = Table.from_store(schema, store, rows_loaded)
    assert isinstance(loaded.column("score"), DictColumn)
    assert isinstance(loaded.column("raw"), FloatColumn)
    for name in schema.names():
        assert list(map(repr, loaded.column(name))) == list(
            map(repr, table.column(name))
        )
    # The rebuilt dictionary keys NaN and -0.0 apart, as a write does.
    assert loaded.column("score")[2] is math.nan
    assert loaded.all_rows().count_values("score") == table.all_rows().count_values(
        "score"
    )
    loaded.insert({"wide": 1, "raw": 0.5, "score": -0.0})
    assert math.copysign(1.0, loaded.column("score")[rows]) == -1.0


def _write_format_1_snapshot(table: Table, path) -> None:
    """``table`` as format 1 stored it: INT/FLOAT columns as 8-byte arrays,
    TEXT/BOOL as ``'i'`` codes with -1 for NULL and no typecode."""
    manifest = base_manifest("columnstore", 1)
    manifest["table"] = table.schema.name
    manifest["schema"] = schema_fingerprint(table.schema)
    manifest["rows"] = len(table)
    columns, blocks = [], []
    for attribute in table.schema:
        values = list(table.column(attribute.name))
        if attribute.data_type in (DataType.INT, DataType.FLOAT):
            typecode = "q" if attribute.data_type is DataType.INT else "d"
            columns.append(
                {"name": attribute.name, "layout": "num", "typecode": typecode}
            )
            data = array(typecode, [0 if v is None else v for v in values])
        else:
            decode = list(dict.fromkeys(v for v in values if v is not None))
            columns.append(
                {"name": attribute.name, "layout": "dict", "decode": decode}
            )
            codes = {value: code for code, value in enumerate(decode)}
            data = array("i", [-1 if v is None else codes[v] for v in values])
        blocks.append((f"col:{attribute.name}", data.tobytes()))
    manifest["columns"] = columns
    write_container(path, manifest, blocks)


def test_format_1_snapshot_boots_cold_with_the_same_trees(tmp_path):
    descriptor = DatasetDescriptor(
        name="ListProperty", generator="homes", rows=400, workload_queries=300
    )
    table, statistics = descriptor.build()
    state = tmp_path / "ListProperty"
    state.mkdir()
    _write_format_1_snapshot(table, state / TABLE_SNAPSHOT)
    write_stats_snapshot(statistics, state, epoch=0, journal_seq=0)
    perf.reset()
    perf.enable()
    try:
        relation = open_relation(descriptor, state_root=tmp_path)
    finally:
        perf.disable()
    counters = dict(perf.get().counters)
    perf.reset()
    assert counters["warmstart.fallback{reason=version,table=ListProperty}"] == 1
    assert relation.warm is False
    booted = CategorizationService(relation)
    reference = CategorizationService(Relation(table, statistics))
    try:
        for sql in (SERVE_SQL, LOG_SQL):
            assert render_tree(booted.categorize(sql).tree) == render_tree(
                reference.categorize(sql).tree
            )
    finally:
        relation.journal.close()


def test_table_snapshot_rejects_wrong_schema(tmp_path):
    table = generate_homes(rows=50, seed=13)
    write_table_snapshot(table, tmp_path)
    other = TableSchema(
        "ListProperty",
        (Attribute("price", DataType.INT, AttributeKind.NUMERIC),),
    )
    assert schema_fingerprint(other) != schema_fingerprint(table.schema)
    with pytest.raises(SnapshotMismatch) as excinfo:
        ColumnStore.load(other, tmp_path / TABLE_SNAPSHOT)
    assert excinfo.value.reason == "schema"


def test_corrupted_snapshot_fails_stop_with_crc(tmp_path):
    table = generate_homes(rows=50, seed=13)
    path = write_table_snapshot(table, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(SnapshotMismatch) as excinfo:
        ColumnStore.load(table.schema, path)
    assert excinfo.value.reason == "crc"


def test_missing_snapshot_reports_missing(tmp_path):
    table = generate_homes(rows=10, seed=13)
    with pytest.raises(SnapshotMismatch) as excinfo:
        ColumnStore.load(table.schema, tmp_path / TABLE_SNAPSHOT)
    assert excinfo.value.reason == "missing"


# -- statistics snapshot -----------------------------------------------------


def test_stats_snapshot_roundtrips_the_tree(homes_table, statistics, tmp_path):
    """Warm-loaded statistics must categorize identically to the source."""
    cold = CategorizationService(Relation(homes_table, statistics.copy()))
    for sql in RECORD_SQLS:
        cold.record_query(sql)
    cold.flush()
    epoch = cold.store.pin()
    write_table_snapshot(homes_table, tmp_path)
    write_stats_snapshot(epoch.statistics, tmp_path, epoch.number, journal_seq=0)

    warm = load_warm(homes_table.schema, tmp_path)
    assert warm.epoch == epoch.number
    assert warm.journal_seq == 0
    assert warm.statistics.total_queries == epoch.statistics.total_queries

    warmed = CategorizationService(
        Relation(warm.table, warm.statistics, initial_epoch=warm.epoch)
    )
    for sql in (SERVE_SQL, LOG_SQL):
        reference = cold.categorize(sql)
        restored = warmed.categorize(sql)
        assert restored.epoch == reference.epoch
        assert restored.rows.indices == reference.rows.indices
        assert render_tree(restored.tree) == render_tree(reference.tree)


def test_stats_snapshot_version_mismatch_fails_stop(
    homes_table, statistics, tmp_path, monkeypatch
):
    write_table_snapshot(homes_table, tmp_path)
    write_stats_snapshot(statistics.copy(), tmp_path, epoch=0, journal_seq=0)
    monkeypatch.setattr(
        "repro.serving.warmstart.STATS_FORMAT_VERSION", 99
    )
    with pytest.raises(SnapshotMismatch) as excinfo:
        load_warm(homes_table.schema, tmp_path)
    assert excinfo.value.reason == "version"


def test_stats_snapshot_schema_mismatch_fails_stop(
    homes_table, statistics, tmp_path
):
    write_table_snapshot(homes_table, tmp_path)
    write_stats_snapshot(statistics.copy(), tmp_path, epoch=0, journal_seq=0)
    other = TableSchema(
        "ListProperty",
        (Attribute("price", DataType.INT, AttributeKind.NUMERIC),),
    )
    with pytest.raises(SnapshotMismatch):
        load_warm(other, tmp_path)


# -- snapshot + journal replay ----------------------------------------------


def _booted_service(homes_table, statistics, tmp_path, **kwargs):
    journal = SpillJournal(tmp_path / "journal")
    service = CategorizationService(
        Relation(homes_table, statistics.copy(), journal=journal),
        batch_size=4,
        **kwargs,
    )
    return service, journal


def test_clean_shutdown_then_warm_boot_replays_nothing(
    homes_table, statistics, tmp_path
):
    service, journal = _booted_service(homes_table, statistics, tmp_path)
    for sql in RECORD_SQLS:
        service.record_query(sql)
    # Graceful shutdown: publish everything, snapshot, move the watermark.
    service.flush()
    epoch = service.store.pin()
    write_table_snapshot(homes_table, tmp_path)
    write_stats_snapshot(
        epoch.statistics, tmp_path, epoch.number, journal_seq=journal.last_seq
    )
    journal.checkpoint(journal.last_seq)
    journal.close()

    restart_journal = SpillJournal(tmp_path / "journal")
    warm = load_warm(homes_table.schema, tmp_path)
    restarted = CategorizationService(
        Relation(
            warm.table, warm.statistics,
            journal=restart_journal, initial_epoch=warm.epoch,
        )
    )
    replayed = restarted.recover_from_journal(after_seq=warm.journal_seq)
    assert replayed == 0  # the snapshot covers the whole journal
    assert restarted.store.epoch_number == warm.epoch
    assert (
        restarted.store.pin().statistics.total_queries
        == epoch.statistics.total_queries
    )


def test_crash_between_snapshots_replays_the_journal_suffix(
    homes_table, statistics, tmp_path
):
    service, journal = _booted_service(homes_table, statistics, tmp_path)
    # Snapshot early: only the first 4 records are covered.
    for sql in RECORD_SQLS[:4]:
        service.record_query(sql)
    service.flush()
    epoch = service.store.pin()
    write_table_snapshot(homes_table, tmp_path)
    write_stats_snapshot(
        epoch.statistics, tmp_path, epoch.number, journal_seq=journal.last_seq
    )
    watermark = journal.last_seq
    for sql in RECORD_SQLS[4:]:
        service.record_query(sql)
    journal.flush()
    # SIGKILL: drop every in-memory object, reopen from disk alone.
    del service

    restart_journal = SpillJournal(tmp_path / "journal")
    warm = load_warm(homes_table.schema, tmp_path)
    assert warm.journal_seq == watermark
    restarted = CategorizationService(
        Relation(
            warm.table, warm.statistics,
            journal=restart_journal, initial_epoch=warm.epoch,
        )
    )
    replayed = restarted.recover_from_journal(after_seq=warm.journal_seq)
    assert replayed == len(RECORD_SQLS) - 4
    assert conserved(restarted.health())
    total = restarted.store.pin().statistics.total_queries
    assert total == statistics.total_queries + len(RECORD_SQLS)


def test_double_replay_is_idempotent_across_repeated_crashes(
    homes_table, statistics, tmp_path
):
    """Two boots from the same snapshot fold the journal once each.

    Replay starts from the *snapshot's* watermark, not from any state the
    previous (crashed) boot accumulated — so dying again right after
    recovery cannot double-count queries.
    """
    service, journal = _booted_service(homes_table, statistics, tmp_path)
    for sql in RECORD_SQLS:
        service.record_query(sql)
    journal.flush()
    write_table_snapshot(homes_table, tmp_path)
    write_stats_snapshot(statistics.copy(), tmp_path, epoch=0, journal_seq=0)
    del service  # crash 1

    totals = []
    for _boot in range(2):  # boot, crash before snapshotting, boot again
        boot_journal = SpillJournal(tmp_path / "journal")
        warm = load_warm(homes_table.schema, tmp_path)
        restarted = CategorizationService(
            Relation(
                warm.table, warm.statistics,
                journal=boot_journal, initial_epoch=warm.epoch,
            )
        )
        assert restarted.recover_from_journal(
            after_seq=warm.journal_seq
        ) == len(RECORD_SQLS)
        totals.append(restarted.store.pin().statistics.total_queries)
        boot_journal.close()
    assert totals[0] == totals[1] == statistics.total_queries + len(RECORD_SQLS)


def test_fallback_to_cold_replays_the_whole_journal(
    homes_table, statistics, tmp_path
):
    """A bad snapshot costs the warm start, never the recorded queries."""
    service, journal = _booted_service(homes_table, statistics, tmp_path)
    for sql in RECORD_SQLS:
        service.record_query(sql)
    service.flush()
    epoch = service.store.pin()
    write_table_snapshot(homes_table, tmp_path)
    write_stats_snapshot(
        epoch.statistics, tmp_path, epoch.number, journal_seq=journal.last_seq
    )
    journal.close()
    # Bit rot on the stats snapshot: warm start must refuse it...
    path = tmp_path / STATS_SNAPSHOT
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(SnapshotMismatch) as excinfo:
        load_warm(homes_table.schema, tmp_path)
    assert excinfo.value.reason == "crc"

    # ...and the cold path — fresh statistics, full replay — recovers
    # every recorded query from the journal alone.
    restart_journal = SpillJournal(tmp_path / "journal")
    cold = CategorizationService(
        Relation(homes_table, statistics.copy(), journal=restart_journal)
    )
    assert cold.recover_from_journal(after_seq=0) == len(RECORD_SQLS)
    assert conserved(cold.health())
    assert (
        cold.store.pin().statistics.total_queries
        == statistics.total_queries + len(RECORD_SQLS)
    )
