"""Threaded tests: concurrent ingestion vs. categorization reads.

The epoch-snapshot contract under real threads:

* a reader pinning an epoch sees statistics that never change — the
  eagerly recorded ``query_count`` always matches the live
  ``total_queries`` of the pinned statistics (a torn read would break
  this the moment ingestion mutated a published epoch);
* epoch numbers observed by any single thread are monotone;
* with ≥1000 ``record_query`` calls racing the readers, every query is
  conserved (published + pending == recorded), including through a
  publish outage followed by a concurrent drain;
* copying statistics for a publish survives readers adding memo entries
  to the epoch being copied;
* cache hits racing misses and evictions answer exactly as a tree built
  for the request alone.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.render.treeview import render_tree
from repro.serving.faults import FaultInjector
from repro.serving.snapshot import SnapshotStore

from tests.serving.conftest import LOG_SQL, SERVE_SQL, conserved

N_RECORDS = 1200
N_READERS = 4


class TestSnapshotStoreUnderThreads:
    def test_no_torn_reads_and_monotone_epochs(self, fresh_statistics, workload):
        queries = list(workload)[:N_RECORDS]
        seed_n = fresh_statistics.total_queries
        store = SnapshotStore(fresh_statistics, batch_size=16)
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            try:
                for query in queries:
                    store.record_query(query)
            finally:
                stop.set()

        def reader():
            last_epoch = -1
            while not stop.is_set():
                epoch = store.pin()
                if epoch.number < last_epoch:
                    failures.append(
                        f"epoch went backwards: {last_epoch} -> {epoch.number}"
                    )
                    return
                last_epoch = epoch.number
                # Torn-read check: query_count was recorded at publish
                # time; if ingestion ever mutated a published epoch, the
                # live total would drift away from it.
                live = epoch.statistics.total_queries
                if live != epoch.query_count:
                    failures.append(
                        f"torn read in epoch {epoch.number}: "
                        f"{live} != {epoch.query_count}"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(N_READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[0]
        assert store.generation % 2 == 0
        store.flush()
        assert store.pin().statistics.total_queries == seed_n + N_RECORDS
        assert store.epoch_number >= N_RECORDS // 16

    def test_copy_survives_readers_adding_memo_entries(self, fresh_statistics):
        """A reader's first lookup of an attribute adds its memo dict to
        the pinned epoch while a publish may be copying that epoch; the
        copy must neither fail nor lose a count table."""
        statistics = fresh_statistics
        numeric = [a.name for a in statistics.schema.numeric_attributes()]
        stop = threading.Event()

        def reader():
            # Evicting and re-adding keeps the memo dict changing size as
            # fast as first lookups of fresh attributes would.
            while not stop.is_set():
                for name in numeric:
                    statistics._range_memo.pop(name, None)
                    statistics.n_overlap_range(name, 0, 1)

        failures: list[str] = []
        copies = 0
        thread = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and not failures:
                try:
                    clone = statistics.copy()
                except RuntimeError as exc:
                    failures.append(repr(exc))
                else:
                    copies += 1
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not failures, f"{failures[0]} after {copies} copies"
        assert clone.total_queries == statistics.total_queries


class TestServiceUnderThreads:
    def test_categorize_races_ingestion(self, make_service):
        service = make_service(batch_size=32)
        stop = threading.Event()
        failures: list[str] = []

        def writer():
            try:
                for _ in range(N_RECORDS):
                    service.record_query(LOG_SQL)
            finally:
                stop.set()

        def reader(sql: str):
            last_epoch = -1
            while not stop.is_set():
                result = service.categorize(sql)
                if result.rung not in ("full", "truncated", "single_level",
                                       "showtuples"):
                    failures.append(f"bad rung {result.rung}")
                    return
                if result.epoch < last_epoch:
                    failures.append(
                        f"served epoch went backwards: "
                        f"{last_epoch} -> {result.epoch}"
                    )
                    return
                last_epoch = result.epoch

        threads = [
            threading.Thread(target=reader, args=(sql,))
            for sql in (SERVE_SQL, LOG_SQL)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures[0]
        service.flush()
        health = service.health()
        assert health["recorded"] == N_RECORDS
        assert health["published"] == N_RECORDS
        assert health["pending"] == 0

    def test_hits_race_misses_and_evictions(self, make_service):
        """More threads than cores race misses and LRU evictions of a
        one-entry cache; every answer equals that of a tree built for the
        request alone."""

        def answer(result):
            return (
                result.rung,
                render_tree(result.tree),
                [[row.index for row in node.rows] for node in result.tree.nodes()],
            )

        queries = (SERVE_SQL, LOG_SQL)
        reference = make_service(cache_capacity=0)
        expected = {sql: answer(reference.categorize(sql)) for sql in queries}
        service = make_service(cache_capacity=1)
        failures: list[str] = []

        def reader(offset: int):
            for i in range(8):
                sql = queries[(i + offset) % 2]
                result = service.categorize(sql)
                if answer(result) != expected[sql]:
                    failures.append(f"{sql!r} differs (cached={result.cached})")
                    return

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]


class TestOutageUnderThreads:
    def test_outage_then_concurrent_drain_conserves(
        self, make_service, workload
    ):
        sqls = [query.to_sql() for query in list(workload)[:N_RECORDS]]
        faults = FaultInjector(seed=3)
        service = make_service(batch_size=16, faults=faults)
        seed_n = service.store.pin().statistics.total_queries

        # Phase 1: every publish fails; each record is acked and pending.
        faults.arm("snapshot.publish", fail=True)
        for sql in sqls[:400]:
            service.record_query(sql)
        health = service.health()
        assert health["pending"] == health["recorded"] == 400
        assert health["published"] == 0
        assert conserved(health)

        # Phase 2: the outage ends; concurrent writers publish the backlog
        # with their own records and drain the rest without losing one.
        faults.disarm("snapshot.publish")
        remaining = sqls[400:]
        chunk = len(remaining) // N_READERS
        failures: list[str] = []

        def writer(part):
            try:
                for sql in part:
                    service.record_query(sql)
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))

        threads = [
            threading.Thread(
                target=writer,
                args=(remaining[i * chunk : (i + 1) * chunk
                                if i < N_READERS - 1 else len(remaining)],)
            )
            for i in range(N_READERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        service.flush()
        health = service.health()
        assert conserved(health)
        assert health["recorded"] == health["published"] == N_RECORDS
        assert health["pending"] == 0
        # Query count conserved end to end in the final epoch.
        total = service.store.pin().statistics.total_queries
        assert total == seed_n + N_RECORDS
