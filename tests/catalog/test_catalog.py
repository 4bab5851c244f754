"""Catalog resolution and the cross-relation isolation contract.

The whole point of the catalog is that relations share *nothing* but the
process and the trace-id sequence: recording into one table must never
move another's epoch, cache keys must never collide across namespaces,
and each relation's journal must replay only its own queries.
"""

from __future__ import annotations

import threading

import pytest

from repro.catalog import Catalog, DatasetDescriptor, open_catalog
from repro.serving.errors import UnknownTable
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService

HOMES_SQL = "SELECT * FROM ListProperty WHERE price <= 300000"
HOMES_LOG = "SELECT * FROM ListProperty WHERE bedroomcount = 3"
MOVIES_SQL = "SELECT * FROM Movies WHERE year >= 2000"
MOVIES_LOG = "SELECT * FROM Movies WHERE rating >= 7.0"


@pytest.fixture
def movies_relation():
    descriptor = DatasetDescriptor(
        name="Movies", generator="movies", rows=300, workload_queries=100
    )
    table, statistics = descriptor.build()
    return Relation(table, statistics)


@pytest.fixture
def catalog(homes_table, statistics, movies_relation):
    homes = CategorizationService(
        Relation(homes_table, statistics.copy()), batch_size=2
    )
    movies = CategorizationService(movies_relation, batch_size=2)
    return Catalog.of(homes, movies)


class TestResolution:
    def test_names_and_membership(self, catalog):
        assert catalog.names() == ("ListProperty", "Movies")
        assert "Movies" in catalog
        assert "Nope" not in catalog
        assert len(catalog) == 2

    def test_first_added_is_default(self, catalog):
        assert catalog.default_name == "ListProperty"
        assert catalog.default is catalog.get("ListProperty")

    def test_explicit_default_wins(self, homes_table, statistics, movies_relation):
        catalog = Catalog.of(
            CategorizationService(Relation(homes_table, statistics.copy())),
            CategorizationService(movies_relation),
            default="Movies",
        )
        assert catalog.default_name == "Movies"

    def test_resolve_flags_the_defaulted_path(self, catalog):
        service, defaulted = catalog.resolve(None)
        assert service.name == "ListProperty" and defaulted
        service, defaulted = catalog.resolve("Movies")
        assert service.name == "Movies" and not defaulted

    def test_unknown_table_raises_with_available(self, catalog):
        with pytest.raises(UnknownTable) as excinfo:
            catalog.resolve("Nope")
        assert excinfo.value.code == "UnknownTable"
        assert excinfo.value.detail()["available"] == ["ListProperty", "Movies"]

    def test_duplicate_name_rejected(self, catalog, homes_table, statistics):
        with pytest.raises(ValueError, match="already holds"):
            catalog.add(
                CategorizationService(Relation(homes_table, statistics.copy()))
            )

    def test_empty_catalog_has_no_default(self):
        with pytest.raises(ValueError, match="empty catalog"):
            Catalog().default_name

    def test_trace_ids_unique_across_threads(self, catalog):
        seen: list[str] = []
        lock = threading.Lock()

        def mint():
            ids = [catalog.new_trace_id() for _ in range(50)]
            with lock:
                seen.extend(ids)

        threads = [threading.Thread(target=mint) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == len(set(seen)) == 400
        assert all(trace_id.startswith("req-") for trace_id in seen)


class TestIsolation:
    def test_recording_into_one_never_moves_the_other_epoch(self, catalog):
        homes, movies = catalog.get("ListProperty"), catalog.get("Movies")
        for _ in range(2):
            homes.record_query(HOMES_LOG)
            homes.record_query(HOMES_SQL)
        assert homes.epoch_number == 2
        assert movies.epoch_number == 0
        movies.record_query(MOVIES_LOG)
        movies.record_query(MOVIES_SQL)
        assert movies.epoch_number == 1
        assert homes.epoch_number == 2

    def test_cache_key_namespaces_are_disjoint(self, catalog):
        homes, movies = catalog.get("ListProperty"), catalog.get("Movies")
        homes.categorize(HOMES_SQL)
        movies.categorize(MOVIES_SQL)
        homes_keys = set(homes.cache._entries)
        movies_keys = set(movies.cache._entries)
        assert homes_keys and movies_keys
        assert not homes_keys & movies_keys
        assert all(key.split(":", 4)[0] == "ListProperty" for key in homes_keys)
        assert all(key.split(":", 4)[0] == "Movies" for key in movies_keys)

    def test_concurrent_recording_conserves_per_table(self, catalog):
        homes, movies = catalog.get("ListProperty"), catalog.get("Movies")

        def pump(service, sql, count):
            for _ in range(count):
                service.record_query(sql)

        threads = [
            threading.Thread(target=pump, args=(homes, HOMES_LOG, 30)),
            threading.Thread(target=pump, args=(movies, MOVIES_LOG, 20)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        homes_health, movies_health = homes.health(), movies.health()
        assert homes_health["recorded"] == 30
        assert movies_health["recorded"] == 20
        for health in (homes_health, movies_health):
            assert (
                health["published"] + health["pending"]
                == health["recorded"]
            )

    def test_aggregate_health_lists_every_table(self, catalog):
        health = catalog.health()
        assert health["default_table"] == "ListProperty"
        assert set(health["tables"]) == {"ListProperty", "Movies"}
        for name, table_health in health["tables"].items():
            assert table_health["table"] == name


class TestPerRelationDurability:
    DESCRIPTORS = (
        DatasetDescriptor(
            name="ListProperty", generator="homes", rows=200, workload_queries=50
        ),
        DatasetDescriptor(
            name="Movies", generator="movies", rows=200, workload_queries=50
        ),
    )

    def test_each_journal_replays_only_its_own_queries(self, tmp_path):
        catalog = open_catalog(
            self.DESCRIPTORS,
            state_root=tmp_path,
            service_options={"batch_size": 4},
        )
        try:
            homes = catalog.get("ListProperty")
            for sql in (HOMES_LOG, HOMES_SQL, HOMES_LOG):
                homes.record_query(sql)
        finally:
            catalog.close()  # no persist: simulate an unclean exit

        reopened = open_catalog(
            self.DESCRIPTORS,
            state_root=tmp_path,
            service_options={"batch_size": 4},
        )
        try:
            homes = reopened.get("ListProperty")
            movies = reopened.get("Movies")
            assert homes.health()["durability"]["replayed_on_boot"] == 3
            assert movies.health()["durability"]["replayed_on_boot"] == 0
            assert homes.health()["durability"]["warm_start"] is True
            assert homes.health()["recorded"] == 3
            assert movies.health()["recorded"] == 0
            for health in (homes.health(), movies.health()):
                assert (
                    health["published"] + health["pending"]
                    == health["recorded"]
                )
        finally:
            reopened.close()

    def test_state_lives_under_per_table_dirs(self, tmp_path):
        catalog = open_catalog(self.DESCRIPTORS, state_root=tmp_path)
        try:
            for name in ("ListProperty", "Movies"):
                assert (tmp_path / name / "table.snap").exists()
                assert (tmp_path / name / "stats.snap").exists()
                assert (tmp_path / name / "journal").is_dir()
        finally:
            catalog.close()

    def test_explicit_default_validated_at_open(self, tmp_path):
        with pytest.raises(UnknownTable):
            open_catalog(self.DESCRIPTORS, default="Nope", state_root=tmp_path)
        # The half-open relations were closed again: their journal lock
        # files must not linger.
        reopened = open_catalog(self.DESCRIPTORS, state_root=tmp_path)
        reopened.close()
