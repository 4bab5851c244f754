"""Tests for the long-lived categorization service."""

import gc
from array import array

import pytest

from repro.relational.table import RowSlice
from repro.render.treeview import render_tree
from repro.serving.degrade import RUNG_FULL, RUNG_SHOWTUPLES, RUNGS
from repro.serving.errors import InvalidRequest
from repro.serving.faults import FaultInjector
from repro.serving.journal import SpillJournal
from repro.serving.service import CategorizationService

from tests.serving.conftest import LOG_SQL, SERVE_SQL, conserved


class TestRequestValidation:
    def test_bad_sql_maps_to_invalid_request(self, make_service):
        service = make_service()
        with pytest.raises(InvalidRequest) as excinfo:
            service.categorize("SELECT FROM WHERE")
        assert excinfo.value.reason == "sql"
        # The SqlError position/snippet survives into the message.
        assert "position" in str(excinfo.value)

    def test_unknown_table_rejected(self, make_service):
        service = make_service()
        with pytest.raises(InvalidRequest) as excinfo:
            service.categorize("SELECT * FROM Nonexistent")
        assert excinfo.value.reason == "table"

    def test_negative_deadline_rejected(self, make_service):
        service = make_service()
        with pytest.raises(InvalidRequest) as excinfo:
            service.categorize(SERVE_SQL, deadline_ms=-5)
        assert excinfo.value.reason == "deadline"

    def test_unknown_budget_rejected(self, make_service):
        service = make_service()
        with pytest.raises(InvalidRequest) as excinfo:
            service.categorize(SERVE_SQL, budget="mystery")
        assert excinfo.value.reason == "budget"

    def test_unknown_technique_rejected(self, make_service):
        with pytest.raises(ValueError, match="technique"):
            make_service(technique="psychic")

    def test_record_bad_sql_maps_to_invalid_request(self, make_service):
        service = make_service()
        with pytest.raises(InvalidRequest):
            service.record_query("INSERT INTO nope")

    def test_legacy_table_statistics_call_is_a_type_error(
        self, homes_table, statistics
    ):
        # Everything after the relation is keyword-only, so the old
        # (table, statistics) form fails at the call instead of binding
        # the statistics to ``config``.
        with pytest.raises(TypeError):
            CategorizationService(homes_table, statistics)
        with pytest.raises(TypeError):
            CategorizationService(homes_table, statistics=statistics)


class TestServing:
    def test_full_rung_response(self, make_service):
        service = make_service()
        result = service.categorize(SERVE_SQL)
        assert result.rung == RUNG_FULL
        assert result.degraded is None
        assert result.tree is not None
        assert result.epoch == 0
        assert len(result.rows) > 0

    def test_trace_ids_unique_and_threaded(self, make_service):
        service = make_service()
        first = service.categorize(SERVE_SQL, collect_trace=True)
        second = service.categorize(LOG_SQL, collect_trace=True)
        assert first.trace_id != second.trace_id
        assert first.tree.decision_trace.trace_id == first.trace_id
        assert first.tree.decision_trace.served_rung == RUNG_FULL

    def test_traced_request_after_untraced_gets_its_own_trace(self, make_service):
        service = make_service()
        service.categorize(SERVE_SQL)
        traced = service.categorize(SERVE_SQL, collect_trace=True)
        assert traced.tree.decision_trace.trace_id == traced.trace_id

    def test_traced_requests_each_get_their_own_trace(self, make_service):
        service = make_service()
        first = service.categorize(SERVE_SQL, collect_trace=True, trace_id="req-A")
        second = service.categorize(SERVE_SQL, collect_trace=True, trace_id="req-B")
        assert first.tree.decision_trace.trace_id == first.trace_id == "req-A"
        assert second.tree.decision_trace.trace_id == second.trace_id == "req-B"

    def test_traced_request_neither_reads_nor_fills_the_cache(self, make_service):
        service = make_service()
        traced = service.categorize(SERVE_SQL, collect_trace=True)
        assert not traced.cached and len(service.cache) == 0
        untraced = service.categorize(SERVE_SQL)
        assert not untraced.cached and untraced.tree.decision_trace is None
        assert service.categorize(SERVE_SQL).cached
        assert not service.categorize(SERVE_SQL, collect_trace=True).cached

    def test_showtuples_budget_skips_categorization(self, make_service):
        service = make_service()
        result = service.categorize(SERVE_SQL, budget="showtuples")
        assert result.rung == RUNG_SHOWTUPLES
        assert result.tree is None
        assert result.degraded.reason == "budget"
        assert len(result.rows) > 0  # the rows themselves still served

    def test_as_dict_is_json_ready(self, make_service):
        import json

        service = make_service()
        payload = service.categorize(SERVE_SQL).as_dict()
        json.dumps(payload)
        assert payload["rung"] == RUNG_FULL
        assert payload["row_count"] == len(service.categorize(SERVE_SQL).rows)


class TestResultCache:
    def test_second_request_is_a_hit(self, make_service):
        service = make_service()
        miss = service.categorize(SERVE_SQL)
        hit = service.categorize(SERVE_SQL)
        assert not miss.cached
        assert hit.cached
        assert hit.tree is miss.tree  # the exact tree, not a rebuild

    def test_hit_counts_no_category_again(self, make_service, monkeypatch):
        """A response's ``category_count`` is counted once per tree: a hit
        answers it from the tree's digest without walking a node."""
        from repro.core.tree import CategoryTree

        service = make_service()
        miss = service.categorize(SERVE_SQL)
        assert miss.as_dict()["category_count"] == miss.tree.category_count() > 0

        def walk(tree):
            raise AssertionError("a cache hit walked the tree")

        monkeypatch.setattr(CategoryTree, "nodes", walk)
        hit = service.categorize(SERVE_SQL)
        assert hit.cached
        assert hit.as_dict()["category_count"] == miss.as_dict()["category_count"]

    @pytest.mark.parametrize("technique", ["cost-based", "attr-cost", "no-cost"])
    def test_hit_answers_as_an_uncompacted_tree(self, make_service, technique):
        """A hit answers as a tree built fresh for the request, and the
        cached tree holds no memo and no list of positions: every node's
        rows are a slice of one packed permutation."""

        def answer(result):
            summary = result.as_dict()
            for varying in ("trace_id", "cached", "elapsed_ms"):
                del summary[varying]
            return summary, render_tree(result.tree)

        for sql in (SERVE_SQL, LOG_SQL):
            # Capacity 0 stores nothing: every request builds afresh.
            reference = make_service(technique=technique, cache_capacity=0)
            expected = reference.categorize(sql)
            service = make_service(technique=technique)
            miss = service.categorize(sql)
            hit = service.categorize(sql)
            assert hit.cached and hit.tree is miss.tree
            assert hit.rows is hit.tree.root.rows
            assert answer(miss) == answer(hit) == answer(expected)
            assert hit.tree.root.children
            permutation = hit.tree.root.rows._permutation
            assert isinstance(permutation.positions, array)
            for node in hit.tree.nodes():
                assert type(node.rows) is RowSlice
                assert node.rows._permutation is permutation
                held = gc.get_referents(node.rows) + gc.get_referents(permutation)
                assert not [ref for ref in held if isinstance(ref, (dict, list))]

    def test_key_is_normalized_sql(self, make_service):
        service = make_service()
        service.categorize(SERVE_SQL)
        # Different whitespace, same normalized query → still a hit.
        hit = service.categorize(
            "SELECT  *  FROM ListProperty  WHERE price <= 300000"
        )
        assert hit.cached

    def test_new_epoch_misses(self, make_service):
        service = make_service(batch_size=2)
        service.categorize(SERVE_SQL)
        for _ in range(2):
            service.record_query(LOG_SQL)
        assert service.epoch_number == 1
        result = service.categorize(SERVE_SQL)
        assert not result.cached  # old epoch's entry no longer keyed
        assert result.epoch == 1

    def test_ttl_expiry(self, make_service, fake_clock):
        service = make_service(cache_ttl_s=30.0, clock=fake_clock)
        service.categorize(SERVE_SQL)
        fake_clock.advance(31.0)
        assert not service.categorize(SERVE_SQL).cached

    def test_lru_eviction(self, make_service):
        service = make_service(cache_capacity=1)
        service.categorize(SERVE_SQL)
        service.categorize(LOG_SQL)  # evicts the first entry
        assert not service.categorize(SERVE_SQL).cached

    def test_injected_eviction(self, make_service):
        faults = FaultInjector()
        service = make_service(faults=faults)
        service.categorize(SERVE_SQL)
        faults.arm("service.cache", evict=True)
        assert not service.categorize(SERVE_SQL).cached
        assert faults.fired("service.cache") >= 1

    def test_zero_capacity_disables_caching(self, make_service):
        service = make_service(cache_capacity=0)
        service.categorize(SERVE_SQL)
        assert not service.categorize(SERVE_SQL).cached


class TestIngestion:
    @pytest.fixture
    def logged_sqls(self, workload):
        return [query.to_sql() for query in list(workload)[:20]]

    def test_record_query_advances_epochs(self, make_service):
        service = make_service(batch_size=4)
        for _ in range(8):
            service.record_query(LOG_SQL)
        assert service.epoch_number == 2
        health = service.health()
        assert health["recorded"] == 8
        assert health["published"] == 8
        assert conserved(health)

    def test_flush_publishes_partial_batch(self, make_service):
        service = make_service(batch_size=100)
        service.record_query(LOG_SQL)
        service.flush()
        assert service.epoch_number == 1

    def test_healthy_path_publishes_everything(self, make_service, logged_sqls):
        service = make_service(batch_size=2)
        seed_n = service.store.pin().statistics.total_queries
        for sql in logged_sqls:
            service.record_query(sql)
        health = service.health()
        assert conserved(health)
        assert health["published"] == health["recorded"] == 20
        assert service.store.pin().statistics.total_queries == seed_n + 20

    def test_failed_publishes_are_acked_and_stay_pending(
        self, make_service, logged_sqls, perf_on
    ):
        faults = FaultInjector()
        service = make_service(batch_size=2, faults=faults)
        faults.arm("snapshot.publish", fail=True)
        for sql in logged_sqls[:6]:
            service.record_query(sql)  # acked: no exception escapes
        health = service.health()
        assert health["recorded"] == health["pending"] == 6
        assert health["published"] == 0 and health["epoch"] == 0
        assert conserved(health)
        # Every record from the second on found a full batch and failed.
        assert perf_on.counters["ingest.publish_failures"] == 5

    def test_next_record_after_outage_publishes_the_backlog(
        self, make_service, logged_sqls
    ):
        faults = FaultInjector()
        service = make_service(batch_size=2, faults=faults)
        seed_n = service.store.pin().statistics.total_queries
        faults.arm("snapshot.publish", fail=True)
        for sql in logged_sqls[:10]:
            service.record_query(sql)
        assert service.health()["pending"] == 10

        faults.disarm("snapshot.publish")
        service.record_query(logged_sqls[10])
        health = service.health()
        assert health["published"] == health["recorded"] == 11
        assert health["pending"] == 0 and health["epoch"] == 1
        # Every recorded query is in the epoch: none was lost to the outage.
        total = service.store.pin().statistics.total_queries
        assert total == seed_n + health["recorded"]

    def test_replayed_records_publish_after_an_outage(
        self, make_service, logged_sqls, tmp_path
    ):
        with SpillJournal(tmp_path) as journal:
            for sql in logged_sqls[:5]:
                journal.append(sql)
            faults = FaultInjector()
            service = make_service(batch_size=2, faults=faults, journal=journal)
            seed_n = service.store.pin().statistics.total_queries
            faults.arm("snapshot.publish", fail=True)
            # Recovery's publish fails: the replayed records stay pending.
            assert service.recover_from_journal() == 5
            health = service.health()
            assert health["recorded"] == health["pending"] == 5
            assert conserved(health)

            faults.disarm("snapshot.publish")
            service.flush()
            health = service.health()
            assert health["published"] == health["recorded"] == 5
            total = service.store.pin().statistics.total_queries
            assert total == seed_n + 5
            assert journal.last_seq == 5  # replay journals nothing again


class TestNeverRaisesUnderFaults:
    """The headline acceptance criterion: categorize never raises.

    Slow and failing publishes, injected cache evictions, level delays,
    and a 5 ms deadline all at once — every response must still be a tree
    or an explicit SHOWTUPLES, with the rung observable, and every
    record is acked and conserved.
    """

    @pytest.mark.parametrize("rate", [0.5, 0.9])
    def test_faulted_gauntlet(self, make_service, perf_on, rate):
        faults = FaultInjector(seed=13)
        faults.arm("snapshot.publish", delay_s=0.002, fail=True, rate=rate)
        faults.arm("service.cache", evict=True, rate=rate)
        faults.arm("degrade.level", delay_s=0.004, rate=rate)
        service = make_service(faults=faults, batch_size=2)

        rungs = []
        for i in range(25):
            result = service.categorize(
                SERVE_SQL if i % 2 else LOG_SQL, deadline_ms=5.0
            )
            assert result.rung in RUNGS
            assert result.rows is not None
            rungs.append(result.rung)
            service.record_query(LOG_SQL)  # publish faults never escape

        # The rung actually served is visible in the labeled counters.
        counted = sum(
            count
            for key, count in perf_on.counters.items()
            if key.startswith("serve.rung{")
        )
        assert counted == len([r for r in rungs])
        assert perf_on.counters["ingest.publish_failures"] > 0
        assert conserved(service.health())
        faults.disarm()
        service.flush()
        health = service.health()
        assert conserved(health)
        assert health["published"] == health["recorded"] == 25
