"""Tests for the long-lived categorization service."""

import pytest

from repro.serving.degrade import RUNG_FULL, RUNG_SHOWTUPLES, RUNGS
from repro.serving.errors import InvalidRequest
from repro.serving.faults import FaultInjector
from repro.serving.service import CategorizationService

from tests.serving.conftest import LOG_SQL, SERVE_SQL


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
    def test_record_query_advances_epochs(self, make_service):
        service = make_service(batch_size=4)
        for _ in range(8):
            service.record_query(LOG_SQL)
        assert service.epoch_number == 2
        health = service.health()
        assert health["recorded"] == 8
        assert health["published"] == 8
        assert health["breaker"] == "closed"

    def test_flush_publishes_partial_batch(self, make_service):
        service = make_service(batch_size=100)
        service.record_query(LOG_SQL)
        service.flush()
        assert service.epoch_number == 1


class TestNeverRaisesUnderFaults:
    """The headline acceptance criterion: categorize never raises.

    Slow publishes, injected cache evictions, level delays, and a 5 ms
    deadline all at once — every response must still be a tree or an
    explicit SHOWTUPLES, with the rung observable.
    """

    def test_faulted_gauntlet(self, make_service, perf_on):
        from tests.serving.conftest import fault_rate

        rate = fault_rate() or 0.5  # CI's fault-injection job raises this
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
            try:
                service.record_query(LOG_SQL)
            except Exception as exc:  # noqa: BLE001 - breaker may stall
                from repro.serving.errors import IngestionStalled

                assert isinstance(exc, IngestionStalled)

        # The rung actually served is visible in the labeled counters.
        counted = sum(
            count
            for key, count in perf_on.counters.items()
            if key.startswith("serve.rung{")
        )
        assert counted == len([r for r in rungs])
