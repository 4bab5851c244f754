"""Tests for the deterministic fault injector."""

import pytest

from repro.serving.errors import PublishError
from repro.serving.faults import FaultInjector, InjectedFault


class TestFiring:
    def test_unarmed_site_is_a_noop(self):
        injector = FaultInjector()
        assert injector.fire("snapshot.publish") is False
        assert injector.hits("snapshot.publish") == 0
        assert injector.fired("snapshot.publish") == 0

    def test_armed_fail_raises_with_site(self):
        injector = FaultInjector()
        injector.arm("snapshot.publish", fail=True)
        with pytest.raises(InjectedFault) as excinfo:
            injector.fire("snapshot.publish")
        assert excinfo.value.site == "snapshot.publish"
        assert injector.fired("snapshot.publish") == 1

    def test_injected_fault_is_a_publish_error(self):
        # Ingestion absorbs injected publish failures exactly as it does
        # any failed publish: the delta stays pending.
        assert issubclass(InjectedFault, PublishError)

    def test_evict_directive_returned_to_call_site(self):
        injector = FaultInjector()
        injector.arm("service.cache", evict=True)
        assert injector.fire("service.cache") is True

    def test_delay_goes_through_sleeper(self):
        slept = []
        injector = FaultInjector(sleeper=slept.append)
        injector.arm("degrade.level", delay_s=0.25)
        injector.fire("degrade.level")
        assert slept == [0.25]


class TestDeterminism:
    def test_every_nth_fires_deterministically(self):
        injector = FaultInjector()
        injector.arm("ingest.record", every=3, evict=True)
        pattern = [injector.fire("ingest.record") for _ in range(9)]
        assert pattern == [False, False, True] * 3

    def test_rate_zero_never_fires(self):
        injector = FaultInjector()
        injector.arm("ingest.record", rate=0.0, evict=True)
        assert not any(injector.fire("ingest.record") for _ in range(50))
        assert injector.hits("ingest.record") == 50

    def test_same_seed_same_pattern(self):
        def pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.arm("x", rate=0.5, evict=True)
            return [injector.fire("x") for _ in range(40)]

        assert pattern(11) == pattern(11)
        assert pattern(11) != pattern(12)  # and the seed actually matters

    def test_limit_stops_firing(self):
        injector = FaultInjector()
        injector.arm("x", evict=True, limit=2)
        fired = [injector.fire("x") for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert injector.fired("x") == 2


class TestArming:
    def test_disarm_one_site(self):
        injector = FaultInjector()
        injector.arm("a", fail=True)
        injector.arm("b", fail=True)
        injector.disarm("a")
        assert injector.fire("a") is False
        with pytest.raises(InjectedFault):
            injector.fire("b")

    def test_disarm_all(self):
        injector = FaultInjector()
        injector.arm("a", fail=True)
        injector.arm("b", fail=True)
        injector.disarm()
        assert injector.fire("a") is False
        assert injector.fire("b") is False

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector().arm("a", rate=1.5)

    def test_bad_every_rejected(self):
        with pytest.raises(ValueError, match="every"):
            FaultInjector().arm("a", every=0)

    def test_rearming_replaces_spec(self):
        injector = FaultInjector()
        injector.arm("a", fail=True)
        injector.arm("a", evict=True)
        assert injector.fire("a") is True  # no raise: the new spec won
