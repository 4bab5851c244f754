"""Serving-suite fixtures: fake clocks, private statistics, service factory.

The session-scoped ``statistics`` fixture from the root conftest is shared
read-only; serving tests that ingest queries get a private copy so epochs
never leak between tests.
"""

from __future__ import annotations

import contextlib
import signal

import pytest

from repro import perf
from repro.serving.faults import FaultInjector
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService

#: Queries used across the suite (broad result set worth categorizing).
SERVE_SQL = "SELECT * FROM ListProperty WHERE price <= 300000"
LOG_SQL = "SELECT * FROM ListProperty WHERE bedroomcount = 3"


class FakeClock:
    """A manually advanced monotonic clock, also usable as a sleeper."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    # sleeper interface: sleeping advances the fake time
    def sleep(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture
def fresh_statistics(statistics):
    """A private copy of the shared count tables (safe to ingest into)."""
    return statistics.copy()


@pytest.fixture
def injector(fake_clock):
    """A seeded injector whose delays advance the fake clock."""
    return FaultInjector(seed=7, sleeper=fake_clock.sleep)


@pytest.fixture
def make_service(homes_table, statistics):
    """Factory for services over the shared table with private statistics."""

    def _make(**kwargs) -> CategorizationService:
        kwargs.setdefault("batch_size", 8)
        relation = Relation(homes_table, statistics.copy())
        return CategorizationService(relation, **kwargs)

    return _make


@pytest.fixture
def perf_on():
    """Enable instrumentation for one test; yields the active registry."""
    perf.reset()
    perf.enable()
    yield perf.ACTIVE
    perf.reset()
    perf.disable()


def conserved(health: dict) -> bool:
    """Every recorded query is published or pending: none vanished."""
    return health["published"] + health["pending"] == health["recorded"]


@contextlib.contextmanager
def file_size_limit(limit_bytes: int):
    """Make this process's writes past ``limit_bytes`` of a file fail.

    A stand-in for a full disk: ``RLIMIT_FSIZE`` with ``SIGXFSZ`` ignored
    makes a write that crosses the limit write what fits and the next
    one fail with ``EFBIG``.  Both are restored on exit.
    """
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit_bytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
