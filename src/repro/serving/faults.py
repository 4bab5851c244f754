"""Deterministic fault injection for the serving layer.

Robustness claims are only as good as the failures they were tested
against, so every serving component exposes **named fault sites** — fixed
strings at the exact points where production systems break — and calls
:meth:`FaultInjector.fire` there.  A test arms sites with delays,
failures, or cache evictions; unarmed sites cost one dict lookup.

Sites wired in this package:

================================  =============================================
site                              fired
================================  =============================================
``snapshot.publish``              at the start of every epoch publish (before
                                  any state changes, so a failure loses nothing)
``degrade.level``                 at every deadline checkpoint between tree
                                  levels
``service.cache``                 on every result-cache lookup (an ``evict``
                                  directive drops the entry, simulating memory
                                  pressure)
``ingest.record``                 on every ingestion attempt
``journal.append``                before any bytes of a journal record are
                                  written (a crash here loses the unacked
                                  record, durably nothing else)
``journal.append.torn``           between a journal record's header and its
                                  payload (a crash here leaves a torn tail
                                  for recovery to truncate)
``journal.append.synced``         after a journal record is written and
                                  fsynced, before the append returns (a crash
                                  here is the "durable but unacked" case)
``journal.checkpoint.rename``     between writing a journal CHECKPOINT temp
                                  file and atomically renaming it into place
``warmstart.rename``              between writing a snapshot temp file and
                                  atomically renaming it into place
================================  =============================================

Everything is deterministic: firing decisions come from a seeded RNG (for
``rate``) or a hit counter (for ``every``), and delays go through an
injectable ``sleeper`` so tests can advance a fake clock instead of
actually sleeping.  Fired faults are counted per site (and in the
``faults.fired{site=...}`` perf counter) so tests can assert a fault
actually triggered — a chaos test whose fault never fired proves nothing.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro import perf
from repro.serving.errors import PublishError


class InjectedFault(PublishError):
    """Raised by an armed ``fail`` site.

    Subclasses :class:`~repro.serving.errors.PublishError`, the error a
    failed epoch publish raises: at ``snapshot.publish`` ingestion
    absorbs it, leaving the delta pending for the next publish.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site!r}")
        self.site = site


class InjectedCrash(RuntimeError):
    """Raised by an armed ``crash`` site to simulate process death.

    Deliberately *not* a :class:`~repro.serving.errors.PublishError` (or
    any :class:`~repro.serving.errors.ServingError`, or an ``OSError``):
    neither ingestion's absorption of failed publishes nor the journal's
    cut-back of failed writes may handle it.
    A test arms a crash site, lets the exception unwind the whole call
    stack, drops every in-memory object, and then exercises recovery
    from the on-disk state exactly as a restarted process would.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"injected crash at {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """What one armed site does when it fires.

    Attributes:
        delay_s: sleep this long (through the injector's ``sleeper``).
        fail: raise :class:`InjectedFault` after any delay.
        evict: return an eviction directive to the call site (used by the
            result cache to drop the looked-up entry).
        crash: raise :class:`InjectedCrash` after any delay — simulated
            process death that no serving-layer handler absorbs (takes
            precedence over ``fail``).
        rate: firing probability per hit, from the seeded RNG.
        every: fire deterministically on every n-th hit instead of
            randomly (takes precedence over ``rate``).
        limit: stop firing after this many fires (None = unlimited).
    """

    delay_s: float = 0.0
    fail: bool = False
    evict: bool = False
    crash: bool = False
    rate: float = 1.0
    every: int | None = None
    limit: int | None = None


class FaultInjector:
    """A registry of armed fault sites with deterministic firing.

    One injector is shared by all components of a service; pass
    ``faults=None`` (the default everywhere) for a no-op injector.
    """

    def __init__(
        self, seed: int = 0, sleeper: Callable[[float], None] = time.sleep
    ) -> None:
        self._rng = random.Random(seed)
        self._sleeper = sleeper
        self._specs: dict[str, FaultSpec] = {}
        self._hits: Counter[str] = Counter()
        self._fired: Counter[str] = Counter()

    def arm(
        self,
        site: str,
        *,
        delay_s: float = 0.0,
        fail: bool = False,
        evict: bool = False,
        crash: bool = False,
        rate: float = 1.0,
        every: int | None = None,
        limit: int | None = None,
    ) -> None:
        """Arm ``site`` with a :class:`FaultSpec` (replacing any previous)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if every is not None and every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self._specs[site] = FaultSpec(
            delay_s=delay_s,
            fail=fail,
            evict=evict,
            crash=crash,
            rate=rate,
            every=every,
            limit=limit,
        )

    def disarm(self, site: str | None = None) -> None:
        """Disarm one site, or every site when ``site`` is None."""
        if site is None:
            self._specs.clear()
        else:
            self._specs.pop(site, None)

    def fire(self, site: str) -> bool:
        """Hit ``site``; apply its armed fault if the spec decides to fire.

        Returns:
            True when an ``evict`` directive fired (the only fault kind
            the call site must act on itself).

        Raises:
            InjectedFault: when a ``fail`` spec fired.
            InjectedCrash: when a ``crash`` spec fired.
        """
        spec = self._specs.get(site)
        if spec is None:
            return False
        self._hits[site] += 1
        if spec.limit is not None and self._fired[site] >= spec.limit:
            return False
        if spec.every is not None:
            firing = self._hits[site] % spec.every == 0
        else:
            firing = spec.rate >= 1.0 or self._rng.random() < spec.rate
        if not firing:
            return False
        self._fired[site] += 1
        perf.count("faults.fired", site=site)
        if spec.delay_s > 0.0:
            self._sleeper(spec.delay_s)
        if spec.crash:
            raise InjectedCrash(site)
        if spec.fail:
            raise InjectedFault(site)
        return spec.evict

    def fired(self, site: str) -> int:
        """How many times ``site`` actually fired (not just was hit)."""
        return self._fired[site]

    def hits(self, site: str) -> int:
        """How many times ``site`` was reached."""
        return self._hits[site]


#: Shared no-op injector used when a component gets ``faults=None``.
NULL_INJECTOR = FaultInjector()
