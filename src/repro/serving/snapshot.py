"""Epoch-based snapshots of :class:`WorkloadStatistics`.

The ROADMAP's concurrency problem: ``record_query`` mutates count tables
and invalidates memos in place, so a categorization racing an ingestion
could read half-applied statistics (N bumped, value tables not yet; memo
invalidated, table not yet updated).  The fix is the classic
reader/writer decoupling:

* **Readers pin an epoch.**  :meth:`SnapshotStore.pin` returns an
  :class:`EpochSnapshot` — an immutable published statistics object plus
  its epoch number.  Published statistics are *never mutated again* (the
  one lazy mutation, range-index re-sorting, is forced eagerly before
  publish), so a pinned reader can take as long as it likes.
* **Writers batch into a pending delta.**  :meth:`SnapshotStore.append`
  buffers parsed workload queries under a lock.  When the batch fills (or
  :meth:`flush` is called), :meth:`publish_pending` clones the current
  statistics (:meth:`WorkloadStatistics.copy
  <repro.workload.preprocess.WorkloadStatistics.copy>` — count tables
  deep-copied, memo dicts carried over warm), folds the delta into the
  clone, and swaps the new epoch in with one reference assignment.
* **The store keeps the ingestion ledger.**  Every append counts as
  ``recorded`` and every publish moves its batch to ``published``, both
  under the store's lock, so ``published + pending == recorded`` holds
  whenever no append or publish is in flight.

The swap is guarded by a seqlock-style **generation counter**: it is odd
while a publish is in flight and even when stable, and :meth:`pin`
re-reads it around the epoch load.  Under CPython's GIL the single
reference assignment is already atomic — the counter exists so the
invariant "no reader observes a half-applied epoch" is *asserted by
tests* rather than assumed, and survives a future free-threaded runtime.

Fault site: ``snapshot.publish`` fires at the top of every publish,
before any state changes — an injected failure or delay therefore never
loses queries (the delta stays pending) and never corrupts an epoch.
The next full batch or :meth:`flush` publishes the delta again.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro import perf
from repro.serving.errors import PublishError
from repro.serving.faults import NULL_INJECTOR, FaultInjector
from repro.workload.model import WorkloadQuery
from repro.workload.preprocess import WorkloadStatistics


class EpochSnapshot:
    """One published, immutable statistics epoch.

    Attributes:
        number: monotonically increasing epoch number (0 = the seed).
        statistics: the epoch's :class:`WorkloadStatistics`.  Never
            mutated after publish; memo fills are the only writes and are
            idempotent.
        query_count: ``N`` at publish time, recorded eagerly so tests can
            detect a statistics object mutating after publication.
    """

    __slots__ = ("number", "statistics", "query_count")

    def __init__(self, number: int, statistics: WorkloadStatistics) -> None:
        self.number = number
        self.statistics = statistics
        self.query_count = statistics.total_queries

    def __repr__(self) -> str:
        return f"EpochSnapshot(number={self.number}, N={self.query_count})"


class SnapshotStore:
    """Epoch-versioned workload statistics: lock-free reads, batched writes.

    Args:
        statistics: the seed statistics (epoch ``initial_epoch``).  The
            store takes ownership: callers must not mutate it afterwards.
        batch_size: pending queries per automatic publish; larger batches
            amortize the clone cost over more queries.
        clock: monotonic time source (injectable for tests).
        faults: fault injector wired to the ``snapshot.publish`` site.
        initial_epoch: the seed statistics' epoch number.  0 for a cold
            boot; a warm start (`repro serve --warm-start`) passes the
            persisted epoch so numbering — and with it the epoch-scoped
            result-cache keys — continues instead of resetting.
    """

    def __init__(
        self,
        statistics: WorkloadStatistics,
        batch_size: int = 64,
        clock: Callable[[], float] = time.monotonic,
        faults: FaultInjector | None = None,
        initial_epoch: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if initial_epoch < 0:
            raise ValueError(f"initial_epoch must be >= 0, got {initial_epoch}")
        statistics.finalize_indexes()
        self._batch_size = batch_size
        self._clock = clock
        self._faults = faults or NULL_INJECTOR
        # Re-entrant: record_query and flush publish while holding it, and
        # go through publish_pending so every publish takes one path.
        self._lock = threading.RLock()
        self._pending: list[WorkloadQuery] = []
        self._recorded = 0
        self._published = 0
        self._generation = 0  # even = stable, odd = publish in flight
        self._epoch = EpochSnapshot(initial_epoch, statistics)

    # -- reader side ---------------------------------------------------------

    def pin(self) -> EpochSnapshot:
        """Return the current epoch; never blocks on ingestion.

        Seqlock read: retry while the generation is odd (publish swapping
        the epoch) or changed across the epoch load.
        """
        while True:
            generation = self._generation
            epoch = self._epoch
            if generation % 2 == 0 and generation == self._generation:
                return epoch
            time.sleep(0)  # publish in flight: yield and retry

    @property
    def epoch_number(self) -> int:
        """The current epoch's number."""
        return self.pin().number

    @property
    def generation(self) -> int:
        """The seqlock generation (even = stable); exposed for tests."""
        return self._generation

    # -- writer side ---------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Queries appended but not yet folded into a published epoch."""
        return len(self._pending)

    @property
    def recorded(self) -> int:
        """Queries ever appended (seed statistics not included)."""
        return self._recorded

    @property
    def published(self) -> int:
        """Appended queries folded into some published epoch."""
        return self._published

    def append(self, query: WorkloadQuery) -> int:
        """Buffer one logged query into the pending delta; never fails.

        Returns:
            The pending count after the append.
        """
        with self._lock:
            self._pending.append(query)
            self._recorded += 1
            return len(self._pending)

    def record_query(self, query: WorkloadQuery) -> float | None:
        """Append, and publish when the batch is full.

        The production ingestion path: :meth:`CategorizationService.record_query
        <repro.serving.service.CategorizationService.record_query>` calls it
        once the query is journaled.  A failed publish leaves the delta
        pending, and the next append (the batch is still full) or
        :meth:`flush` publishes it again.

        Returns:
            The publish latency in seconds when a publish ran, else None.

        Raises:
            PublishError: when the (fault-injectable) publish fails; the
                query is recorded and remains safely pending.
        """
        with self._lock:
            if self.append(query) >= self._batch_size:
                return self.publish_pending()
            return None

    def publish_pending(self) -> float:
        """Fold the pending delta into a new epoch and swap it in.

        Returns:
            The publish latency in seconds.

        Raises:
            PublishError: on injected/transient failure.  The pending
                delta is untouched — no query is ever lost to a failed
                publish — so the caller can simply retry.
        """
        with self._lock:
            started = self._clock()
            # Fault site first: a failure here leaves pending + epoch intact.
            self._faults.fire("snapshot.publish")
            with perf.span("snapshot.publish"):
                current = self._epoch
                clone = current.statistics.copy()
                for query in self._pending:
                    clone.record_query(query)
                clone.finalize_indexes()
                published = EpochSnapshot(current.number + 1, clone)
                # Seqlock write: odd while the epoch reference swaps.
                self._generation += 1
                self._epoch = published
                self._generation += 1
                batch = len(self._pending)
                self._pending = []
                self._published += batch
        elapsed = self._clock() - started
        perf.count("snapshot.publishes")
        perf.count("snapshot.queries_published", batch)
        perf.gauge("snapshot.epoch", published.number)
        perf.gauge("snapshot.publish_latency_s", elapsed)
        return elapsed

    def flush(self) -> float | None:
        """Publish any pending delta; None when there was nothing pending."""
        with self._lock:
            if not self._pending:
                return None
            return self.publish_pending()
