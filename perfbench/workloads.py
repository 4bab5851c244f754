"""Workload definitions and the seeded inputs each run writes.

Three workloads share one relation and one statistics log, both generated
from ``--seed``.  The query *texts* a workload reads come from pools drawn
once from the repository's persona generator under fixed pool seeds and
are read in a fixed order on a fixed arrival schedule, so the figures
compare across seeds; ``--seed`` decides the relation, the log and the
queries written to ``/record``.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.data.homes import generate_homes
from repro.relational.csvio import write_csv
from repro.workload.generator import WorkloadGeneratorConfig, generate_workload

SRC = Path(__file__).resolve().parent.parent / "src"

#: Fixed generator seeds of the query pools (see the module docstring).
EXPLORE_POOL_SEED = 9_001
POPULAR_POOL_SEED = 9_002


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    rows: int = 100_000
    log_queries: int = 8_000
    popular: int = 64
    popular_max_rows: int = 2_000
    cache_size: int = 128
    batch_size: int = 64
    setup_boots: int = 3
    warm_setup_boots: int = 5


FULL = Scale()
TINY = Scale(
    rows=3_000,
    log_queries=600,
    popular=16,
    popular_max_rows=400,
    batch_size=16,
    setup_boots=1,
    warm_setup_boots=2,
)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against the shared relation.

    Attributes:
        name: the name reports and later changes cite.
        limit_ms: the latency limit, sent as every read's ``deadline_ms``.
        open_rate: open-loop Poisson arrival rate (req/s), well under the
            capacity measured at ``nproc`` connections (README.md).
        open_share: share of ``--seconds`` spent in the open loop; the
            closed loop is planned for the rest.
        closed_rate: sizes the closed loop's fixed batch (requests per
            planned second).  The batch is sent whole, for at most three
            times its planned time, so every run does the same work and
            ``goodput_rps`` is that work over its time.
        fresh: every read is a distinct search that misses the cache.
        record_every: one ``/record`` every this many requests (0 = none).
        warm_boot: boot from a prepared state directory, journal fsync on
            every append, telemetry sink at 10% sampling.
    """

    name: str
    limit_ms: float
    open_rate: float
    open_share: float
    closed_rate: float
    fresh: bool = False
    record_every: int = 0
    warm_boot: bool = False

    def open_count(self, seconds: float) -> int:
        return max(1, round(self.open_rate * seconds * self.open_share))

    def closed_seconds(self, seconds: float) -> float:
        """The closed loop's planned time."""
        return seconds * (1.0 - self.open_share)

    def closed_count(self, seconds: float) -> int:
        return max(1, math.ceil(self.closed_rate * self.closed_seconds(seconds)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="explore_cold",
            limit_ms=1000.0,
            open_rate=8.0,
            open_share=0.7,
            closed_rate=27.0,
            fresh=True,
        ),
        Workload(
            name="browse_hot",
            limit_ms=1000.0,
            open_rate=125.0,
            open_share=0.5,
            closed_rate=540.0,
        ),
        Workload(
            name="record_mix",
            limit_ms=1000.0,
            open_rate=40.0,
            open_share=0.48,
            closed_rate=250.0,
            record_every=5,
            warm_boot=True,
        ),
    )
}


@dataclass
class Request:
    """One request of a stream: a read (``/categorize``) or a write."""

    kind: str  # "read" or "write"
    sql: str
    due: float = 0.0  # seconds after the phase starts (open loop only)


def _seed(seed: int, stream: str) -> int:
    """A stable per-stream seed derived from the run's seed."""
    return random.Random(f"{seed}:{stream}").getrandbits(32)


def distinct_queries(seed: int, count: int, exclude=frozenset(), keep=None) -> list[str]:
    """``count`` distinct persona searches from the generator under ``seed``,
    skipping those in ``exclude`` and, given ``keep``, those it rejects."""
    found: list[str] = []
    seen = set(exclude)
    batch = max(64, count * 2)
    offset = 0
    while len(found) < count:
        workload = generate_workload(
            WorkloadGeneratorConfig(query_count=batch, seed=seed + offset)
        )
        for query in workload:
            sql = query.to_sql()
            if sql not in seen:
                seen.add(sql)
                if keep is None or keep(sql):
                    found.append(sql)
                    if len(found) == count:
                        break
        offset += 1
    return found


def source_digest() -> str:
    """A short SHA-256 of the code that makes the inputs: every module
    under ``src/`` and this file."""
    digest = hashlib.sha256()
    for path in [*sorted(SRC.rglob("*.py")), Path(__file__).resolve()]:
        digest.update(path.relative_to(SRC.parent).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def write_relation(cache: Path, seed: int, scale: Scale) -> tuple[Path, Path]:
    """The seeded CSV relation and statistics log, written once per seed.

    Runs of every workload with the same seed share them: the files land
    in ``cache/<source digest, seed and sizes>/`` (a temporary directory
    renamed into place), so a change to the code that makes them makes
    them afresh.
    """
    directory = cache / (
        f"{source_digest()}-seed{seed}-rows{scale.rows}-log{scale.log_queries}"
    )
    if not directory.is_dir():
        staging = directory.with_name(f"{directory.name}.{os.getpid()}.tmp")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        table = generate_homes(rows=scale.rows, seed=_seed(seed, "rows"), backend="columnar")
        write_csv(table, staging / "ListProperty.csv")
        table.close()
        log = generate_workload(
            WorkloadGeneratorConfig(query_count=scale.log_queries, seed=_seed(seed, "log"))
        )
        log.save(staging / "workload.sql")
        try:
            staging.rename(directory)
        except OSError:  # another run with this seed got there first
            shutil.rmtree(staging, ignore_errors=True)
    return directory / "ListProperty.csv", directory / "workload.sql"


def poisson_schedule(requests: list[Request], rate: float, rng: random.Random) -> None:
    """Stamp each request with a Poisson arrival time at ``rate`` req/s."""
    due = 0.0
    for request in requests:
        due += rng.expovariate(rate)
        request.due = due


def zipf_stream(items: list[str], count: int, rng: random.Random, s: float = 1.0) -> list[str]:
    """``count`` draws over ``items``; the item at rank r has weight 1/r^s."""
    cumulative = list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, len(items) + 1)))
    total = cumulative[-1]
    return [items[bisect.bisect(cumulative, rng.random() * total)] for _ in range(count)]


def mixed(reads, writes, every: int, count: int) -> list[Request]:
    """``count`` requests: one write in every ``every``, reads otherwise."""
    stream: list[Request] = []
    for position in range(count):
        if every and position % every == every - 1:
            stream.append(Request("write", next(writes)))
        else:
            stream.append(Request("read", next(reads)))
    return stream


def build_streams(
    workload: Workload, seed: int, seconds: float, popular: list[str], logged: set[str]
) -> dict:
    """The run's request streams; ``logged`` holds the statistics log's
    searches, which no ``/record`` repeats.

    Keys: ``reads`` (the distinct searches the measured phases read),
    ``warmup``, ``open_loop`` (Poisson-stamped), ``closed_loop`` (the
    closed loop's batch).
    """
    # The sequence of reads and their arrival times are part of the
    # workload's definition, like the pools: with seeded arrivals, which
    # reads queued behind explore_cold's slowest searches changed from
    # seed to seed, and its read p50 with it (33-81 ms over ten seeds).
    reads_rng = random.Random(f"{workload.name}:reads")
    arrivals_rng = random.Random(f"{workload.name}:arrivals")
    open_count = workload.open_count(seconds)
    closed_count = workload.closed_count(seconds)
    if workload.fresh:
        # Warm-up, open-loop and closed-loop searches are disjoint and
        # none repeats, so none hits the cache.
        pool = distinct_queries(EXPLORE_POOL_SEED, 8 + open_count + closed_count)
        warm, opened, closed = pool[:8], pool[8:8 + open_count], pool[8 + open_count:]
        streams = dict(
            reads=opened + closed,
            warmup=[Request("read", sql) for sql in warm],
            open_loop=[Request("read", sql) for sql in opened],
            closed_loop=[Request("read", sql) for sql in closed],
        )
    else:
        every = workload.record_every
        # record_mix's open loop holds fewer than ``batch_size`` writes, so
        # no epoch publishes there: one cache-refill burst decided its tail
        # (100-330 ms between runs of one seed).  Its closed-loop batch
        # holds five publishes, which goodput_rps pays for.
        writes = iter(
            distinct_queries(
                _seed(seed, "writes") % 1_000_000,
                (open_count + closed_count) // every + 1,
                logged,
            )
            if every
            else ()
        )
        streams = dict(
            reads=list(popular),
            warmup=[
                Request("read", sql)
                for sql in popular + zipf_stream(popular, len(popular), reads_rng)
            ],
            open_loop=mixed(
                iter(zipf_stream(popular, open_count, reads_rng)), writes, every, open_count
            ),
            closed_loop=mixed(
                iter(zipf_stream(popular, closed_count, reads_rng)), writes, every, closed_count
            ),
        )
    poisson_schedule(streams["open_loop"], workload.open_rate, arrivals_rng)
    return streams


