"""Performance: the HTTP front end under closed-loop load.

The workload an interactive search site actually sees — many concurrent
clients, few distinct queries — against a bench-scale table with the
result cache off, so every duplicate is real work unless the front end
coalesces it.  32 closed-loop clients send a duplicate-heavy mix with a
real request deadline; the front end coalesces concurrent duplicates
into one computation and tightens deadlines under pressure instead of
queueing unboundedly.

Gates, in order of how much host speed can move them:

* work counts (host-independent): every request is either computed by
  the service, coalesced onto another's computation, or shed —
  ``serve.requests + aserve.coalesced + aserve.shed == requests`` — and
  coalescing keeps the computed share at or under a quarter;
* accounting: every request answered, every shed request a counted 503;
* the tail: p99 stays inside the request deadline.

Appends ``serving_load`` to ``BENCH_partition.json``; the regression
gate (``benchmarks/compare_bench.py``) tracks ``async_req_ms`` (inverse
throughput) and ``p99_ms`` so both the capacity and the tail are pinned.
"""

from __future__ import annotations

from repro import perf
from repro.serving.aserve import start_in_thread
from repro.serving.loadgen import run_loadgen
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService
from repro.study.report import format_table

from benchmarks.test_perf_partition import _append_bench_record

#: Duplicate-heavy mix: 32 clients over 2 distinct queries.
MIX = (
    "SELECT * FROM ListProperty WHERE price <= 300000",
    "SELECT * FROM ListProperty WHERE bedroomcount = 3",
)

CLIENTS = 32
REQUESTS_PER_CLIENT = 3
DEADLINE_MS = 1000.0


def _fresh_service(bench_homes, bench_statistics) -> CategorizationService:
    # cache_capacity=0: a duplicate answered cheaply means the *front end*
    # deduplicated it, not the result cache.
    return CategorizationService(
        Relation(bench_homes, bench_statistics.copy()), cache_capacity=0
    )


def test_perf_serving_load(bench_homes, bench_statistics):
    perf.reset()
    perf.enable()
    try:
        handle = start_in_thread(
            _fresh_service(bench_homes, bench_statistics),
            max_inflight=8,
            max_queue=64,
            pressure_deadline_ms=DEADLINE_MS,
        )
        try:
            report = run_loadgen(
                handle.url,
                sqls=MIX,
                clients=CLIENTS,
                requests_per_client=REQUESTS_PER_CLIENT,
                deadline_ms=DEADLINE_MS,
                timeout_s=120.0,
            )
        finally:
            handle.stop()
        counters = dict(perf.ACTIVE.counters)
    finally:
        perf.disable()
        perf.reset()
    computed = counters.get("serve.requests", 0)
    coalesced = counters.get("aserve.coalesced", 0)
    shed = sum(
        value for key, value in counters.items() if key.startswith("aserve.shed")
    )

    print()
    print(
        format_table(
            ["req/s", "p50 ms", "p99 ms", "computed", "coalesced", "shed"],
            [
                [f"{report.throughput_rps:.1f}", f"{report.p50_ms:.1f}",
                 f"{report.p99_ms:.1f}", computed, coalesced, shed],
            ],
            title=(
                f"Closed-loop load: {CLIENTS} clients x "
                f"{REQUESTS_PER_CLIENT} requests, {len(MIX)} distinct queries"
            ),
        )
    )
    _append_bench_record(
        "serving_load",
        {
            "clients": CLIENTS,
            "requests": report.requests,
            "async_rps": round(report.throughput_rps, 2),
            # Inverse throughput so the gate's lower-is-better diff works.
            "async_req_ms": round(1000.0 / report.throughput_rps, 3),
            "p99_ms": round(report.p99_ms, 3),
            "computed": computed,
            "coalesced": report.coalesced,
            "shed": report.shed,
        },
    )

    # Zero dropped requests: every request sent got an HTTP answer (503s
    # included), never a transport error.
    assert report.responses == report.requests
    assert report.errors == 0
    # Every shed request is a counted 503, and vice versa.
    assert report.shed == shed
    # The duplicate-heavy mix must actually exercise the singleflight path.
    assert report.coalesced > 0
    assert coalesced >= report.coalesced
    # Work counts: each request was computed, coalesced or shed — exactly
    # one of the three — and coalescing kept computation to a quarter.
    # (A follower of a shed leader would count twice; 32 clients cannot
    # fill 8 executing + 64 waiting slots, so nothing is shed here.)
    assert computed + coalesced + shed == report.requests, (
        f"{computed} computed + {coalesced} coalesced + {shed} shed "
        f"!= {report.requests} requests"
    )
    assert computed <= report.requests // 4, (
        f"{computed} of {report.requests} requests computed; coalescing "
        f"should hold it to {report.requests // 4}"
    )
    # The tail stays inside the request deadline: shedding quality (rungs)
    # under pressure is what keeps p99 bounded.
    assert report.p99_ms <= DEADLINE_MS, (
        f"p99 {report.p99_ms:.1f} ms blew the {DEADLINE_MS:.0f} ms deadline"
    )
