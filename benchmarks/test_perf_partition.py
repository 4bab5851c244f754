"""Performance: partition fast paths, hot-path caching, instrumentation.

Level construction is the categorizer's inner loop.  This module times

* one full-level partitioning through both RowSet APIs (generic per-row
  vs column-direct),
* the categorize hot path: the fresh build a serving cache miss runs
  against a re-build through a ``BuildMemo`` handle,
* the memory one categorization peaks at and the tree it keeps alive, as
  returned and as the result cache stores it (byte counts, not timings,
  so their gates do not depend on host speed),
* the memory a cold boot (``DatasetDescriptor.build``) peaks at and
  keeps, from a CSV file and a log file,
* the largest transient one search's selection allocates,
* the memory the categorical posting-list builds peak at and keep,
* the cost of the always-on instrumentation hooks when disabled.

Each bench appends its measurements to ``BENCH_partition.json`` at the
repo root so successive runs form a trajectory (the file is
machine-local and git-ignored; see docs/performance.md).
"""

import contextlib
import gc
import json
import time
import tracemalloc
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from statistics import median

from repro import perf
from repro.catalog import DatasetDescriptor
from repro.core.algorithm import CostBasedCategorizer
from repro.core.config import PAPER_CONFIG
from repro.core.memo import BuildMemo
from repro.relational.csvio import write_csv
from repro.relational.table import Table
from repro.relational.types import AttributeKind
from repro.serving.service import ResultCache
from repro.study.report import format_table
from repro.workload.preprocess import preprocess_workload

BENCH_TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_partition.json"

#: Acceptance floor for a ``BuildMemo`` re-build over a serving miss's
#: fresh build, at bench scale.
REQUIRED_SPEEDUP = 1.5

#: Acceptance ceiling for disabled-mode instrumentation overhead.
MAX_DISABLED_OVERHEAD = 0.05

#: Searches of the bench workload whose selections are traced.
SELECTION_QUERIES = 200

#: Acceptance ceiling for enabled-mode overhead: every counter, gauge and
#: span recorded, as ``repro serve`` runs.  Far looser than the disabled
#: bound (docs/observability.md#measured-overhead).
MAX_ENABLED_OVERHEAD = 0.50


def _timed(fn, repeats=5, statistic="median"):
    """Wall-clock ``fn`` ``repeats`` times; return the median (or min)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    if statistic == "min":
        return min(samples)
    return sorted(samples)[repeats // 2]


@contextlib.contextmanager
def _stubbed_perf():
    """Replace every perf hook with a no-op, as if never instrumented."""
    null_scope = contextlib.nullcontext()
    real = {name: getattr(perf, name) for name in ("count", "span")}
    perf.count = lambda name, value=1, **labels: None
    perf.span = lambda name: null_scope
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(perf, name, fn)


def _timed_vs_stubbed(fn, repeats=15):
    """Min wall-clock of ``fn`` instrumented vs perf-stubbed, interleaved.

    Alternating the two configurations within one loop cancels the slow
    drift (CPU frequency scaling, cache warming, noisy neighbors) that
    sequential min-of-N blocks are exposed to.
    """
    instrumented: list[float] = []
    stubbed: list[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        instrumented.append(time.perf_counter() - started)
        with _stubbed_perf():
            started = time.perf_counter()
            fn()
            stubbed.append(time.perf_counter() - started)
    return min(instrumented), min(stubbed)


def _paired_ratios(fn, pairs):
    """Per-pair instrumented / perf-stubbed wall-clock ratios of ``fn``.

    Each pair runs the two configurations back to back, and the side that
    runs first alternates from pair to pair, so warm-up and drift land on
    both sides alike.  The median of the pair ratios shrugs off the odd
    pair a noisy neighbor spoiled, where a min-of-N verdict hangs on the
    single fastest sample of each side.
    """
    ratios: list[float] = []
    for pair in range(pairs):
        seconds = {}
        for stubbed in (pair % 2 == 1, pair % 2 == 0):
            with _stubbed_perf() if stubbed else contextlib.nullcontext():
                started = time.perf_counter()
                fn()
                seconds[stubbed] = time.perf_counter() - started
        ratios.append(seconds[False] / seconds[True])
    return ratios


def _append_bench_record(bench, record):
    """Append one measurement to the BENCH_partition.json trajectory."""
    data = {"schema": "bench.partition.v1", "runs": []}
    if BENCH_TRAJECTORY.exists():
        try:
            loaded = json.loads(BENCH_TRAJECTORY.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                data = loaded
        except (ValueError, OSError):
            pass  # corrupt trajectory: start a fresh one
    data["runs"].append(
        {
            "bench": bench,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            **record,
        }
    )
    BENCH_TRAJECTORY.write_text(json.dumps(data, indent=2) + "\n")


def _tree_shape(node):
    return (
        len(node.rows),
        str(node.label),
        [_tree_shape(child) for child in node.children],
    )


def test_perf_partition_fast_path(benchmark, bench_homes):
    rows = bench_homes.all_rows()

    def generic():
        return rows.partition_by(lambda row: row["neighborhood"])

    def fast():
        return rows.partition_by_attribute("neighborhood", lambda value: value)

    generic_buckets = generic()
    fast_buckets = benchmark(fast)

    assert set(generic_buckets) == set(fast_buckets)
    for key in generic_buckets:
        assert generic_buckets[key].indices == fast_buckets[key].indices

    # Wall-clock comparison (median of a few runs each).
    generic_seconds = _timed(generic)
    fast_seconds = _timed(fast)
    print()
    print(
        format_table(
            ["path", "median seconds", "rows"],
            [
                ["partition_by (Row views)", f"{generic_seconds:.4f}", len(rows)],
                ["partition_by_attribute (column)", f"{fast_seconds:.4f}", len(rows)],
            ],
            title="Partition fast-path comparison",
        )
    )
    print(f"speedup: {generic_seconds / fast_seconds:.2f}x")
    _append_bench_record(
        "partition_fast_path",
        {
            "rows": len(rows),
            "generic_ms": round(generic_seconds * 1e3, 3),
            "fast_ms": round(fast_seconds * 1e3, 3),
            "speedup": round(generic_seconds / fast_seconds, 2),
        },
    )
    assert fast_seconds <= generic_seconds * 1.2, (
        "the fast path must not be slower than the generic one"
    )


def test_perf_categorize_hot_path_caching(
    bench_homes, bench_workload, bench_seattle_query
):
    """A ``BuildMemo`` handle must speed up re-categorizing >= 1.5x.

    Cold: the build a serving cache miss runs — the defaults, a fresh
    build and no ``BuildMemo`` handle, so every node's counts, sizes and
    partitionings are derived anew; the table's groupby index and the
    statistics' range and goodness memos are warm, as on a server.
    Warm: the defaults plus one ``BuildMemo`` handle across the calls —
    the handle's counts, sizes and partitionings all hit after the first
    call, which is the pattern of a caller that re-categorizes the same
    result set (an exploration UI re-rendering it, an M sweep).
    """
    query, rows = bench_seattle_query
    statistics = preprocess_workload(
        bench_workload, bench_homes.schema, PAPER_CONFIG.separation_intervals
    )
    categorizer = CostBasedCategorizer(statistics, PAPER_CONFIG)

    # Correctness first: both builds give the identical tree.
    memo = BuildMemo()
    cold_tree = categorizer.categorize(rows, query)
    warm_tree = categorizer.categorize(rows, query, memo=memo)
    assert _tree_shape(cold_tree.root) == _tree_shape(warm_tree.root)

    cold_seconds = _timed(lambda: categorizer.categorize(rows, query), repeats=5)
    warm_seconds = _timed(
        lambda: categorizer.categorize(rows, query, memo=memo), repeats=7
    )
    speedup = cold_seconds / warm_seconds

    print()
    print(
        format_table(
            ["build", "median seconds", "result rows"],
            [
                ["cold (serving miss: fresh, no handle)", f"{cold_seconds:.4f}",
                 len(rows)],
                ["warm (one BuildMemo handle)", f"{warm_seconds:.4f}", len(rows)],
            ],
            title="Categorize hot path: fresh build vs BuildMemo re-build",
        )
    )
    print(f"speedup: {speedup:.2f}x (required >= {REQUIRED_SPEEDUP}x)")
    _append_bench_record(
        "categorize_hot_path",
        {
            "table_rows": len(bench_homes),
            "workload_queries": len(bench_workload),
            "result_rows": len(rows),
            "cold_ms": round(cold_seconds * 1e3, 3),
            "warm_ms": round(warm_seconds * 1e3, 3),
            "speedup": round(speedup, 2),
        },
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_perf_categorize_retained_memory(bench_statistics, bench_seattle_query):
    """Bytes one categorization peaks at, and the bytes its tree keeps.

    ``build_peak_kb`` is the ``tracemalloc`` peak above the memory traced
    before the call: the build's permutation, its node memos (one level's
    at a time, plus the root's histograms) and the row lists of the node
    being partitioned.  ``retained_kb`` is the returned tree: nodes,
    labels, one packed permutation of the result's positions and a slice
    view per node.  ``cached_kb`` is the tree exactly as ``ResultCache``
    stores it, measured after ``put``; the cache adds no step, so it
    reads as ``retained_kb`` plus the entry.  Table- and
    statistics-level caches are warmed on a first result so that only
    the build's own memory is traced on a second, fresh result of the
    same query.  ``tracemalloc`` counts allocations, not pages, so the
    figures repeat across runs and hosts.
    """
    query, rows = bench_seattle_query
    categorizer = CostBasedCategorizer(bench_statistics, PAPER_CONFIG)
    perf.reset()
    perf.enable()
    try:
        tree = categorizer.categorize(query.execute(rows.table), query)
    finally:
        perf.disable()
    counters = dict(perf.get().counters)
    perf.reset()
    partition_calls = counters.get("partition.categorical.calls", 0) + counters.get(
        "partition.numeric.calls", 0
    )
    levels = tree.depth()
    del tree

    fresh = query.execute(rows.table)
    cache = ResultCache(capacity=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = categorizer.categorize(fresh, query)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        retained -= before
        peak -= before
        cache.put("bench", tree)
        gc.collect()
        cached = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(fresh) == len(rows) and tree.depth() == levels

    print()
    print(
        format_table(
            [
                "result rows",
                "build peak KiB",
                "retained KiB",
                "cached KiB",
                "partition calls",
                "levels",
            ],
            [
                [
                    len(rows),
                    f"{peak / 1024:.1f}",
                    f"{retained / 1024:.1f}",
                    f"{cached / 1024:.1f}",
                    partition_calls,
                    levels,
                ]
            ],
            title="Categorize memory",
        )
    )
    _append_bench_record(
        "categorize_memory",
        {
            "result_rows": len(rows),
            "build_peak_kb": round(peak / 1024, 1),
            "retained_kb": round(retained / 1024, 1),
            "cached_kb": round(cached / 1024, 1),
            "partition_calls": partition_calls,
            "levels": levels,
        },
    )
    # Only the chosen attribute is partitioned, and only on the nodes it
    # refines: one partition() call per internal node.
    assert partition_calls == sum(1 for node in tree.nodes() if not node.is_leaf)


def test_perf_cold_boot_memory(bench_homes, bench_workload, tmp_path):
    """Bytes a cold boot peaks at and keeps: the bench relation and log
    written to files, then built the way ``repro serve --data/--workload``
    builds them.

    The log is folded as it is read, so the peak is the table load plus
    the count tables, not the parsed log (about 2 KiB per query).  Byte
    counts from ``tracemalloc`` repeat across runs and hosts.
    """
    source = tmp_path / "homes.csv"
    log = tmp_path / "workload.sql"
    write_csv(bench_homes, source)
    bench_workload.save(log)
    descriptor = DatasetDescriptor(name="ListProperty", source=source, workload=log)
    gc.collect()
    tracemalloc.start()
    try:
        table, statistics = descriptor.build()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == len(bench_homes)
    assert statistics.total_queries == len(bench_workload)

    print()
    print(
        format_table(
            ["rows", "queries", "peak KiB", "retained KiB"],
            [
                [
                    len(table),
                    statistics.total_queries,
                    f"{peak / 1024:.1f}",
                    f"{retained / 1024:.1f}",
                ]
            ],
            title="Cold boot memory",
        )
    )
    _append_bench_record(
        "cold_boot",
        {
            "rows": len(table),
            "queries": statistics.total_queries,
            "peak_kb": round(peak / 1024, 1),
            "retained_kb": round(retained / 1024, 1),
        },
    )


def test_perf_selection_memory(bench_homes, bench_workload):
    """The largest transient one search's selection allocates.

    The first :data:`SELECTION_QUERIES` bench-workload searches run once
    untraced, which builds the posting lists they use (the store keeps
    those), then once each under ``tracemalloc``; the record keeps the
    largest peak above the memory traced before the call.  A selection
    seeded from a categorical ``IN``'s postings allocates about what its
    result holds; a scan allocates what its first conjunct keeps, which
    can be most of the table.  Byte counts repeat across runs and hosts.
    """
    searches = [
        logged.query for logged in islice(bench_workload, SELECTION_QUERIES)
    ]
    for search in searches:
        search.execute(bench_homes)
    gc.collect()
    largest = 0
    tracemalloc.start()
    try:
        for search in searches:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            search.execute(bench_homes)
            largest = max(largest, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()

    print()
    print(
        format_table(
            ["rows", "queries", "peak KiB"],
            [[len(bench_homes), len(searches), f"{largest / 1024:.1f}"]],
            title="Selection memory (largest of one search)",
        )
    )
    _append_bench_record(
        "selection_memory",
        {
            "rows": len(bench_homes),
            "queries": len(searches),
            "peak_kb": round(largest / 1024, 1),
        },
    )


def test_perf_postings_memory(bench_homes):
    """Bytes the bench relation's categorical posting-list builds peak at
    and keep.

    The relation is copied into a fresh table, so no posting list or
    whole-table value count is built yet; then each categorical
    attribute's ``groupby_index`` is built in turn under ``tracemalloc``.
    ``build_peak_kb`` is the largest peak of one build above the memory
    traced before it: the attribute's value counts, its packed positions
    and offsets, and whatever filling them holds besides.  ``kept_kb`` is
    what all the builds keep.  Byte counts repeat across runs and hosts.
    """
    schema = bench_homes.schema
    table = Table.from_columns(
        schema,
        {name: list(bench_homes.column(name)) for name in schema.names()},
        coerce=False,
    )
    names = [
        attribute.name
        for attribute in schema
        if attribute.kind is AttributeKind.CATEGORICAL
    ]
    builds = []
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for name in names:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            table.groupby_index(name)
            current, peak = tracemalloc.get_traced_memory()
            builds.append((name, peak - before, current - before))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    largest = max(peak for _, peak, _ in builds)

    print()
    print(
        format_table(
            ["attribute", "build peak KiB", "kept KiB"],
            [
                [name, f"{peak / 1024:.1f}", f"{held / 1024:.1f}"]
                for name, peak, held in builds
            ],
            title=f"Posting-list builds ({len(table)} rows)",
        )
    )
    _append_bench_record(
        "postings_memory",
        {
            "rows": len(table),
            "attributes": len(names),
            "build_peak_kb": round(largest / 1024, 1),
            "kept_kb": round(kept / 1024, 1),
        },
    )
    # One packed array per attribute: a build holds little beyond what
    # it keeps (per-value lists of ints held ~10x the kept bytes).
    for name, peak, held in builds:
        assert peak <= 2 * held, (name, peak, held)


def test_perf_instrumentation_disabled_overhead(
    bench_statistics, bench_seattle_query
):
    """Disabled instrumentation must cost <= 5% on the categorize hot path.

    Baseline: the same run with every perf hook stubbed to a no-op, i.e.
    as if the call sites were never instrumented.  Both sides run warm
    (caches populated) in 101 interleaved pairs; the gate reads the
    median of the per-pair instrumented / stubbed ratios.  Back-to-back
    runs of the ~20 ms path still differ by ±5–10 % on a shared 2-vCPU
    host, so fewer pairs leave the median too loose for a 5 % budget.
    """
    query, rows = bench_seattle_query
    categorizer = CostBasedCategorizer(bench_statistics, PAPER_CONFIG)

    def run():
        return categorizer.categorize(rows, query)

    run()  # populate every cache so both sides measure steady state
    assert not perf.enabled()
    ratios = _paired_ratios(run, pairs=101)

    overhead = median(ratios) - 1.0
    ordered = sorted(ratios)
    low, high = ordered[len(ordered) // 4], ordered[-1 - len(ordered) // 4]
    print()
    print(
        f"disabled-mode overhead over {len(ratios)} pairs: median "
        f"{overhead * 100:+.2f}% (quartiles {(low - 1) * 100:+.2f}% to "
        f"{(high - 1) * 100:+.2f}%; budget {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )
    _append_bench_record(
        "instrumentation_disabled_overhead",
        {"pairs": len(ratios), "overhead_pct": round(overhead * 100, 2)},
    )
    assert overhead <= MAX_DISABLED_OVERHEAD


def test_perf_instrumentation_enabled_overhead(
    bench_statistics, bench_seattle_query
):
    """Enabled instrumentation must cost <= 50% over uninstrumented.

    Enabled mode records every counter, gauge and span of every call, as
    ``repro serve`` runs it: the registry never samples.  The baseline
    is the same no-op-stub configuration the disabled-mode bench uses,
    i.e. code compiled as if never instrumented.
    """
    query, rows = bench_seattle_query
    categorizer = CostBasedCategorizer(bench_statistics, PAPER_CONFIG)

    def run():
        return categorizer.categorize(rows, query)

    run()  # populate caches: both sides measure steady state
    assert not perf.enabled()
    perf.enable()
    try:
        enabled, stubbed = _timed_vs_stubbed(run, repeats=15)
    finally:
        perf.reset()
        perf.disable()

    overhead = enabled / stubbed - 1.0
    print()
    print(
        format_table(
            ["configuration", "min seconds"],
            [
                ["enabled, every span recorded", f"{enabled:.4f}"],
                ["no-op stubs", f"{stubbed:.4f}"],
            ],
            title="Instrumentation enabled-mode overhead",
        )
    )
    print(
        f"overhead: {overhead * 100:+.2f}% "
        f"(budget {MAX_ENABLED_OVERHEAD * 100:.0f}%)"
    )
    _append_bench_record(
        "instrumentation_enabled_overhead",
        {
            "enabled_ms": round(enabled * 1e3, 3),
            "stubbed_ms": round(stubbed * 1e3, 3),
            "overhead_pct": round(overhead * 100, 2),
        },
    )
    assert enabled <= stubbed * (1.0 + MAX_ENABLED_OVERHEAD)
