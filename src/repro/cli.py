"""Command-line interface: categorize query results from the shell.

Subcommands::

    repro generate-data   --rows 20000 --out homes.csv
    repro generate-workload --queries 8000 --out workload.sql
    repro stats           --workload workload.sql
    repro categorize      --data homes.csv --workload workload.sql \
                          --query "SELECT * FROM ListProperty WHERE ..." \
                          [--technique cost-based] [--m 20] [--depth 3] \
                          [--explain]
    repro perf-report     --data homes.csv --workload workload.sql \
                          --query "SELECT ..." \
                          [--format text|prometheus|jsonl|json] \
                          [--sample-rate 0.5 | --sample-every 10]
    repro serve           --data homes.csv --workload workload.sql \
                          [--host 127.0.0.1 --port 8765] [--lenient-csv] \
                          [--async --max-inflight 8 --max-queue 32] \
                          [--warm-start state/ --journal-fsync always \
                           --grace 5] \
                          [--telemetry-sink events.jsonl \
                           --telemetry-sample 0.1]
    repro serve           --dataset ListProperty=homes.csv,workload=workload.sql \
                          --dataset Movies=@movies,rows=8000 \
                          [--default-table ListProperty]
    repro serve           --catalog catalog.toml
    repro audit           events.jsonl [events.jsonl.1 ...] \
                          [--format text|json] [--diff baseline.jsonl ...] \
                          [--table Movies] [--strict]
    repro request         --sql "SELECT ..." [--table Movies] [--deadline-ms 50] \
                          [--budget full] [--record | --health | --metrics] \
                          [--repeat N]
    repro request         --batch "SELECT ..." "SELECT ..." [--deadline-ms 200]
    repro loadgen         --url http://127.0.0.1:8765 --clients 32 --requests 10 \
                          [--sql "SELECT ..." ...] [--table Movies] \
                          [--deadline-ms 500] [--json]

One ``repro serve`` process can serve several relations (docs/catalog.md):
each ``--dataset NAME=SPEC`` or ``[datasets.NAME]`` TOML table opens an
independent relation — own epochs, result cache, spill journal, and
warm-start snapshots under ``--warm-start DIR/NAME/`` — and requests
address one via ``table=``.  Requests that name no table resolve to the
default relation and are answered with a ``Deprecation`` header.

``categorize``/``perf-report``/``serve`` load the relation into the packed
columnar store; ``--backend rows`` picks the one-list-per-attribute store
instead, the only one that holds INT values outside int64
(docs/storage.md).

``generate-data``/``generate-workload`` emit the synthetic MSN stand-ins;
``categorize`` works on any CSV whose schema is the built-in ListProperty
one or is described by ``--schema schema.json``::

    {"name": "Laptops",
     "attributes": [
        {"name": "brand", "type": "text", "kind": "categorical"},
        {"name": "price", "type": "int", "kind": "numeric"}]}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import perf
from repro.core.algorithm import CostBasedCategorizer
from repro.core.baselines import AttrCostCategorizer, NoCostCategorizer
from repro.core.config import CategorizerConfig, PAPER_CONFIG
from repro.core.cost import CostModel
from repro.core.probability import ProbabilityEstimator
from repro.data.homes import generate_homes, list_property_schema
from repro.relational.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.relational.csvio import read_csv, write_csv
from repro.relational.schema import TableSchema, read_schema_json
from repro.render.treeview import render_tree, summarize_tree
from repro.sql.compiler import parse_query
from repro.study.report import format_table
from repro.workload.generator import WorkloadGeneratorConfig, generate_workload
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload

TECHNIQUES = {
    "cost-based": CostBasedCategorizer,
    "attr-cost": AttrCostCategorizer,
    "no-cost": NoCostCategorizer,
}

BACKEND_HELP = (
    "table storage backend (default columnar; rows also stores INT "
    "values outside int64)"
)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # The subcommand's own usage lists the options it does take.
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.handler(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic categorization of query results (SIGMOD 2004)",
    )
    subparsers = parser.add_subparsers(required=True)

    data = subparsers.add_parser(
        "generate-data", help="write a synthetic ListProperty CSV"
    )
    data.add_argument("--rows", type=int, default=20_000)
    data.add_argument("--seed", type=int, default=7)
    data.add_argument("--out", type=Path, required=True)
    data.set_defaults(handler=_cmd_generate_data)

    wl = subparsers.add_parser(
        "generate-workload", help="write a synthetic SQL search log"
    )
    wl.add_argument("--queries", type=int, default=8_000)
    wl.add_argument("--seed", type=int, default=41)
    wl.add_argument("--out", type=Path, required=True)
    wl.set_defaults(handler=_cmd_generate_workload)

    stats = subparsers.add_parser(
        "stats", help="print the count tables of a workload (Figure 4a/4b)"
    )
    stats.add_argument("--workload", type=Path, required=True)
    stats.add_argument("--schema", type=Path, default=None)
    stats.add_argument("--top", type=int, default=10)
    stats.set_defaults(handler=_cmd_stats)

    cat = subparsers.add_parser(
        "categorize", help="categorize the results of one query"
    )
    cat.add_argument("--data", type=Path, required=True, help="CSV relation")
    cat.add_argument("--workload", type=Path, required=True, help="SQL log file")
    cat.add_argument("--query", required=True, help="SQL SELECT string")
    cat.add_argument("--schema", type=Path, default=None, help="schema JSON")
    cat.add_argument("--table", default=None, metavar="NAME",
                     help="relation name: picks the built-in schema "
                          "(ListProperty, Movies) when --schema is absent, "
                          "and cross-checks it otherwise")
    cat.add_argument(
        "--technique", choices=sorted(TECHNIQUES), default="cost-based"
    )
    cat.add_argument("--m", type=int, default=PAPER_CONFIG.max_tuples_per_category,
                     help="max tuples per un-partitioned category (M)")
    cat.add_argument("--k", type=float, default=PAPER_CONFIG.label_cost,
                     help="label cost relative to a tuple (K)")
    cat.add_argument("--x", type=float, default=PAPER_CONFIG.elimination_threshold,
                     help="attribute elimination threshold")
    cat.add_argument("--buckets", type=int, default=PAPER_CONFIG.bucket_count,
                     help="numeric buckets per partitioning (m)")
    cat.add_argument("--depth", type=int, default=None, help="render depth")
    cat.add_argument("--children", type=int, default=8,
                     help="children rendered per node")
    cat.add_argument("--explain", action="store_true",
                     help="print the per-level decision trace (candidates, "
                          "CostAll/CostOne, eliminations, chosen attribute)")
    cat.add_argument("--backend", choices=BACKEND_NAMES,
                     default=DEFAULT_BACKEND, help=BACKEND_HELP)
    cat.set_defaults(handler=_cmd_categorize)

    report = subparsers.add_parser(
        "perf-report",
        help="categorize with instrumentation on and dump the metrics",
    )
    report.add_argument("--data", type=Path, required=True, help="CSV relation")
    report.add_argument("--workload", type=Path, required=True, help="SQL log file")
    report.add_argument("--query", required=True, help="SQL SELECT string")
    report.add_argument("--schema", type=Path, default=None, help="schema JSON")
    report.add_argument(
        "--technique", choices=sorted(TECHNIQUES), default="cost-based"
    )
    report.add_argument("--m", type=int, default=PAPER_CONFIG.max_tuples_per_category)
    report.add_argument(
        "--format", choices=("text", "prometheus", "jsonl", "json"), default="text",
        help="output format for the collected metrics (json = the full "
             "registry as one machine-readable document)",
    )
    report.add_argument("--sample-rate", type=float, default=None,
                        help="trace sampling probability in [0, 1]")
    report.add_argument("--sample-every", type=int, default=None,
                        help="trace every Nth root span")
    report.add_argument("--backend", choices=BACKEND_NAMES,
                        default=DEFAULT_BACKEND, help=BACKEND_HELP)
    report.set_defaults(handler=_cmd_perf_report)

    serve = subparsers.add_parser(
        "serve", help="run the categorization service over HTTP"
    )
    serve.add_argument("--data", type=Path, default=None,
                       help="CSV relation (legacy single-table form; "
                            "pairs with --workload)")
    serve.add_argument("--workload", type=Path, default=None,
                       help="SQL log file for --data")
    serve.add_argument("--schema", type=Path, default=None, help="schema JSON")
    serve.add_argument("--dataset", action="append", default=None,
                       metavar="NAME=SPEC",
                       help="serve relation NAME from SPEC — a CSV path or "
                            "@generator, plus comma-separated key=value "
                            "options; repeatable (e.g. "
                            "Movies=@movies,rows=8000; docs/catalog.md)")
    serve.add_argument("--catalog", type=Path, default=None, metavar="TOML",
                       help="open every [datasets.NAME] relation in this "
                            "catalog TOML file (docs/catalog.md)")
    serve.add_argument("--default-table", default=None, metavar="NAME",
                       help="relation answering table-less (legacy) requests; "
                            "default: the catalog file's `default`, else the "
                            "first relation")
    serve.add_argument(
        "--technique", choices=sorted(TECHNIQUES), default="cost-based"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--batch-size", type=int, default=64,
                       help="ingested queries per epoch publish")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="result-cache capacity (0 disables)")
    serve.add_argument("--cache-ttl", type=float, default=300.0,
                       help="result-cache TTL in seconds")
    serve.add_argument("--lenient-csv", action="store_true",
                       help="skip malformed CSV rows instead of failing")
    serve.add_argument("--backend", choices=BACKEND_NAMES,
                       default=DEFAULT_BACKEND, help=BACKEND_HELP)
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="serve on the asyncio front end: keep-alive event "
                            "loop, request coalescing, load shedding "
                            "(docs/serving.md)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrent compute requests on the async front "
                            "end (executor slots)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="bounded admission queue; arrivals beyond it are "
                            "shed with 503 + Retry-After")
    serve.add_argument("--telemetry-sink", type=Path, default=None,
                       help="ship sampled request/decision events to this "
                            "rotating JSONL file (analyze with `repro audit`)")
    serve.add_argument("--telemetry-sample", type=float, default=1.0,
                       help="fraction of requests traced end-to-end, in "
                            "[0, 1] (deterministic per trace id; default 1.0)")
    serve.add_argument("--telemetry-rotate-bytes", type=int,
                       default=16 * 1024 * 1024,
                       help="rotate the sink after this many bytes "
                            "(default 16 MiB)")
    serve.add_argument("--telemetry-fsync",
                       choices=("never", "rotate", "always"), default="rotate",
                       help="sink durability: fsync never, on rotation/close "
                            "(default), or every event")
    serve.add_argument("--warm-start", type=Path, default=None, metavar="DIR",
                       help="durable state root: each relation keeps its own "
                            "spill journal plus table/stats snapshots under "
                            "DIR/<table>/; a relation boots warm when its "
                            "checksums/versions check out, falls back cold "
                            "(and replays its journal) otherwise, and "
                            "re-snapshots on graceful shutdown "
                            "(docs/serving.md)")
    serve.add_argument("--journal-fsync",
                       choices=("never", "rotate", "always"), default="always",
                       help="spill-journal durability: fsync every append "
                            "(default -- an acked /record survives SIGKILL), "
                            "on segment rotation, or never")
    serve.add_argument("--grace", type=float, default=5.0,
                       help="seconds SIGTERM waits for in-flight requests "
                            "to finish before exiting anyway")
    serve.set_defaults(handler=_cmd_serve)

    audit = subparsers.add_parser(
        "audit",
        help="join a telemetry sink's events per request and report "
             "latency waterfalls, rung/shed/coalesce mixes, cache hit "
             "ratios, and the tree-quality digest",
    )
    audit.add_argument("events", nargs="+", type=Path, metavar="EVENTS",
                       help="sink files (pass rotated segments too)")
    audit.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format")
    audit.add_argument("--diff", nargs="+", type=Path, default=None,
                       metavar="BASELINE",
                       help="baseline sink files to A/B against (rung mix, "
                            "chosen-attribute mix, cost margins)")
    audit.add_argument("--table", default=None, metavar="NAME",
                       help="restrict the report (and any --diff baseline) "
                            "to traces that touched this relation")
    audit.add_argument("--strict", action="store_true",
                       help="exit 1 when any trace is partial or any event "
                            "orphaned (the CI smoke contract)")
    audit.set_defaults(handler=_cmd_audit)

    req = subparsers.add_parser(
        "request", help="send one request to a running `repro serve`"
    )
    req.add_argument("--url", default="http://127.0.0.1:8765",
                     help="base URL of the service")
    req.add_argument("--sql", default=None, help="SQL SELECT to categorize")
    req.add_argument("--table", default=None, metavar="NAME",
                     help="relation to address; omitting it resolves to the "
                          "server's default table (and the response carries "
                          "a Deprecation header)")
    req.add_argument("--batch", nargs="+", metavar="SQL", default=None,
                     help="several SQL SELECTs served against one pinned "
                          "epoch via POST /categorize_batch")
    req.add_argument("--deadline-ms", type=float, default=None)
    req.add_argument("--budget", default="full",
                     help="best rung to pay for: full|single_level|showtuples")
    req.add_argument("--record", action="store_true",
                     help="ingest --sql into the workload instead of serving it")
    req.add_argument("--render", action="store_true",
                     help="include the rendered tree in the response")
    req.add_argument("--trace", action="store_true",
                     help="include the decision trace in the response")
    req.add_argument("--health", action="store_true", help="GET /healthz")
    req.add_argument("--metrics", action="store_true", help="GET /metrics")
    req.add_argument("--repeat", type=int, default=1,
                     help="send the request N times over one keep-alive "
                          "connection and print a latency summary (quick "
                          "manual load check)")
    req.set_defaults(handler=_cmd_request)

    lg = subparsers.add_parser(
        "loadgen",
        help="closed-loop load generator against a running `repro serve`",
    )
    lg.add_argument("--url", default="http://127.0.0.1:8765",
                    help="base URL of the service")
    lg.add_argument("--sql", nargs="+", metavar="SQL", default=None,
                    help="query mix cycled across clients (default: built-in "
                         "duplicate-heavy ListProperty mix)")
    lg.add_argument("--table", default=None, metavar="NAME",
                    help="relation every request addresses; omitting it "
                         "exercises the legacy default-table path")
    lg.add_argument("--clients", type=int, default=32,
                    help="concurrent closed-loop clients")
    lg.add_argument("--requests", type=int, default=10,
                    help="requests per client")
    lg.add_argument("--deadline-ms", type=float, default=None,
                    help="deadline forwarded on every request")
    lg.add_argument("--budget", default="full",
                    help="best rung to pay for: full|single_level|showtuples")
    lg.add_argument("--timeout", type=float, default=60.0,
                    help="per-request client timeout in seconds")
    lg.add_argument("--json", dest="as_json", action="store_true",
                    help="print the report as JSON instead of a table")
    lg.set_defaults(handler=_cmd_loadgen)
    for command in subparsers.choices.values():
        command.set_defaults(command_parser=command)
    return parser


# -- handlers --------------------------------------------------------------


def _cmd_generate_data(args) -> int:
    table = generate_homes(rows=args.rows, seed=args.seed)
    write_csv(table, args.out)
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def _cmd_generate_workload(args) -> int:
    workload = generate_workload(
        WorkloadGeneratorConfig(query_count=args.queries, seed=args.seed)
    )
    workload.save(args.out)
    print(f"wrote {len(workload)} queries to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    schema = load_schema(args.schema)
    workload = Workload.load(args.workload)
    statistics = preprocess_workload(
        workload, schema, PAPER_CONFIG.separation_intervals
    )
    print(
        format_table(
            ["Attribute", "NAttr(A)", "NAttr(A)/N"],
            [
                [name, count, f"{count / statistics.total_queries:.3f}"]
                for name, count in statistics.usage.as_rows()
            ],
            title=f"AttributeUsageCounts (N = {statistics.total_queries})",
        )
    )
    for attribute in schema.categorical_attributes():
        rows = statistics.occurrence_counts(attribute.name).as_rows()[: args.top]
        if not rows:
            continue
        print()
        print(
            format_table(
                ["Value", "occ(v)"],
                rows,
                title=f"OccurrenceCounts: {attribute.name} (top {args.top})",
            )
        )
    return 0


def _cmd_categorize(args) -> int:
    schema = load_schema(args.schema, table=args.table)
    table = read_csv(schema, args.data, backend=args.backend)
    workload = Workload.load(args.workload)
    config = CategorizerConfig(
        max_tuples_per_category=args.m,
        label_cost=args.k,
        elimination_threshold=args.x,
        bucket_count=args.buckets,
        separation_intervals=PAPER_CONFIG.separation_intervals,
    )
    statistics = preprocess_workload(workload, schema, config.separation_intervals)

    query = parse_query(args.query)
    rows = query.execute(table)
    print(f"result set: {len(rows)} of {len(table)} tuples")
    categorizer = TECHNIQUES[args.technique](statistics, config)
    tree = categorizer.categorize(rows, query, collect_trace=args.explain)
    print(summarize_tree(tree))
    print()
    print(render_tree(tree, max_depth=args.depth, max_children=args.children))

    model = CostModel(ProbabilityEstimator(statistics), config)
    print()
    print(f"estimated CostAll: {model.tree_cost_all(tree):.1f}")
    print(f"estimated CostOne: {model.tree_cost_one(tree):.1f}")
    print(f"uncategorized scan: {len(rows)}")
    if args.explain and tree.decision_trace is not None:
        print()
        print(tree.decision_trace.render())
    return 0


def _cmd_perf_report(args) -> int:
    schema = load_schema(args.schema)
    config = PAPER_CONFIG.with_overrides(max_tuples_per_category=args.m)
    perf.enable()
    try:
        if args.sample_rate is not None or args.sample_every is not None:
            perf.set_sampling(rate=args.sample_rate, every=args.sample_every)
        table = read_csv(schema, args.data, backend=args.backend)
        workload = Workload.load(args.workload)
        statistics = preprocess_workload(workload, schema, config.separation_intervals)
        query = parse_query(args.query)
        rows = query.execute(table)
        categorizer = TECHNIQUES[args.technique](statistics, config)
        tree = categorizer.categorize(rows, query)
        perf.gauge("categorize.result_size", len(rows))
        perf.gauge("categorize.tree_nodes", sum(1 for _ in tree.nodes()))
        if args.format == "prometheus":
            print(perf.export_prometheus(), end="")
        elif args.format == "jsonl":
            print(perf.export_jsonl(), end="")
        elif args.format == "json":
            print(perf.export_json(), end="")
        else:
            print(perf.format_report())
    finally:
        perf.clear_sampling()
        perf.reset()
        perf.disable()
    return 0


def _serve_descriptors(args):
    """Collect the dataset descriptors one ``repro serve`` should open.

    Three sources converge (catalog file, repeated ``--dataset`` flags,
    the legacy ``--data``/``--workload`` pair) and may be combined; the
    legacy pair becomes an ordinary descriptor named after its schema.
    """
    from repro.catalog import (
        DatasetDescriptor,
        load_catalog_file,
        parse_dataset_arg,
    )

    descriptors = []
    default = args.default_table
    if args.catalog is not None:
        from_file, file_default = load_catalog_file(args.catalog)
        descriptors.extend(from_file)
        if default is None:
            default = file_default
    for text in args.dataset or ():
        descriptors.append(parse_dataset_arg(text))
    if (args.data is None) != (args.workload is None):
        raise ValueError("--data and --workload go together")
    if args.data is not None:
        schema = load_schema(args.schema)
        descriptors.append(
            DatasetDescriptor(
                name=schema.name,
                source=args.data,
                workload=args.workload,
                schema=args.schema,
                backend=args.backend,
                technique=args.technique,
                lenient_csv=args.lenient_csv,
            )
        )
    if not descriptors:
        raise ValueError(
            "serve needs at least one relation: "
            "--data/--workload, --dataset NAME=SPEC, or --catalog TOML"
        )
    return descriptors, default


def _relation_summary(service) -> str:
    """One relation's banner fragment (rows, workload, boot story)."""
    health = service.health()
    durability = health["durability"]
    queries = service.store.pin().statistics.total_queries
    summary = (
        f"{service.name} ({health['table_rows']} rows, "
        f"{queries} workload queries)"
    )
    if durability["journal"]:
        boot = "warm" if durability["warm_start"] else "cold"
        summary += (
            f" [durable: {boot} boot, "
            f"journal seq {durability['journal_last_seq']}, "
            f"replayed {durability['replayed_on_boot']}]"
        )
    return summary


def _cmd_serve(args) -> int:
    from repro import telemetry
    from repro.catalog import open_catalog

    descriptors, default = _serve_descriptors(args)
    # Enabled before boot (not just before the first request) so recovery
    # metrics — journal.replayed, warmstart.fallback, serve.warm_start —
    # are visible on /metrics from the start.
    perf.enable()
    try:
        catalog = open_catalog(
            descriptors,
            default=default,
            state_root=args.warm_start,
            journal_fsync=args.journal_fsync,
            service_options=dict(
                batch_size=args.batch_size,
                cache_capacity=args.cache_size,
                cache_ttl_s=args.cache_ttl,
            ),
        )
    except BaseException:
        perf.disable()
        raise
    pipeline = None
    if args.telemetry_sink is not None:
        sink = telemetry.RotatingJsonlSink(
            args.telemetry_sink,
            max_bytes=args.telemetry_rotate_bytes,
            fsync_policy=args.telemetry_fsync,
        )
        pipeline = telemetry.install(
            telemetry.TelemetryPipeline(sink, sample_rate=args.telemetry_sample)
        )
    summaries = [_relation_summary(service) for service in catalog.services()]
    if len(summaries) == 1:
        banner = f"serving {summaries[0]}"
    else:
        banner = (
            f"serving {len(summaries)} relations "
            f"(default {catalog.default_name}): " + "; ".join(summaries)
        )
    if pipeline is not None:
        banner += (
            f" [telemetry -> {args.telemetry_sink}, "
            f"sample {args.telemetry_sample:g}]"
        )
    endpoints = (
        "endpoints: GET /healthz /metrics, "
        "POST /categorize /categorize_batch /record (table=...)"
    )
    try:
        if args.use_async:
            _serve_async(catalog, args, banner, endpoints)
        else:
            _serve_threading(catalog, args, banner, endpoints)
    finally:
        try:
            catalog.flush()
        except Exception as exc:  # a failed final publish must not mask exit
            print(f"warning: final flush failed: {exc}", file=sys.stderr)
        if args.warm_start is not None:
            # Graceful exit: snapshot each relation's final epoch and move
            # its journal watermark past it, so the next boot replays
            # nothing and a re-replay would be a no-op anyway.
            catalog.persist()
        if pipeline is not None:
            telemetry.uninstall()
            pipeline.close()  # drains the queue tail into the sink
        catalog.close()
        perf.disable()
    return 0


def _serve_threading(catalog, args, banner: str, endpoints: str) -> None:
    import signal
    import threading

    from repro.serving.http import drain, make_server

    server = make_server(catalog, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"{banner} on http://{host}:{port} [threading]")
    print(endpoints)
    terminated = threading.Event()

    def _on_sigterm(signum, frame):  # pragma: no cover - signal delivery
        if terminated.is_set():
            return
        terminated.set()
        # shutdown() blocks until the serve_forever loop exits; calling
        # it from the signal handler (which interrupts that very loop on
        # the main thread) would deadlock, so a helper thread does it.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        server.serve_forever()
        if terminated.is_set():
            print(f"draining (SIGTERM, grace {args.grace:g}s)")
            if not drain(server, grace_s=args.grace):
                print(
                    f"grace period expired with {server.inflight} "
                    "request(s) still in flight",
                    file=sys.stderr,
                )
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()


def _serve_async(catalog, args, banner: str, endpoints: str) -> None:
    import asyncio
    import contextlib
    import signal

    from repro.serving.aserve import AsyncFrontEnd

    async def main() -> None:
        frontend = AsyncFrontEnd(
            catalog, max_inflight=args.max_inflight, max_queue=args.max_queue
        )
        await frontend.start(args.host, args.port)
        host, port = frontend.address
        print(
            f"{banner} on http://{host}:{port} "
            f"[async, max-inflight {args.max_inflight}, "
            f"max-queue {args.max_queue}]"
        )
        print(endpoints)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # pragma: no cover - non-Unix loops
            pass
        try:
            stopper = asyncio.ensure_future(stop.wait())
            server_task = asyncio.ensure_future(frontend.serve_forever())
            await asyncio.wait(
                (stopper, server_task), return_when=asyncio.FIRST_COMPLETED
            )
            server_task.cancel()
            stopper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server_task  # re-raise a real serve_forever failure
            if stop.is_set():
                print(f"draining (SIGTERM, grace {args.grace:g}s)")
                if not await frontend.drain(args.grace):
                    print(
                        "grace period expired with requests still in flight",
                        file=sys.stderr,
                    )
        finally:
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.remove_signal_handler(signal.SIGTERM)
            await frontend.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")


def _error_line(body: str) -> str:
    """``code: message`` from a wire error envelope; the raw body otherwise."""
    try:
        error = json.loads(body)["error"]
        return f"{error['code']}: {error['message']}"
    except (ValueError, KeyError, TypeError):
        return body.strip()


def _cmd_request(args) -> int:
    import http.client
    import time
    from urllib.parse import quote, urlsplit

    base = args.url.rstrip("/")
    if args.health or args.metrics:
        method, path, body = "GET", "/healthz" if args.health else "/metrics", None
        if args.table is not None:
            path += f"?table={quote(args.table)}"
    elif args.batch:
        payload: dict = {
            "sqls": list(args.batch),
            "deadline_ms": args.deadline_ms,
            "budget": args.budget,
            "render": args.render,
            "trace": args.trace,
        }
        if args.table is not None:
            payload["table"] = args.table
        method, path, body = "POST", "/categorize_batch", json.dumps(payload)
    elif args.sql:
        path = "/record" if args.record else "/categorize"
        payload = {"sql": args.sql}
        if args.table is not None:
            payload["table"] = args.table
        if not args.record:
            payload.update(
                deadline_ms=args.deadline_ms,
                budget=args.budget,
                render=args.render,
                trace=args.trace,
            )
        method, body = "POST", json.dumps(payload)
    else:
        print("error: need --sql, --batch, --health, or --metrics", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2

    from repro.serving.loadgen import connect_with_retry

    # One keep-alive connection for every repeat: each extra request costs
    # a round trip, not a TCP handshake (the async server is built around
    # exactly this reuse).  The connect retries brief refusals so a client
    # launched next to `repro serve` does not lose the startup race.
    parts = urlsplit(base if "//" in base else f"http://{base}")
    try:
        connection = connect_with_retry(
            parts.hostname or "127.0.0.1", parts.port or 80, timeout_s=30
        )
    except OSError as exc:
        print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
        return 2
    headers = {"Content-Type": "application/json"} if body is not None else {}
    latencies_ms: list[float] = []
    failures = 0
    last_status, last_payload = 0, ""
    try:
        for _ in range(args.repeat):
            started = time.perf_counter()
            try:
                connection.request(method, path, body, headers)
                response = connection.getresponse()
                last_payload = response.read().decode("utf-8")
            except (OSError, http.client.HTTPException) as exc:
                print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
                return 2
            latencies_ms.append((time.perf_counter() - started) * 1000.0)
            last_status = response.status
            if last_status >= 400:
                failures += 1
    finally:
        connection.close()

    if args.repeat == 1:
        if last_status >= 400:
            print(_error_line(last_payload), file=sys.stderr)
            return 2
        print(last_payload, end="")
        return 0

    from repro.serving.loadgen import percentile

    ordered = sorted(latencies_ms)
    print(
        f"{args.repeat} requests to {path} over one keep-alive connection: "
        f"{args.repeat - failures} ok, {failures} failed"
    )
    print(
        f"latency ms: min {ordered[0]:.2f}  p50 "
        f"{percentile(latencies_ms, 0.5):.2f}  p99 "
        f"{percentile(latencies_ms, 0.99):.2f}  max {ordered[-1]:.2f}"
    )
    if last_status >= 400:
        print(f"last error ({last_status}):")
        print(_error_line(last_payload), file=sys.stderr)
    else:
        print(f"last response ({last_status}):")
        print(last_payload, end="")
    return 2 if failures else 0


def _cmd_audit(args) -> int:
    from repro.telemetry.audit import (
        audit_files,
        diff_reports,
        format_diff,
        format_report,
    )

    report = audit_files(args.events, table=args.table)
    diff = None
    if args.diff:
        diff = diff_reports(report, audit_files(args.diff, table=args.table))
    if args.format == "json":
        document = {"report": report}
        if diff is not None:
            document["diff"] = diff
        print(json.dumps(document, indent=2))
    else:
        print(format_report(report))
        if diff is not None:
            print()
            print(format_diff(diff))
    if args.strict and (report["partial"] or report["orphaned_events"]):
        print(
            f"strict: {report['partial']} partial trace(s), "
            f"{report['orphaned_events']} orphaned event(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_loadgen(args) -> int:
    from repro.serving.loadgen import DEFAULT_MIX, run_loadgen

    report = run_loadgen(
        args.url,
        sqls=args.sql or DEFAULT_MIX,
        clients=args.clients,
        requests_per_client=args.requests,
        deadline_ms=args.deadline_ms,
        budget=args.budget,
        timeout_s=args.timeout,
        table=args.table,
    )
    if args.as_json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        statuses = ", ".join(
            f"{status}: {count}"
            for status, count in sorted(report.status_counts.items())
        ) or "none"
        rungs = ", ".join(
            f"{rung}: {count}" for rung, count in sorted(report.rung_counts.items())
        ) or "none"
        error_codes = ", ".join(
            f"{code}: {count}"
            for code, count in sorted(report.error_code_counts.items())
        ) or "none"
        title = f"loadgen: {args.url}"
        if args.table is not None:
            title += f" (table {args.table})"
        print(
            format_table(
                ["metric", "value"],
                [
                    ["clients (closed loop)", report.clients],
                    ["requests sent", report.requests],
                    ["responses", report.responses],
                    ["transport errors", report.errors],
                    ["elapsed s", f"{report.elapsed_s:.3f}"],
                    ["throughput req/s", f"{report.throughput_rps:.1f}"],
                    ["latency p50 ms", f"{report.p50_ms:.2f}"],
                    ["latency p99 ms", f"{report.p99_ms:.2f}"],
                    ["statuses", statuses],
                    ["rungs", rungs],
                    ["error codes", error_codes],
                    ["coalesced responses", report.coalesced],
                    ["shed (503)", report.shed],
                ],
                title=title,
            )
        )
    if report.client_errors:
        for code, message in sorted(report.error_examples.items()):
            print(f"{code}: {message}" if message else code, file=sys.stderr)
    # A response for every request (503s included) is the contract: a
    # transport error means a request went unanswered, and a 4xx means
    # the run itself was misdirected (bad table, bad SQL).  Shed 503s
    # stay an expected answer under overload.
    return (
        1
        if report.errors
        or report.responses < report.requests
        or report.client_errors
        else 0
    )


def load_schema(path: Path | None, table: str | None = None) -> TableSchema:
    """Resolve a schema: JSON file, built-in by ``table`` name, or ListProperty.

    ``table`` picks a built-in schema (ListProperty, Movies) when no file
    is given, and cross-checks the file's table name when one is.
    """
    if path is None:
        if table is not None:
            from repro.catalog.descriptor import BUILTIN_SCHEMAS

            if table not in BUILTIN_SCHEMAS:
                raise ValueError(
                    f"no built-in schema named {table!r}; choose from "
                    f"{sorted(BUILTIN_SCHEMAS)} or pass --schema"
                )
            return BUILTIN_SCHEMAS[table]()
        return list_property_schema()
    schema = read_schema_json(path)
    if table is not None and schema.name != table:
        raise ValueError(
            f"--table {table!r} does not match the schema's table "
            f"{schema.name!r}"
        )
    return schema


if __name__ == "__main__":
    raise SystemExit(main())
