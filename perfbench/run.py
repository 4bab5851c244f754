"""Serving benchmark: drive ``repro serve --async`` over HTTP, check every answer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore_cold --seed 1 --seconds 10 --trace 0

One run generates its inputs from ``--seed`` (a 100,000-row ListProperty
CSV, an 8,000-query statistics log and the request streams), boots the
server as a subprocess on those files, and drives it from this process
over at most ``nproc`` (and at most two) keep-alive connections:

1. set-up: boot (several times; ``setup_s`` is the median);
2. untimed warm-up;
3. open loop: Poisson arrivals on a fixed schedule, each request timed
   from when it was due;
4. closed loop: every connection sends its next request when the last
   returns, until a fixed batch is used up;
5. SIGTERM, then the post-run checks against in-process reference answers.

With ``--trace 0`` the last line of standard output is the JSON result
with every end-to-end metric; with ``--trace 1`` a second, traced boot
(``traced_serve.py``) replays the warm-up, open and closed loops and the
result carries the per-layer metrics.  README.md lists the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The program under test is this checkout's src/, never an installed copy.
sys.path.insert(0, str(SRC))
try:
    from httpdrive import Client
    from layers import LAYER_METRICS, attribute
    from reference import TABLE, Reference, check_ingestion, check_responses
    from repro.serving.journal import SpillJournal
    from serverproc import ServerProcess, free_port
    from workloads import (
        FULL,
        POPULAR_POOL_SEED,
        WORKLOADS,
        build_streams,
        distinct_queries,
        source_digest,
        write_relation,
    )
except ModuleNotFoundError as exc:  # not run from a checkout of the program
    sys.exit(f"error: cannot import the program from {SRC}: {exc}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


#: The percentiles a tail is read at.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten samples
    beyond it, by nearest rank.

    Returns ``(value, percentile)``; with fewer than ten samples beyond
    the median the maximum stands in, reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = [p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10]
    if not chosen:
        return ordered[-1], 100.0
    percentile = chosen[-1]
    return ordered[max(0, math.ceil(n * percentile / 100.0) - 1)], percentile


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4)


@dataclass
class Pass:
    """What one boot of the server saw."""

    setup_s: list[float] = field(default_factory=list)
    responses: dict = field(default_factory=dict)  # phase -> [Response]
    closed_elapsed_s: float = 0.0
    boot_health: dict = field(default_factory=dict)
    end_health: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    exit_code: int = 0
    state_dir: Path | None = None
    sink: Path | None = None
    spans_path: Path | None = None
    argv: list[str] = field(default_factory=list)

    def all(self) -> list:
        return [r for phase in self.responses.values() for r in phase]


class Run:
    """One benchmark run: one workload, one seed."""

    def __init__(self, workload, seed: int, seconds: float, scale):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.table = TABLE
        self.connections = min(2, nproc())
        self.work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.reference = None
        # One string-hash seed for every server: dict and set layouts, and
        # the work that depends on them, repeat from run to run.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.pristine: Path | None = None
        self._boots = 0
        self.timings: dict[str, float] = {}

    def prepare(self) -> None:
        """Inputs, reference and streams (the benchmark's own set-up)."""
        workload, seed, scale = self.workload, self.seed, self.scale
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        started = time.monotonic()
        self.csv, self.log_path = write_relation(WORK / "inputs", seed, scale)
        self.timings["inputs"] = time.monotonic() - started
        reference = self.reference = Reference(self.csv, self.log_path)
        self.timings["reference_load"] = time.monotonic() - started - self.timings["inputs"]
        popular = []
        if not workload.fresh:
            # The first searches whose result holds at most popular_max_rows.
            popular = distinct_queries(
                POPULAR_POOL_SEED,
                scale.popular,
                keep=lambda sql: reference.row_count(sql) <= scale.popular_max_rows,
            )
        logged = {query.to_sql() for query in reference.log}
        self.streams = build_streams(workload, seed, self.seconds, popular, logged)
        self.timings["streams"] = time.monotonic() - started - sum(self.timings.values())

    # -- servers ---------------------------------------------------------------

    def serve_args(self, port: int, state_dir: Path | None, sink: Path | None) -> list[str]:
        args = [
            "serve", "--async",
            "--dataset", f"{self.table}={self.csv},workload={self.log_path},backend=columnar",
            "--port", str(port),
            "--cache-size", str(self.scale.cache_size),
            "--batch-size", str(self.scale.batch_size),
        ]
        if state_dir is not None:
            args += ["--warm-start", str(state_dir), "--journal-fsync", "always"]
        if sink is not None:
            args += ["--telemetry-sink", str(sink), "--telemetry-sample", "0.1"]
        return args

    def boot(self, result: Pass, traced: bool = False):
        self._boots += 1
        tag = f"boot{self._boots}"
        port = free_port()
        if self.workload.warm_boot:
            result.state_dir = self.work / f"state-{tag}"
            shutil.copytree(self.pristine, result.state_dir)
            result.sink = self.work / f"telemetry-{tag}.jsonl"
        cli = self.serve_args(port, result.state_dir, result.sink)
        if traced:
            result.spans_path = self.work / f"spans-{tag}.json"
            argv = [sys.executable, str(HERE / "traced_serve.py"), str(result.spans_path), *cli]
        else:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        result.argv = argv
        server = ServerProcess(argv, self.env, self.work / f"server-{tag}.log", port)
        try:
            result.setup_s.append(server.start())
        except BaseException:
            server.stop()
            raise
        return server

    def prepare_state(self) -> None:
        """A cold boot with durable state, stopped: the warm boots' source."""
        self.pristine = self.work / "pristine"
        port = free_port()
        argv = [sys.executable, "-m", "repro.cli", *self.serve_args(port, self.pristine, None)]
        with ServerProcess(argv, self.env, self.work / "server-prepare.log", port) as server:
            server.start()

    # -- phases ----------------------------------------------------------------

    def drive(self, traced: bool, boots: int) -> Pass:
        """Boot ``boots`` times (the last one serves), warm up, run the
        open and closed loops; stop."""
        result = Pass()
        if self.workload.warm_boot and self.pristine is None:
            self.prepare_state()
        for _ in range(boots - 1):
            self.boot(result).stop()
        server = self.boot(result, traced)
        try:
            client = Client(
                "127.0.0.1", server.port, self.connections, self.workload.limit_ms, self.table
            )
            result.boot_health = server.get_json("/healthz")["tables"][self.table]
            streams = self.streams
            result.responses["warmup"] = client.sequential("warmup", streams["warmup"])
            result.responses["open"] = client.open_loop("open", streams["open_loop"])
            closed, elapsed = client.closed_loop(
                "closed",
                streams["closed_loop"],
                3 * self.workload.closed_seconds(self.seconds),
            )
            result.responses["closed"] = closed
            result.closed_elapsed_s = elapsed
            result.end_health = server.get_json("/healthz")["tables"][self.table]
            result.rss_mb = server.peak_rss_mb()
        finally:
            result.exit_code = server.stop()
        return result

    # -- checks ----------------------------------------------------------------

    def check(self, result: Pass):
        verdict = check_responses(result.all(), self.reference, result.boot_health["epoch"])
        if result.exit_code != 0:
            verdict.fail(f"server exit code {result.exit_code}")
        acked = [
            r.sql for r in result.all()
            if r.kind == "write" and r.status == 200
        ]
        if self.workload.warm_boot:
            check_ingestion(
                verdict, acked, result.end_health, result.boot_health["recorded"],
                self.journaled(result),
            )
        return verdict

    def journaled(self, result: Pass) -> list[str]:
        with SpillJournal(result.state_dir / self.table / "journal") as journal:
            return [sql for _, sql in journal.replay(0)]

    def journal_bytes(self, result: Pass) -> int:
        with SpillJournal(result.state_dir / self.table / "journal") as journal:
            return journal.size_bytes

    def close(self) -> None:
        if self.reference is not None:
            self.reference.close()
        shutil.rmtree(self.work, ignore_errors=True)


# -- metrics -------------------------------------------------------------------


def _reads(responses, phases=("open", "closed")):
    return [r for phase in phases for r in responses.get(phase, ()) if r.kind == "read"]


def end_to_end(run: Run, result: Pass, verdict) -> tuple[dict, dict, list[str]]:
    """The user-facing metrics of an untraced pass.

    Returns the metrics ``BENCHMARK.json`` gates, those only printed
    (read latency, goodput and write latency: too unsteady between runs
    on a shared 2-vCPU host to gate, see README.md), and report notes.
    """
    limit = run.workload.limit_ms
    bodies = verdict.parsed
    open_reads = _reads(result.responses, ("open",))
    latencies = [
        r.latency_ms if r.status == 200 else max(r.latency_ms, limit) for r in open_reads
    ]
    good = 0
    for r in _reads(result.responses, ("closed",)):
        body = bodies.get(id(r))
        if (
            body is not None
            and body.get("rung") == "full"
            and r.service_window_ms <= limit
            and id(r) not in verdict.wrong
        ):
            good += 1
    served = [bodies[id(r)] for r in _reads(result.responses) if id(r) in bodies]
    full = sum(1 for body in served if body.get("rung") == "full")
    costs = [run.reference.answer(sql).cost_all for sql in run.streams["reads"]]
    gated = {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "full_rung_share": (full / max(1, len(served)), "ratio"),
        "tree_cost_all": (statistics.mean(costs), "items"),
        "rss_mb": (result.rss_mb, "MB"),
    }
    tail, tail_pct = percentile_tail(latencies)
    printed = {
        "read_p50_ms": (statistics.median(latencies), "ms"),
        "read_tail_ms": (tail, "ms"),
        "goodput_rps": (good / max(result.closed_elapsed_s, 1e-9), "req/s"),
    }
    notes = [
        f"read_tail_ms is p{tail_pct:g} of {len(latencies)} open-loop reads",
        f"setup_s is the median of {len(result.setup_s)} boots: "
        + ", ".join(f"{s:.3f}" for s in result.setup_s),
        f"goodput_rps counts {good} of {len(_reads(result.responses, ('closed',)))} closed-loop "
        f"reads in {result.closed_elapsed_s:.2f} s",
    ]
    writes = [r.latency_ms for r in result.responses["open"] if r.kind == "write"]
    if writes:
        write_tail, write_pct = percentile_tail(writes)
        printed["write_p50_ms"] = (statistics.median(writes), "ms")
        printed["write_tail_ms"] = (write_tail, "ms")
        notes.append(f"write_tail_ms is p{write_pct:g} of {len(writes)} open-loop writes")
    return gated, printed, notes


def per_layer(run: Run, plain: Pass, traced: Pass, plain_verdict, traced_verdict):
    """The per-layer metrics and the add-up report of a traced run."""
    bodies = plain_verdict.parsed
    measured = plain.responses["open"] + plain.responses["closed"]
    reads = [r for r in measured if r.kind == "read"]
    read_bodies = [bodies[id(r)] for r in reads if id(r) in bodies]
    open_ok = [r for r in plain.responses["open"] if r.kind == "read" and id(r) in bodies]
    n_reads = max(1, len(read_bodies))
    trace = json.loads(traced.spans_path.read_text())
    traced_measured = traced.responses["open"] + traced.responses["closed"]
    attribution = attribute(trace, traced_measured, traced_verdict.parsed)
    p50_plain = statistics.median(r.latency_ms for r in plain.responses["open"] if r.kind == "read")
    p50_traced = statistics.median(
        r.latency_ms for r in traced.responses["open"] if r.kind == "read"
    )
    partitionings = attribution.span_counts.get("core.partition", 0.0)
    epochs = plain.end_health["epoch"] - plain.boot_health["epoch"]
    sink_lines = 0
    if plain.sink is not None:
        for path in plain.sink.parent.glob(plain.sink.name + "*"):
            with path.open("rb") as handle:
                sink_lines += sum(1 for _ in handle)
    acked_sql_bytes = sum(
        len(r.sql.encode()) for r in plain.all() if r.kind == "write" and r.status == 200
    )
    journal_ratio = 0.0
    if plain.state_dir is not None and acked_sql_bytes:
        journal_ratio = run.journal_bytes(plain) / acked_sql_bytes
    setup_spans = sum(attribution.setup.values())
    metrics = {
        "aserve.overhead_ms": (
            statistics.mean(r.service_window_ms - bodies[id(r)]["elapsed_ms"] for r in open_ok),
            "ms",
        ),
        "aserve.response_kb": (statistics.mean(len(r.body) for r in reads) / 1024.0, "KiB"),
        "aserve.coalesced": (sum(1 for b in read_bodies if b.get("coalesced")) / n_reads, "ratio"),
        "aserve.shed": (
            sum(1 for r in measured if r.status == 503) / max(1, len(measured)), "ratio"
        ),
        "service.ms": (statistics.mean(bodies[id(r)]["elapsed_ms"] for r in open_ok), "ms"),
        "service.cache_hit_ratio": (
            sum(1 for b in read_bodies if b.get("cached")) / n_reads, "ratio"
        ),
        "service.degraded": (
            sum(1 for b in read_bodies if b.get("rung") != "full") / n_reads, "ratio"
        ),
        "service.epochs": (epochs / max(1, len(measured)), "count/req"),
        "sql.parses_per_request": (attribution.span_counts.get("sql.parse", 0.0), "count/req"),
        "relational.result_rows": (statistics.mean(b["row_count"] for b in read_bodies), "rows"),
        "core.partitionings": (partitionings, "count/req"),
        "core.partition_useful_ratio": (
            attribution.internal_nodes / partitionings if partitionings else 0.0, "ratio"
        ),
        "journal.bytes_per_sql_byte": (journal_ratio, "ratio"),
        "snapshot.publishes": (attribution.span_counts.get("snapshot.publish", 0.0), "count/req"),
        "telemetry.events": (1000.0 * sink_lines / max(1, len(plain.all())), "count/1k-req"),
        "setup.load_s": (attribution.setup.get("setup.load_s", 0.0), "s"),
        "setup.log_s": (attribution.setup.get("setup.log_s", 0.0), "s"),
        "setup.preprocess_s": (attribution.setup.get("setup.preprocess_s", 0.0), "s"),
        "setup.warm_load_s": (attribution.setup.get("setup.warm_load_s", 0.0), "s"),
        "setup.other_s": (traced.setup_s[0] - setup_spans, "s"),
        "trace.unattributed_ms": (attribution.unattributed_ms, "ms"),
        "trace.overhead": (p50_traced / p50_plain - 1.0, "ratio"),
        "loadgen.late_ms": (
            statistics.mean((r.sent_ns - r.due_ns) / 1e6 for r in plain.responses["open"]),
            "ms",
        ),
    }
    for metric in LAYER_METRICS.values():
        metrics[metric] = (attribution.layers[metric], "ms")
    latency = attribution.latency_ms
    notes = [
        f"traced client latency {latency:.3f} ms over {attribution.joined} requests "
        f"({attribution.skipped} coalesced or unjoinable skipped); trace.overhead "
        f"{metrics['trace.overhead'][0]:+.3f}",
    ]
    for metric in [*LAYER_METRICS.values(), "trace.unattributed_ms"]:
        value = metrics[metric][0]
        share = 100 * value / latency if latency else 0.0
        notes.append(f"  {metric:<24} {value:10.4f} ms  {share:6.2f}%")
    total = sum(attribution.layers.values()) + attribution.unattributed_ms
    notes.append(
        f"add-up: layers + unattributed = {total:.4f} ms vs client {latency:.4f} ms; "
        f"{attribution.over_explained} requests over-explained -> "
        + ("ok" if attribution.adds_up else "FAILED")
    )
    core = sum(
        metrics[m][0] for m in ("core.categorize_ms", "core.partition_ms", "core.cost_ms",
                                "relational.select_ms")
    )
    share = 100 * core / latency if latency else 0.0
    notes.append(f"core.* + relational.select_ms: {share:.2f}% of traced latency")
    if trace["missing"]:
        notes.append("launcher could not wrap: " + ", ".join(trace["missing"]))
    return metrics, notes, attribution


# -- provenance ----------------------------------------------------------------


def provenance(run: Run, result: Pass) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    sizes = [run.reference.row_count(sql) for sql in run.streams["reads"]]
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "nproc": nproc(),
        "connections": run.connections,
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "server_argv": result.argv[1:],
        "rows": run.scale.rows,
        "log_queries": run.scale.log_queries,
        "distinct_reads": len(run.streams["reads"]),
        "result_rows_quartiles": quartiles(sizes),
        "cache_capacity": run.scale.cache_size,
        "open_rate_rps": run.workload.open_rate,
        "latency_limit_ms": run.workload.limit_ms,
    }


def execute(workload_name: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    """One run; returns the result object (last line) plus report lines."""
    run = Run(WORKLOADS[workload_name], seed, seconds, scale)
    try:
        run.prepare()
        boots = run.scale.warm_setup_boots if run.workload.warm_boot else run.scale.setup_boots
        started = time.monotonic()
        plain = run.drive(traced=False, boots=1 if trace else boots)
        run.timings["serve"] = time.monotonic() - started
        verdict = run.check(plain)
        run.timings["check"] = time.monotonic() - started - run.timings["serve"]
        lines = ["# provenance " + json.dumps(provenance(run, plain), sort_keys=True)]
        e2e, printed, notes = end_to_end(run, plain, verdict)
        if trace:
            traced = run.drive(traced=True, boots=1)
            traced_verdict = run.check(traced)
            metrics, layer_notes, attribution = per_layer(
                run, plain, traced, verdict, traced_verdict
            )
            verdict.attempted += traced_verdict.attempted
            verdict.failed += traced_verdict.failed
            verdict.reasons.update(traced_verdict.reasons)
            if not attribution.adds_up:
                verdict.fail("layers do not add up")
            notes += layer_notes
        else:
            metrics = e2e
        for name, (value, unit) in {**e2e, **printed}.items():
            lines.append(f"{workload_name} {name} = {value:.6g} {unit}")
        lines.append(
            f"{workload_name} error_rate = {verdict.failed / max(1, verdict.attempted):.6g} ratio "
            f"({verdict.failed} of {verdict.attempted} operations failed)"
        )
        if verdict.reasons:
            lines.append("failures: " + json.dumps(dict(verdict.reasons)))
        lines += [f"# {note}" for note in notes]
        lines.append(
            "# benchmark wall time by step (s): "
            + ", ".join(f"{step} {seconds:.1f}" for step, seconds in run.timings.items())
        )
        if trace:
            for name, (value, unit) in metrics.items():
                lines.append(f"{workload_name} {name} = {value:.6g} {unit}")
        return {
            "lines": lines,
            "result": {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            },
        }
    finally:
        run.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    outcome = execute(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
