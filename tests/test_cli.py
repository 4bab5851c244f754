"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro import perf
from repro.cli import load_schema, main


@pytest.fixture(scope="module")
def data_and_workload(tmp_path_factory):
    """Small CSV + workload files generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "homes.csv"
    workload = root / "workload.sql"
    assert main(["generate-data", "--rows", "2000", "--out", str(data)]) == 0
    assert (
        main(["generate-workload", "--queries", "1500", "--out", str(workload)])
        == 0
    )
    return data, workload


class TestGenerate:
    def test_data_file_written(self, data_and_workload):
        data, _ = data_and_workload
        header = data.read_text().splitlines()[0]
        assert "neighborhood" in header and "price" in header

    def test_workload_file_written(self, data_and_workload):
        _, workload = data_and_workload
        first = workload.read_text().splitlines()[0]
        assert first.startswith("SELECT")


class TestStats:
    def test_prints_usage_table(self, data_and_workload, capsys):
        _, workload = data_and_workload
        assert main(["stats", "--workload", str(workload)]) == 0
        out = capsys.readouterr().out
        assert "AttributeUsageCounts" in out
        assert "neighborhood" in out
        assert "OccurrenceCounts" in out


class TestCategorize:
    QUERY = (
        "SELECT * FROM ListProperty WHERE neighborhood IN "
        "('Queen Anne, WA', 'Ballard, WA', 'Capitol Hill, WA', "
        "'Fremont, WA', 'West Seattle, WA')"
    )

    def test_cost_based_run(self, data_and_workload, capsys):
        data, workload = data_and_workload
        code = main(
            [
                "categorize",
                "--data", str(data),
                "--workload", str(workload),
                "--query", self.QUERY,
                "--depth", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ALL [" in out
        assert "estimated CostAll" in out
        assert "technique=cost-based" in out

    @pytest.mark.parametrize("technique", ["attr-cost", "no-cost"])
    def test_baseline_techniques(self, data_and_workload, technique, capsys):
        data, workload = data_and_workload
        code = main(
            [
                "categorize",
                "--data", str(data),
                "--workload", str(workload),
                "--query", self.QUERY,
                "--technique", technique,
                "--depth", "1",
            ]
        )
        assert code == 0
        assert f"technique={technique}" in capsys.readouterr().out

    def test_knobs_accepted(self, data_and_workload, capsys):
        data, workload = data_and_workload
        code = main(
            [
                "categorize",
                "--data", str(data),
                "--workload", str(workload),
                "--query", self.QUERY,
                "--m", "50", "--k", "0.5", "--x", "0.3", "--buckets", "4",
            ]
        )
        assert code == 0

    def test_bad_query_is_reported(self, data_and_workload, capsys):
        data, workload = data_and_workload
        code = main(
            [
                "categorize",
                "--data", str(data),
                "--workload", str(workload),
                "--query", "SELECT FROM nope nope",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_reported(self, data_and_workload, capsys):
        _, workload = data_and_workload
        code = main(
            [
                "categorize",
                "--data", "/nonexistent.csv",
                "--workload", str(workload),
                "--query", self.QUERY,
            ]
        )
        assert code == 2

    def test_int_outside_int64_is_an_error_line(
        self, data_and_workload, tmp_path, capsys
    ):
        # The default columnar backend refuses it; main() must turn that
        # into an error line, not an uncaught OverflowError.
        data, workload = data_and_workload
        with data.open(newline="") as handle:
            records = list(csv.reader(handle))
        records[2][records[0].index("price")] = str(2**64)
        big = tmp_path / "big.csv"
        with big.open("w", newline="") as handle:
            csv.writer(handle).writerows(records)
        code = main(
            [
                "categorize",
                "--data", str(big),
                "--workload", str(workload),
                "--query", self.QUERY,
            ]
        )
        assert code == 2
        assert f"error: {big}:3: attribute 'price'" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_the_decision_trace(self, data_and_workload, capsys):
        data, workload = data_and_workload
        code = main(
            [
                "categorize",
                "--data", str(data),
                "--workload", str(workload),
                "--query", TestCategorize.QUERY,
                "--depth", "1",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CostAll" in out
        assert "CostOne" in out
        assert "<- chosen" in out

    def test_without_explain_no_trace_section(self, data_and_workload, capsys):
        data, workload = data_and_workload
        code = main(
            [
                "categorize",
                "--data", str(data),
                "--workload", str(workload),
                "--query", TestCategorize.QUERY,
                "--depth", "1",
            ]
        )
        assert code == 0
        assert "<- chosen" not in capsys.readouterr().out


class TestPerfReport:
    def _run(self, data, workload, *extra):
        return main(
            [
                "perf-report",
                "--data", str(data),
                "--workload", str(workload),
                "--query", TestCategorize.QUERY,
                *extra,
            ]
        )

    def test_text_report(self, data_and_workload, capsys):
        data, workload = data_and_workload
        assert self._run(data, workload) == 0
        out = capsys.readouterr().out
        assert "== perf report ==" in out
        assert "sql.queries_parsed" in out

    def test_prometheus_report(self, data_and_workload, capsys):
        data, workload = data_and_workload
        assert self._run(data, workload, "--format", "prometheus") == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sql_queries_parsed_total counter" in out
        assert "repro_categorize_result_size" in out

    def test_jsonl_report(self, data_and_workload, capsys):
        data, workload = data_and_workload
        assert self._run(data, workload, "--format", "jsonl") == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().split("\n")
        ]
        assert events[0]["type"] == "meta"
        assert any(e["type"] == "counter" for e in events)

    def test_sampling_flags(self, data_and_workload, capsys):
        data, workload = data_and_workload
        assert self._run(data, workload, "--sample-every", "10") == 0
        assert "sampling: every" in capsys.readouterr().out

    def test_global_registry_left_clean(self, data_and_workload):
        data, workload = data_and_workload
        assert self._run(data, workload) == 0
        assert not perf.enabled()
        assert not perf.get().counters
        assert perf.get().sampler.mode == "always"


class TestSchemaLoading:
    def test_default_schema(self):
        assert load_schema(None).name == "ListProperty"

    def test_custom_schema(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(
            json.dumps(
                {
                    "name": "Laptops",
                    "attributes": [
                        {"name": "brand", "type": "text", "kind": "categorical"},
                        {"name": "price", "type": "int"},
                    ],
                }
            )
        )
        schema = load_schema(path)
        assert schema.name == "Laptops"
        assert schema.attribute("brand").is_categorical
        assert schema.attribute("price").is_numeric

    def test_custom_schema_end_to_end(self, tmp_path, capsys):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps(
                {
                    "name": "Laptops",
                    "attributes": [
                        {"name": "brand", "type": "text"},
                        {"name": "price", "type": "int"},
                    ],
                }
            )
        )
        data = tmp_path / "laptops.csv"
        lines = ["brand,price"]
        for i in range(60):
            lines.append(f"Brand{i % 3},{500 + 10 * i}")
        data.write_text("\n".join(lines) + "\n")
        workload = tmp_path / "searches.sql"
        workload.write_text(
            "\n".join(
                ["SELECT * FROM Laptops WHERE brand IN ('Brand0')"] * 4
                + ["SELECT * FROM Laptops WHERE price BETWEEN 500 AND 800"] * 6
            )
            + "\n"
        )
        code = main(
            [
                "categorize",
                "--data", str(data),
                "--workload", str(workload),
                "--schema", str(schema_path),
                "--query", "SELECT * FROM Laptops WHERE price BETWEEN 500 AND 1000",
                "--m", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ALL [" in out


class TestServeAndRequest:
    @pytest.fixture(scope="class")
    def server(self, data_and_workload):
        """A live service over the CLI-generated files (free port)."""
        from repro.core.config import PAPER_CONFIG
        from repro.relational.csvio import read_csv
        from repro.serving.aserve import start_in_thread
        from repro.serving.relation import Relation
        from repro.serving.service import CategorizationService
        from repro.workload.log import Workload
        from repro.workload.preprocess import preprocess_workload

        data, workload_path = data_and_workload
        schema = load_schema(None)
        table = read_csv(schema, data)
        workload = Workload.load(workload_path)
        statistics = preprocess_workload(
            workload, schema, PAPER_CONFIG.separation_intervals
        )
        service = CategorizationService(Relation(table, statistics), batch_size=4)
        handle = start_in_thread(service)
        yield handle
        handle.stop()

    def test_request_health(self, server, capsys):
        code = main(["request", "--url", server.url, "--health"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"

    def test_request_categorize(self, server, capsys):
        code = main(
            [
                "request",
                "--url", server.url,
                "--sql", "SELECT * FROM ListProperty WHERE price <= 300000",
                "--deadline-ms", "5000",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rung"] in ("full", "truncated", "single_level", "showtuples")
        assert payload["trace_id"].startswith("req-")

    def test_request_batch(self, server, capsys):
        code = main(
            [
                "request",
                "--url", server.url,
                "--batch",
                "SELECT * FROM ListProperty WHERE price <= 300000",
                "SELECT * FROM ListProperty WHERE bedroomcount = 3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert len(payload["results"]) == 2
        assert {r["epoch"] for r in payload["results"]} == {payload["epoch"]}

    def test_request_batch_bad_statement_exits_nonzero(self, server, capsys):
        code = main(
            [
                "request",
                "--url", server.url,
                "--batch",
                "SELECT * FROM ListProperty WHERE price <= 300000",
                "SELECT FROM WHERE",
            ]
        )
        assert code == 2
        assert "batch statement 1" in capsys.readouterr().err

    def test_request_record(self, server, capsys):
        code = main(
            [
                "request",
                "--url", server.url,
                "--sql", "SELECT * FROM ListProperty WHERE bedroomcount = 3",
                "--record",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "recorded"

    def test_request_bad_sql_exits_nonzero(self, server, capsys):
        code = main(
            [
                "request",
                "--url", server.url,
                "--sql", "SELECT FROM WHERE",
            ]
        )
        assert code == 2
        # The wire error envelope is surfaced as "code: message".
        assert capsys.readouterr().err.startswith("SqlError: ")

    def test_request_without_sql_errors(self, capsys):
        assert main(["request"]) == 2
        assert "--sql" in capsys.readouterr().err

    def test_request_unreachable_server_errors(self, capsys):
        code = main(["request", "--url", "http://127.0.0.1:9", "--health"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_missing_data_reported(self, data_and_workload, capsys):
        _, workload = data_and_workload
        code = main(
            ["serve", "--data", "/nonexistent.csv", "--workload", str(workload)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRequestRepeatAndLoadgen:
    SQL = "SELECT * FROM ListProperty WHERE price <= 300000"

    @pytest.fixture(scope="class")
    def async_server(self, homes_table, statistics):
        """A live asyncio front end over the shared fixtures (free port)."""
        from repro.serving.aserve import start_in_thread
        from repro.serving.relation import Relation
        from repro.serving.service import CategorizationService

        service = CategorizationService(
            Relation(homes_table, statistics.copy()), batch_size=4
        )
        handle = start_in_thread(service, max_inflight=4)
        yield handle
        handle.stop()

    def test_request_health_against_async_server(self, async_server, capsys):
        code = main(["request", "--url", async_server.url, "--health"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_repeat_prints_latency_summary(self, async_server, capsys):
        code = main(
            [
                "request",
                "--url", async_server.url,
                "--sql", self.SQL,
                "--repeat", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "5 requests" in out
        assert "one keep-alive connection" in out
        assert "p50" in out and "p99" in out
        assert "last response (200)" in out
        assert '"rung"' in out

    def test_repeat_must_be_positive(self, async_server, capsys):
        code = main(
            [
                "request",
                "--url", async_server.url,
                "--sql", self.SQL,
                "--repeat", "0",
            ]
        )
        assert code == 2
        assert "--repeat" in capsys.readouterr().err

    def test_repeat_with_failures_exits_nonzero(self, async_server, capsys):
        code = main(
            [
                "request",
                "--url", async_server.url,
                "--sql", "SELECT FROM WHERE",
                "--repeat", "3",
            ]
        )
        assert code == 2
        assert "3 failed" in capsys.readouterr().out

    def test_loadgen_table_report(self, async_server, capsys):
        code = main(
            [
                "loadgen",
                "--url", async_server.url,
                "--clients", "2",
                "--requests", "2",
                "--sql", self.SQL,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput req/s" in out
        assert "latency p99 ms" in out

    def test_loadgen_json_report(self, async_server, capsys):
        code = main(
            [
                "loadgen",
                "--url", async_server.url,
                "--clients", "2",
                "--requests", "3",
                "--sql", self.SQL,
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] == 6
        assert payload["responses"] == 6
        assert payload["errors"] == 0

    def test_loadgen_unreachable_server_exits_nonzero(self, capsys):
        code = main(
            [
                "loadgen",
                "--url", "http://127.0.0.1:9",
                "--clients", "1",
                "--requests", "1",
                "--timeout", "2",
            ]
        )
        assert code == 1

    def test_serve_async_flags_parse(self, data_and_workload, capsys):
        # `--async` is a hidden no-op now that asyncio is the only front
        # end, but perfbench/run.py still passes it, so it must keep
        # parsing.  The bad data path keeps the command from binding a port.
        _, workload = data_and_workload
        code = main(
            [
                "serve",
                "--data", "/nonexistent.csv",
                "--workload", str(workload),
                "--async",
                "--max-inflight", "4",
                "--max-queue", "8",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_telemetry_flags_parse(self, data_and_workload, capsys):
        _, workload = data_and_workload
        code = main(
            [
                "serve",
                "--data", "/nonexistent.csv",
                "--workload", str(workload),
                "--telemetry-sink", "/tmp/events.jsonl",
                "--telemetry-sample", "0.25",
                "--telemetry-rotate-bytes", "4096",
                "--telemetry-fsync", "always",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestPerfReportJson:
    def test_json_document(self, data_and_workload, capsys):
        data, workload = data_and_workload
        code = main(
            [
                "perf-report",
                "--data", str(data),
                "--workload", str(workload),
                "--query", TestCategorize.QUERY,
                "--format", "json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {
            "sampling", "counters", "gauges", "timers", "histograms", "spans"
        }
        assert any(c["name"] == "sql.queries_parsed" for c in document["counters"])


class TestAudit:
    @staticmethod
    def _write_sink(path, events):
        lines = [json.dumps({"type": "meta", "schema": "repro.telemetry.v1"})]
        lines += [json.dumps(e) for e in events]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def _sink(cls, path, complete=True):
        events = [
            {
                "type": "frontend", "trace_id": "req-000001",
                "route": "/categorize", "status": 200, "outcome": "ok",
                "queue_ms": 1.0, "compute_ms": 4.0, "respond_ms": 0.2,
            }
        ]
        if complete:
            events.append(
                {
                    "type": "service", "trace_id": "req-000001",
                    "table": "ListProperty", "technique": "greedy",
                    "rung": "full", "cached": False, "chosen": ["price"],
                }
            )
        cls._write_sink(path, events)
        return path

    def test_text_report(self, tmp_path, capsys):
        sink = self._sink(tmp_path / "events.jsonl")
        assert main(["audit", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "Reconstruction" in out
        assert "Latency waterfall" in out

    def test_json_report_and_diff(self, tmp_path, capsys):
        sink = self._sink(tmp_path / "events.jsonl")
        baseline = self._sink(tmp_path / "baseline.jsonl")
        code = main(
            ["audit", str(sink), "--format", "json", "--diff", str(baseline)]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["report"]["requests"] == 1
        assert document["report"]["partial"] == 0
        assert document["diff"]["requests"] == {"current": 1, "baseline": 1}

    def test_strict_fails_on_partial_traces(self, tmp_path, capsys):
        sink = self._sink(tmp_path / "events.jsonl", complete=False)
        assert main(["audit", str(sink)]) == 0  # lax: report only
        assert main(["audit", str(sink), "--strict"]) == 1
        err = capsys.readouterr().err
        assert "strict: 1 partial trace(s)" in err

    def test_missing_sink_file_is_reported(self, tmp_path, capsys):
        code = main(["audit", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
