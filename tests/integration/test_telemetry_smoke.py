"""CI telemetry smoke: a real `repro serve` process, loadgen, audit.

The full production path, no shortcuts: the CLI boots the server
with a telemetry sink in a subprocess, a load generator drives it over
TCP, SIGINT triggers the clean-flush shutdown, and `repro audit
--strict` must reconstruct every sampled request from the sink with
zero orphaned events — with rung/shed/coalesce totals equal to the
scraped /metrics counters.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.serving.loadgen import run_loadgen

SERVE_SQL = "SELECT * FROM ListProperty WHERE price <= 300000"
LOG_SQL = "SELECT * FROM ListProperty WHERE bedroomcount = 3"

STARTUP_TIMEOUT_S = 60.0


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry-smoke")
    data, workload = root / "homes.csv", root / "workload.sql"
    assert main(["generate-data", "--rows", "2000", "--out", str(data)]) == 0
    assert main(["generate-workload", "--queries", "1500", "--out", str(workload)]) == 0
    return data, workload


def _counter(metrics: str, name: str) -> int:
    """Sum a Prometheus counter across its label series."""
    total = 0
    for line in metrics.splitlines():
        match = re.match(rf"{re.escape(name)}(?:{{[^}}]*}})? (\d+)", line)
        if match:
            total += int(match.group(1))
    return total


def test_serve_loadgen_sigint_audit_round_trip(data_files, tmp_path, capsys):
    data, workload = data_files
    sink = tmp_path / "events.jsonl"
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--data", str(data),
            "--workload", str(workload),
            "--port", "0",
            "--telemetry-sink", str(sink),
            "--telemetry-sample", "1.0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
        cwd=tmp_path,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, f"no address in server banner: {banner!r}"
        url = match.group(0)

        load = run_loadgen(
            url,
            sqls=[SERVE_SQL, LOG_SQL],
            clients=4,
            requests_per_client=5,
            timeout_s=STARTUP_TIMEOUT_S,
        )
        assert load.errors == 0
        assert load.responses == 20

        with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
            metrics = response.read().decode("utf-8")
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise

    assert process.returncode == 0
    assert sink.exists(), "clean shutdown must flush the sink"

    # Strict audit: every sampled request reconstructs, nothing orphaned.
    assert main(["audit", str(sink), "--format", "json", "--strict"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["requests"] == load.responses
    assert report["partial"] == 0
    assert report["orphaned_events"] == 0

    # The sink and the scrape tell the same story.
    assert report["shed"] == _counter(metrics, "repro_aserve_shed_total")
    assert report["coalesced"] == _counter(metrics, "repro_aserve_coalesced_total")
    assert sum(report["rungs"].values()) == _counter(metrics, "repro_serve_rung_total")
    assert report["shed"] == load.status_counts.get(503, 0)
    assert report["coalesced"] == load.coalesced
