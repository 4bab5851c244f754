"""SIGKILL-under-load crash recovery: the durability tentpole, end to end.

A real `repro serve --warm-start` subprocess takes categorize
traffic from the load generator while the test records queries through
the public /record route — then dies by SIGKILL, the one signal no
handler can soften.  The contract under test (ISSUE: crash-safe
serving):

* every /record the server *acked* is in the spill journal on disk
  (journal-before-ack ordering held even mid-kill);
* a warm restart replays the journal and reports it on /healthz, and
  the conservation invariant (published + pending + spilled ==
  recorded) holds over the recovered state;
* the warm tree is byte-identical to a cold in-process rebuild from the
  same CSV + workload + journal (recovery is a no-op semantically);
* the warm boot is visible on /metrics (`repro_serve_warm_start 1`);
* SIGTERM then drains the recovered server to a clean exit 0.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import PAPER_CONFIG
from repro.data.homes import list_property_schema
from repro.relational.csvio import read_csv
from repro.render.treeview import render_tree
from repro.serving.journal import SpillJournal
from repro.serving.loadgen import connect_with_retry, run_loadgen
from repro.serving.relation import Relation
from repro.serving.service import CategorizationService
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload

SERVE_SQL = "SELECT * FROM ListProperty WHERE price <= 300000"

#: Distinct /record payloads — distinct so "which acked query vanished?"
#: has an unambiguous answer.
RECORD_SQLS = [
    f"SELECT * FROM ListProperty WHERE price <= {120000 + 15000 * n}"
    for n in range(12)
]

STARTUP_TIMEOUT_S = 60.0


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("crash-recovery")
    data, workload = root / "homes.csv", root / "workload.sql"
    assert main(["generate-data", "--rows", "2000", "--out", str(data)]) == 0
    assert main(["generate-workload", "--queries", "600", "--out", str(workload)]) == 0
    return data, workload


def _spawn_server(data: Path, workload: Path, state: Path, cwd: Path):
    return subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--data", str(data),
            "--workload", str(workload),
            "--port", "0",
            "--warm-start", str(state),
            "--batch-size", "8",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
        cwd=cwd,
    )


def _read_banner(process) -> tuple[str, str]:
    banner = process.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    assert match, f"no address in server banner: {banner!r}"
    return banner, match.group(0)


def _post_records(
    url: str, sqls: list[str] | None = None, table: str | None = None
) -> list[str]:
    """Record every payload; return only the *acked* ones."""
    parts = url.removeprefix("http://").split(":")
    connection = connect_with_retry(
        parts[0], int(parts[1]), timeout_s=STARTUP_TIMEOUT_S
    )
    acked = []
    try:
        for sql in sqls if sqls is not None else RECORD_SQLS:
            payload: dict = {"sql": sql}
            if table is not None:
                payload["table"] = table
            connection.request(
                "POST",
                "/record",
                json.dumps(payload),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            if response.status == 200:
                acked.append(sql)
    finally:
        connection.close()
    return acked


def _journal_contents(state: Path, table: str = "ListProperty") -> list[str]:
    journal = SpillJournal(state / table / "journal")
    try:
        return [sql for _seq, sql in journal.replay(0)]
    finally:
        journal.close()


def _get(url: str, path: str) -> str:
    with urllib.request.urlopen(f"{url}{path}", timeout=10) as response:
        return response.read().decode("utf-8")


def test_sigkill_under_load_then_warm_restart(data_files, tmp_path):
    data, workload = data_files
    state = tmp_path / "state"

    # -- boot cold, get killed under load ------------------------------------
    process = _spawn_server(data, workload, state, tmp_path)
    try:
        banner, url = _read_banner(process)
        assert "cold" in banner

        # Background categorize traffic so the kill lands mid-flight, not
        # on an idle process.
        load_thread = threading.Thread(
            target=run_loadgen,
            args=(url,),
            kwargs={
                "sqls": [SERVE_SQL],
                "clients": 4,
                "requests_per_client": 50,
                "timeout_s": STARTUP_TIMEOUT_S,
            },
            daemon=True,
        )
        load_thread.start()
        acked = _post_records(url)
        assert acked, "no /record was acked before the kill"
    finally:
        process.kill()  # SIGKILL: no handler, no drain, no flush
        process.wait(timeout=30)
    load_thread.join(timeout=STARTUP_TIMEOUT_S)
    assert process.returncode == -signal.SIGKILL

    # -- the journal survived the kill ---------------------------------------
    # Freeze the post-kill state before the warm server checkpoints it.
    frozen = tmp_path / "state-after-kill"
    shutil.copytree(state, frozen)
    journaled = _journal_contents(frozen)
    missing = set(acked) - set(journaled)
    assert not missing, f"acked but not journaled (lost on kill): {missing}"

    # -- warm restart: replay, conserve, converge ----------------------------
    process = _spawn_server(data, workload, state, tmp_path)
    try:
        banner, url = _read_banner(process)
        assert "warm boot" in banner

        health = json.loads(_get(url, "/healthz"))
        durability = health["durability"]
        assert durability["warm_start"] is True
        assert durability["replayed_on_boot"] == len(journaled)
        assert durability["journal_truncated_records"] == 0
        # Conservation across process death: nothing recorded vanished.
        assert (
            health["published"] + health["pending"] + health["spilled"]
            == health["recorded"]
        )
        assert health["recorded"] == len(journaled)

        # The warm tree must equal a cold in-process rebuild over the
        # same inputs: CSV + workload + the journaled queries.
        body = json.dumps({"sql": SERVE_SQL, "render": True})
        request = urllib.request.Request(
            f"{url}/categorize",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            answer = json.loads(response.read())
        schema = list_property_schema()
        reference = CategorizationService(
            Relation(
                read_csv(schema, data),
                preprocess_workload(
                    Workload.load(workload), schema, PAPER_CONFIG.separation_intervals
                ),
            ),
            batch_size=8,
        )
        for sql in journaled:
            reference.record_query(sql)
        reference.flush()
        expected = reference.categorize(SERVE_SQL)
        assert answer["rung"] == expected.rung
        assert answer["rendering"] == render_tree(expected.tree)

        # The warm boot is observable on the scrape.
        metrics = _get(url, "/metrics")
        assert re.search(
            r"^repro_serve_warm_start(?:\{[^}]*\})? 1(\.0)?$", metrics, re.M
        ), "warm-start gauge missing from /metrics"
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise

    # SIGTERM is the graceful path: drain, flush, checkpoint, exit 0.
    assert process.returncode == 0


# -- per-relation durability in a multi-table catalog -------------------------

MOVIES_RECORD_SQLS = [
    f"SELECT * FROM Movies WHERE year >= {1960 + 5 * n}" for n in range(8)
]


def _spawn_catalog_server(state: Path, cwd: Path):
    return subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--dataset", "ListProperty=@homes,rows=1000,workload_queries=400",
            "--dataset", "Movies=@movies,rows=1000,workload_queries=400",
            "--port", "0",
            "--warm-start", str(state),
            "--batch-size", "8",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
        cwd=cwd,
    )


def test_sigkill_with_two_relations_recovers_each_independently(tmp_path):
    """Each relation journals, replays, and snapshots on its own.

    Records land in BOTH tables before the SIGKILL; afterwards each
    table's journal must hold exactly its own acked queries (no
    cross-contamination), and the warm restart must report per-table
    replay counts and conservation on /healthz.
    """
    state = tmp_path / "state"

    process = _spawn_catalog_server(state, tmp_path)
    try:
        banner, url = _read_banner(process)
        assert "cold" in banner
        homes_acked = _post_records(url, RECORD_SQLS, table="ListProperty")
        movies_acked = _post_records(url, MOVIES_RECORD_SQLS, table="Movies")
        assert homes_acked and movies_acked
    finally:
        process.kill()
        process.wait(timeout=30)
    assert process.returncode == -signal.SIGKILL

    # Each relation's journal holds its own acks — and nothing else's.
    frozen = tmp_path / "state-after-kill"
    shutil.copytree(state, frozen)
    homes_journaled = _journal_contents(frozen, "ListProperty")
    movies_journaled = _journal_contents(frozen, "Movies")
    assert set(homes_acked) <= set(homes_journaled)
    assert set(movies_acked) <= set(movies_journaled)
    assert not set(homes_journaled) & set(MOVIES_RECORD_SQLS)
    assert not set(movies_journaled) & set(RECORD_SQLS)

    process = _spawn_catalog_server(state, tmp_path)
    try:
        banner, url = _read_banner(process)
        assert "warm boot" in banner

        health = json.loads(_get(url, "/healthz"))
        assert health["default_table"] == "ListProperty"
        for table, journaled in (
            ("ListProperty", homes_journaled),
            ("Movies", movies_journaled),
        ):
            table_health = health["tables"][table]
            durability = table_health["durability"]
            assert durability["warm_start"] is True, table
            assert durability["replayed_on_boot"] == len(journaled), table
            assert (
                table_health["published"]
                + table_health["pending"]
                + table_health["spilled"]
                == table_health["recorded"]
            ), table
            assert table_health["recorded"] == len(journaled), table

        # The per-table warm boot is observable on the scrape.
        metrics = _get(url, "/metrics")
        for table in ("ListProperty", "Movies"):
            assert re.search(
                r"^repro_serve_warm_start\{[^}]*table=\"%s\"[^}]*\} 1(\.0)?$"
                % table,
                metrics,
                re.M,
            ), f"warm-start gauge missing for {table}"
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise

    assert process.returncode == 0
