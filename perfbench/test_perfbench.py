"""Self-test of the benchmark instrument, at a tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs end to end against a real ``repro serve`` subprocess
on a 3,000-row relation; the run must be correct and report every named
metric with its unit.  A corrupted reference digest and a dropped acked
write must each surface as failures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from httpdrive import Response  # noqa: E402
from layers import attribute  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = run.execute(workload, 3, 2.0, False, TINY)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    outcome = run.execute(workload, 3, 2.0, True, TINY)
    result = outcome["result"]
    assert result["correct"], outcome["lines"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units("per_layer")
    assert any("add-up" in line and line.endswith("ok") for line in outcome["lines"])


def test_corrupted_reference_digest_is_reported_as_failure(monkeypatch):
    answer = reference.Reference.answer
    corrupted = set()

    def corrupt_first(self, sql):
        """The reference answer; the first search asked for gets a wrong digest."""
        if not corrupted:
            corrupted.add(sql)
        correct = answer(self, sql)
        if sql not in corrupted:
            return correct
        return dataclasses.replace(correct, rendering_digest=reference.digest("corrupted"))

    monkeypatch.setattr(reference.Reference, "answer", corrupt_first)
    outcome = run.execute("browse_hot", 3, 1.0, False, TINY)
    result = outcome["result"]
    assert not result["correct"] and result["failed"] >= 1
    assert any('"rendering"' in line for line in outcome["lines"])


def test_dropped_acked_write_is_reported_as_failure(monkeypatch):
    journaled = run.Run.journaled
    monkeypatch.setattr(run.Run, "journaled", lambda self, result: journaled(self, result)[1:])
    outcome = run.execute("record_mix", 3, 1.0, False, TINY)
    result = outcome["result"]
    assert not result["correct"] and result["failed"] >= 1
    assert any("acked write not journaled" in line for line in outcome["lines"])


def test_without_the_program_the_benchmark_fails_without_a_result():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "browse_hot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.percentile_tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.percentile_tail([float(i) for i in range(1, 201)]) == (190.0, 95.0)
    assert run.percentile_tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0)
    assert run.percentile_tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _response(trace_id: str, sent: int, recv: int) -> Response:
    return Response("open", "read", "SELECT 1", 0, sent, sent, recv, 200, trace_id, b"{}")


def test_layers_add_up_and_clip_to_the_client_window():
    # service [10, 90] holds select [20, 50]; render [95, 99] runs after
    # the response arrived at 92 and must not be charged.
    trace = {
        "spans": [
            [1, "relational.select", 20, 50, 2, "req-1"],
            [2, "service", 10, 90, 0, "req-1"],
            [3, "render", 95, 99, 0, "req-1"],
        ],
        "counts": [],
        "missing": [],
    }
    response = _response("req-1", 0, 92)
    result = attribute(trace, [response], {id(response): {}})
    assert result.joined == 1 and result.adds_up
    assert result.layers["relational.select_ms"] == pytest.approx(30e-6)
    assert result.layers["service.self_ms"] == pytest.approx(50e-6)
    assert result.layers["render.ms"] == 0.0
    assert result.unattributed_ms == pytest.approx(12e-6)


def test_spans_that_exceed_the_window_fail_the_add_up_check():
    trace = {
        "spans": [
            [1, "service", 0, 10_000_000, 0, "req-1"],
            [2, "sql.parse", 0, 10_000_000, 0, "req-1"],  # overlapping, not nested
        ],
        "counts": [],
        "missing": [],
    }
    response = _response("req-1", 0, 10_000_000)
    result = attribute(trace, [response], {id(response): {}})
    assert result.over_explained == 1 and not result.adds_up
