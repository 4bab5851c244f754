"""Tests for the bench regression gate (benchmarks/compare_bench.py)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench",
    Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py",
)
compare_bench = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("compare_bench", compare_bench)
_SPEC.loader.exec_module(compare_bench)


def _write_trajectory(path, warm_values, fast_values=()):
    runs = [
        {"bench": "categorize_hot_path", "warm_ms": value}
        for value in warm_values
    ]
    runs += [
        {"bench": "partition_fast_path", "fast_ms": value}
        for value in fast_values
    ]
    path.write_text(json.dumps({"schema": "bench.partition.v1", "runs": runs}))
    return path


class TestGate:
    def test_regression_past_threshold_fails(self, tmp_path, capsys):
        trajectory = _write_trajectory(tmp_path / "t.json", [10.0, 12.5])
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_within_threshold_passes(self, tmp_path, capsys):
        trajectory = _write_trajectory(tmp_path / "t.json", [10.0, 11.9])
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 0
        assert "gate passed" in capsys.readouterr().out

    def test_improvement_passes(self, tmp_path):
        trajectory = _write_trajectory(tmp_path / "t.json", [10.0, 7.0])
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 0

    def test_custom_threshold(self, tmp_path):
        trajectory = _write_trajectory(tmp_path / "t.json", [10.0, 11.5])
        args = ["--trajectory", str(trajectory), "--threshold"]
        assert compare_bench.main(args + ["0.10"]) == 1
        assert compare_bench.main(args + ["0.20"]) == 0

    def test_compares_only_the_two_most_recent_runs(self, tmp_path):
        # ancient slow run is ignored; the latest pair is an improvement
        trajectory = _write_trajectory(tmp_path / "t.json", [100.0, 10.0, 9.5])
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 0

    def test_gates_the_fast_path_metric_too(self, tmp_path, capsys):
        trajectory = _write_trajectory(
            tmp_path / "t.json", [10.0, 10.0], fast_values=[2.0, 3.0]
        )
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 1
        assert "partition_fast_path.fast_ms" in capsys.readouterr().out


class TestNoBaseline:
    def test_missing_trajectory_passes(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert compare_bench.main(["--trajectory", str(missing)]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_single_run_passes(self, tmp_path, capsys):
        trajectory = _write_trajectory(tmp_path / "t.json", [10.0])
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_corrupt_trajectory_passes(self, tmp_path):
        trajectory = tmp_path / "t.json"
        trajectory.write_text("{not json")
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 0

    def test_runs_missing_the_metric_are_skipped(self, tmp_path):
        trajectory = tmp_path / "t.json"
        trajectory.write_text(
            json.dumps(
                {
                    "runs": [
                        {"bench": "categorize_hot_path"},
                        {"bench": "categorize_hot_path", "warm_ms": "fast"},
                    ]
                }
            )
        )
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 0


class TestValidation:
    def test_negative_threshold_rejected(self, tmp_path):
        trajectory = _write_trajectory(tmp_path / "t.json", [10.0, 10.0])
        with pytest.raises(SystemExit):
            compare_bench.main(
                ["--trajectory", str(trajectory), "--threshold", "-0.1"]
            )


class TestUnits:
    def _gate_line(self, tmp_path, capsys, bench, metric):
        runs = [{"bench": bench, metric: value} for value in (10.0, 10.0)]
        trajectory = tmp_path / "t.json"
        trajectory.write_text(json.dumps({"runs": runs}))
        assert compare_bench.main(["--trajectory", str(trajectory)]) == 0
        (line,) = [
            line for line in capsys.readouterr().out.splitlines()
            if f"{bench}.{metric}:" in line
        ]
        return line

    def test_kb_metric_prints_kib(self, tmp_path, capsys):
        line = self._gate_line(tmp_path, capsys, "cold_boot", "peak_kb")
        assert "cold_boot.peak_kb: 10.000 -> 10.000 KiB (" in line

    def test_ratio_metric_prints_no_unit(self, tmp_path, capsys):
        line = self._gate_line(tmp_path, capsys, "telemetry_overhead", "off_ratio")
        assert "telemetry_overhead.off_ratio: 10.000 -> 10.000 (" in line

    def test_ms_metric_prints_ms(self, tmp_path, capsys):
        line = self._gate_line(tmp_path, capsys, "categorize_hot_path", "warm_ms")
        assert "categorize_hot_path.warm_ms: 10.000 -> 10.000 ms (" in line

    def test_every_gated_metric_has_a_unit_suffix(self):
        for _, metric in compare_bench.GATED_METRICS:
            compare_bench.unit(metric)  # raises on an unknown suffix
        with pytest.raises(ValueError, match="_ms, _kb, _ratio"):
            compare_bench.unit("warm_seconds")
