"""Regression gate over the BENCH_partition.json trajectory.

Compares the two most recent runs of each gated benchmark and fails
(exit code 1) when the newest run is more than ``--threshold`` slower
than the previous one.  This is the CI tripwire behind the perf-smoke
job: the trajectory file is restored from the previous run's cache, the
bench suite appends the current measurements, and this script diffs the
tail.

Usage::

    python benchmarks/compare_bench.py                      # gate defaults
    python benchmarks/compare_bench.py --threshold 0.1      # stricter
    python benchmarks/compare_bench.py --trajectory path.json

With fewer than two runs of a gated bench the script reports a baseline
note and exits 0 — a fresh machine (or an expired CI cache) must not
fail the build.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_partition.json"

#: Newest run may be at most this fraction slower than the previous one.
DEFAULT_THRESHOLD = 0.20

#: (bench name, lower-is-better metric) pairs gated by default.  Only
#: hot-path latency and memory metrics belong here: ratios like
#: ``speedup`` compare two same-machine timings and are gated by the
#: bench's own assertion.
GATED_METRICS: tuple[tuple[str, str], ...] = (
    ("categorize_hot_path", "warm_ms"),
    ("partition_fast_path", "fast_ms"),
    # Byte counts: steady across runs, so their 20 % budget is not noise.
    ("categorize_memory", "build_peak_kb"),
    ("categorize_memory", "retained_kb"),
    ("categorize_memory", "cached_kb"),
    ("cold_boot", "peak_kb"),
    ("cold_boot", "retained_kb"),
    ("selection_memory", "peak_kb"),
    ("postings_memory", "build_peak_kb"),
    ("serving_hot_path", "warm_ms"),
    ("columnar_scale", "columnar_ms"),
    ("serving_load", "async_req_ms"),
    ("serving_load", "p99_ms"),
    ("warm_start", "warm_boot_ms"),
    # Telemetry overhead gates on same-run ratios (installed vs no
    # pipeline), not raw microsecond latencies: on a ~50us warm path,
    # run-to-run machine drift alone can blow a 20% absolute budget.
    ("telemetry_overhead", "off_ratio"),
    ("telemetry_overhead", "sampled_ratio"),
)


def load_runs(trajectory: Path) -> list[dict]:
    """Load the trajectory's run list; empty when missing or malformed."""
    try:
        data = json.loads(trajectory.read_text())
    except (OSError, ValueError):
        return []
    runs = data.get("runs") if isinstance(data, dict) else None
    return runs if isinstance(runs, list) else []


def latest_two(runs: list[dict], bench: str, metric: str) -> list[float]:
    """The metric values of the two most recent runs of ``bench``."""
    values = [
        run[metric]
        for run in runs
        if run.get("bench") == bench and isinstance(run.get(metric), (int, float))
    ]
    return values[-2:]


def unit(metric: str) -> str:
    """The unit a gate line prints after ``metric``, from its name's suffix."""
    if metric.endswith("_ms"):
        return " ms"
    if metric.endswith("_kb"):
        return " KiB"
    if metric.endswith("_ratio"):
        return ""
    raise ValueError(f"metric {metric!r} ends in none of _ms, _kb, _ratio")


def check(runs: list[dict], bench: str, metric: str, threshold: float) -> bool:
    """Print one gate line; True when the gate passes (or has no baseline)."""
    values = latest_two(runs, bench, metric)
    if len(values) < 2:
        print(f"  {bench}.{metric}: no baseline ({len(values)} run(s)) -- skipping")
        return True
    previous, current = values
    if previous <= 0:
        print(f"  {bench}.{metric}: previous run is {previous}; cannot compare")
        return True
    change = current / previous - 1.0
    verdict = "OK" if change <= threshold else "REGRESSION"
    print(
        f"  {bench}.{metric}: {previous:.3f} -> {current:.3f}{unit(metric)} "
        f"({change * 100:+.1f}%, budget +{threshold * 100:.0f}%) {verdict}"
    )
    return change <= threshold


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when the newest bench run regressed past the threshold"
    )
    parser.add_argument(
        "--trajectory", type=Path, default=DEFAULT_TRAJECTORY,
        help="BENCH_partition.json path (default: repo root)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="maximum allowed slowdown as a fraction (default 0.20 = +20%%)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be >= 0")

    runs = load_runs(args.trajectory)
    print(f"bench regression gate: {args.trajectory} ({len(runs)} run(s))")
    passed = True
    for bench, metric in GATED_METRICS:
        passed &= check(runs, bench, metric, args.threshold)
    if not passed:
        print("FAIL: hot-path regression past the budget", file=sys.stderr)
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
