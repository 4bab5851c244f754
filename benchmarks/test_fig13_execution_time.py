"""Figure 13: categorizer execution time vs M in {10, 20, 50, 100}.

Paper: ~1 second average response time (on 2004 hardware, including count
table access) over 100 workload queries with average result size ~2000;
time decreases as M grows.

Reproduced shape: sub-second categorization at paper scale; runtime
non-increasing in M (larger M -> fewer oversized nodes and levels).
Each (M, query) is timed as one fresh build, M interleaved across
queries (``repro.study.timing``).
"""

from repro.study.report import format_table
from repro.study.timing import run_timing_study


def test_fig13_execution_time(benchmark, bench_homes, bench_workload, categorize_one):
    benchmark(categorize_one)

    points = run_timing_study(
        bench_homes,
        bench_workload,
        m_values=(10, 20, 50, 100),
        query_count=60,
        seed=29,
    )
    print()
    print(
        format_table(
            ["M", "mean seconds", "p95 seconds", "queries", "mean |result|"],
            [
                [p.m, f"{p.mean_seconds:.4f}", f"{p.p95_seconds:.4f}",
                 p.queries_timed, f"{p.mean_result_size:.0f}"]
                for p in points
            ],
            title="Figure 13: average execution time of cost-based categorization",
        )
    )
    print("(paper: ~1s at M=20 on 2004 hardware; decreasing in M)")

    by_m = {p.m: p.mean_seconds for p in points}
    assert by_m[10] >= by_m[100] * 0.8, "runtime should not grow with M"
    assert by_m[20] < 5.0, "categorization should be interactive-speed"
    assert all(p.queries_timed >= 30 for p in points)
