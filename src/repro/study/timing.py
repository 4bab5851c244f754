"""Execution-time study (Figure 13).

The paper reports the categorization algorithm's average response time for
``M`` in {10, 20, 50, 100} over 100 workload queries with an average result
size around 2000.  Absolute times are machine-dependent; the shape —
runtime decreasing as ``M`` grows (larger M means fewer levels and fewer
oversized nodes to partition) — is what the reproduction checks.  Each
(M, query) is timed as one fresh build, as the paper times it and as a
serving cache miss runs it.

Timing is collected through :mod:`repro.perf` rather than ad-hoc
``time.perf_counter`` bookkeeping: each (M, query) categorization runs
under a per-M span of a study-local :class:`~repro.perf.Instrumentation`,
whose node counts the calls and seconds and whose duration histogram
gives the tail, so the study gets mean *and* tail latency (p95) from the
same machinery the rest of the engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.algorithm import CostBasedCategorizer
from repro.core.config import CategorizerConfig, PAPER_CONFIG
from repro.perf import Instrumentation
from repro.relational.table import Table
from repro.study.simulated import TechniqueFactory
from repro.workload.broadening import broaden_to_region
from repro.workload.log import Workload
from repro.workload.preprocess import preprocess_workload


@dataclass(frozen=True)
class TimingPoint:
    """Average categorization time for one value of M."""

    m: int
    queries_timed: int
    mean_seconds: float
    mean_result_size: float
    p95_seconds: float = 0.0


def run_timing_study(
    table: Table,
    workload: Workload,
    m_values: tuple[int, ...] = (10, 20, 50, 100),
    query_count: int = 100,
    seed: int = 29,
    config: CategorizerConfig = PAPER_CONFIG,
    technique: TechniqueFactory = CostBasedCategorizer,
) -> list[TimingPoint]:
    """Time the categorizer for each M over a sample of broadened queries.

    Count tables are built once (they do not depend on M); only tree
    construction is timed, matching the paper's "execution times of our
    hierarchical categorization algorithm".  Every (M, query) is one
    fresh build with no :class:`~repro.core.memo.BuildMemo`, so no M
    reuses what another derived.  M is interleaved across queries, each
    query starting the sweep one M further on, so that drift in the
    host's speed lands on every M alike.
    """
    statistics = preprocess_workload(workload, table.schema, config.separation_intervals)
    sampled = workload.sample(query_count, seed=seed)
    prepared = []
    for exploration in sampled:
        user_query = broaden_to_region(exploration)
        rows = user_query.query.execute(table)
        if len(rows) > 0:
            prepared.append((user_query.query, rows))

    # A study-local instrumentation keeps timing isolated from (and
    # unaffected by) the global ACTIVE registry's enabled state.
    inst = Instrumentation(enabled=True)
    categorizers = {
        m: technique(statistics, config.with_overrides(max_tuples_per_category=m))
        for m in m_values
    }
    sweep = tuple(m_values)
    for position, (query, rows) in enumerate(prepared):
        start = position % len(sweep)
        for m in sweep[start:] + sweep[:start]:
            with inst.span(f"study.timing[m={m}]"):
                categorizers[m].categorize(rows, query)

    mean_result_size = sum(len(rows) for _, rows in prepared) / max(1, len(prepared))
    points: list[TimingPoint] = []
    for m in sweep:
        span_name = f"study.timing[m={m}]"
        node = inst.spans.child(span_name)
        points.append(
            TimingPoint(
                m=m,
                queries_timed=node.calls,
                mean_seconds=node.seconds / max(1, node.calls),
                mean_result_size=mean_result_size,
                p95_seconds=(
                    inst.durations[span_name].quantile(0.95) if node.calls else 0.0
                ),
            )
        )
    return points
