"""Reference answers computed in-process, and the post-run checks.

The reference goes through the program's public APIs only: ``read_csv``
and ``preprocess_workload`` build the relation and the boot statistics,
then ``SelectQuery.execute``, ``CostBasedCategorizer.categorize`` and
``render_tree`` answer each distinct read, and ``CostModel.tree_cost_all``
scores the tree (Eq. 1 CostAll).  A served read is right when it carries
the reference ``row_count`` and, served at rung ``full`` against the boot
epoch, the reference rendering.
"""

from __future__ import annotations

import collections
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.algorithm import CostBasedCategorizer
from repro.core.config import PAPER_CONFIG
from repro.core.cost import CostModel
from repro.core.probability import ProbabilityEstimator
from repro.data.homes import list_property_schema
from repro.relational.csvio import read_csv
from repro.render.treeview import render_tree
from repro.sql.compiler import parse_query
from repro.workload.log import Workload
from repro.workload.model import WorkloadQuery
from repro.workload.preprocess import preprocess_workload

TABLE = "ListProperty"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Answer:
    row_count: int
    rendering_digest: str | None = None
    cost_all: float | None = None


class Reference:
    """The boot-epoch answers for one relation and statistics log."""

    def __init__(self, csv_path: Path, log_path: Path) -> None:
        self.table = read_csv(list_property_schema(), csv_path, backend="columnar")
        # The server's own parser reads the same file.
        self.log = Workload.load(log_path)
        self.statistics = preprocess_workload(
            self.log, self.table.schema, PAPER_CONFIG.separation_intervals
        )
        self.cost_model = CostModel(ProbabilityEstimator(self.statistics), PAPER_CONFIG)
        self._answers: dict[str, Answer] = {}

    def row_count(self, sql: str) -> int:
        answer = self._answers.get(sql)
        if answer is None:
            answer = self._answers[sql] = Answer(len(parse_query(sql).execute(self.table)))
        return answer.row_count

    def answer(self, sql: str) -> Answer:
        """Row count, rendering digest and CostAll of ``sql``'s tree."""
        answer = self._answers.get(sql)
        if answer is None or answer.rendering_digest is None:
            query = parse_query(sql)
            rows = query.execute(self.table)
            tree = CostBasedCategorizer(self.statistics, PAPER_CONFIG).categorize(rows, query)
            answer = self._answers[sql] = Answer(
                len(rows), digest(render_tree(tree)), self.cost_model.tree_cost_all(tree)
            )
        return answer

    def close(self) -> None:
        self.table.close()


def journal_form(sql: str) -> str:
    """The statement as the journal stores it (normalized SQL)."""
    return WorkloadQuery.from_sql(sql).to_sql()


@dataclass
class Verdict:
    """Outcome of the post-run checks."""

    attempted: int = 0
    failed: int = 0
    reasons: collections.Counter = field(default_factory=collections.Counter)
    parsed: dict = field(default_factory=dict)  # id(response) -> decoded body
    wrong: set = field(default_factory=set)  # id(response) of wrong answers

    def fail(self, reason: str, count: int = 1, response=None) -> None:
        self.failed += count
        self.reasons[reason] += count
        if response is not None:
            self.wrong.add(id(response))


def check_responses(responses: list, reference: Reference, boot_epoch: int) -> Verdict:
    """Check every response; each wrong one is one failed operation."""
    verdict = Verdict()
    last_epoch: dict[tuple[str, int], int] = {}
    for response in sorted(responses, key=lambda r: r.recv_ns):
        verdict.attempted += 1
        if response.status != 200:
            verdict.fail(response.error or f"http {response.status}")
            continue
        try:
            body = json.loads(response.body)
        except ValueError:
            verdict.fail("bad json")
            continue
        verdict.parsed[id(response)] = body
        if response.kind == "write":
            continue
        key = (response.phase, response.conn)
        if body.get("epoch", -1) < last_epoch.get(key, -1):
            verdict.fail("epoch went back", response=response)
            continue
        last_epoch[key] = body.get("epoch", -1)
        if body.get("row_count") != reference.row_count(response.sql):
            verdict.fail("row_count", response=response)
            continue
        if body.get("rung") == "full" and body.get("epoch") == boot_epoch:
            expected = reference.answer(response.sql).rendering_digest
            if digest(body.get("rendering", "")) != expected:
                verdict.fail("rendering", response=response)
    return verdict


def check_ingestion(
    verdict: Verdict,
    acked: list[str],
    health: dict,
    recorded_at_boot: int,
    journaled: list[str],
) -> None:
    """Conservation and durability of the acked ``/record`` calls."""
    recorded = health["recorded"] - recorded_at_boot
    if len(acked) != recorded:
        verdict.fail("acked != recorded", max(1, abs(len(acked) - recorded)))
    if health["published"] + health["pending"] + health.get("spilled", 0) != health["recorded"]:
        verdict.fail("published + pending != recorded")
    missing = collections.Counter(journal_form(sql) for sql in acked)
    missing.subtract(collections.Counter(journaled))
    lost = sum(count for count in missing.values() if count > 0)
    if lost:
        verdict.fail("acked write not journaled", lost)
