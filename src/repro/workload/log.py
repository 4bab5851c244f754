"""Workload collections: read, load, save, split.

A log file holds one SQL string per line (blank lines and ``--`` comments
allowed).  :func:`read_log` streams it, one :class:`WorkloadQuery` per
line, so that preprocessing can fold a log of any length without holding
it.  A :class:`Workload` is the materialized form: an ordered collection
with the file round-trip and the subset/holdout machinery the
cross-validated study needs (Section 6.2: "we remove those queries from
the workload and build the count tables based on the remaining
workload").
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.workload.model import WorkloadQuery


def _parse_lines(
    statements: Iterable[str], where: Callable[[int], str]
) -> Iterator[WorkloadQuery]:
    """Parse SQL strings lazily; blank and ``--`` lines are skipped.

    ``where(index)`` names the 0-based statement in the error raised when
    it fails to parse or normalize.
    """
    for index, sql in enumerate(statements):
        stripped = sql.strip()
        if not stripped or stripped.startswith("--"):
            continue
        try:
            query = WorkloadQuery.from_sql(stripped)
        except ValueError as exc:
            raise ValueError(f"{where(index)}: {exc}") from exc
        yield query


def read_log(path: str | Path) -> Iterator[WorkloadQuery]:
    """Stream a log file: one :class:`WorkloadQuery` per statement line.

    Each query is parsed when it is asked for, so a caller that folds
    the log (:func:`~repro.workload.preprocess.preprocess_workload`) holds
    one parsed query at a time.  The file is opened on the first ``next``
    and closed when the log is exhausted, fails, or is discarded.

    Raises:
        ValueError: ``"<path>:<line>: <reason>"`` (1-based line) for a
            statement that fails to parse or normalize.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        yield from _parse_lines(handle, lambda index: f"{path}:{index + 1}")


class Workload:
    """An ordered, immutable collection of logged queries."""

    def __init__(self, queries: Iterable[WorkloadQuery]) -> None:
        self._queries: tuple[WorkloadQuery, ...] = tuple(queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[WorkloadQuery]:
        return iter(self._queries)

    def __getitem__(self, index: int) -> WorkloadQuery:
        return self._queries[index]

    @classmethod
    def from_sql_strings(cls, statements: Iterable[str]) -> "Workload":
        """Parse an iterable of SQL strings; blank lines are skipped.

        Raises:
            ValueError: ``"workload entry <index>: <reason>"`` (0-based,
                blank and comment strings counted) for a string that fails
                to parse or normalize.
        """
        return cls(_parse_lines(statements, lambda index: f"workload entry {index}"))

    @classmethod
    def load(cls, path: str | Path) -> "Workload":
        """Load a whole log file into memory (see :func:`read_log`)."""
        return cls(read_log(path))

    def save(self, path: str | Path) -> None:
        """Write the workload as one SQL statement per line."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for query in self._queries:
                handle.write(query.to_sql() + "\n")

    def without(self, held_out: Sequence[WorkloadQuery]) -> "Workload":
        """Return a workload excluding the given queries (by identity).

        Identity (not equality) is intentional: real logs contain duplicate
        query strings, and holding out one user's query must not delete
        every identical query from the statistics basis.
        """
        excluded = {id(query) for query in held_out}
        return Workload(q for q in self._queries if id(q) not in excluded)

    def sample(self, count: int, seed: int = 0) -> list[WorkloadQuery]:
        """Draw ``count`` queries without replacement, deterministically."""
        if count > len(self._queries):
            raise ValueError(
                f"cannot sample {count} queries from a workload of {len(self)}"
            )
        rng = random.Random(seed)
        return rng.sample(list(self._queries), count)

    def disjoint_subsets(
        self, subset_count: int, subset_size: int, seed: int = 0
    ) -> list[list[WorkloadQuery]]:
        """Partition a random draw into disjoint subsets (Section 6.2).

        The simulated study uses "8 mutually disjoint subsets of 100
        synthetic explorations each".

        Raises:
            ValueError: if the workload is too small for the requested draw.
        """
        total = subset_count * subset_size
        drawn = self.sample(total, seed=seed)
        return [
            drawn[i * subset_size : (i + 1) * subset_size]
            for i in range(subset_count)
        ]

    def filter(self, predicate) -> "Workload":
        """Return the sub-workload of queries for which ``predicate(q)`` holds."""
        return Workload(q for q in self._queries if predicate(q))

    def __repr__(self) -> str:
        return f"Workload(queries={len(self)})"
