"""Reference row store: one Python list per attribute, the test oracle.

The layout the column store replaced, kept only so the equivalence tests
can compare :class:`~repro.relational.backends.ColumnStore` against it.
It has no fast paths: :meth:`RowStore.select_indices` hands the whole
predicate back for ``Table`` to evaluate row by row, whatever the view,
and :meth:`RowStore.bucket_numeric` gathers every value and bisects it.

A :class:`ReferenceTable` is filled from input rows or columns through
the schema's coercion, exactly like a ``Table``; it is never copied out
of a ``ColumnStore``, so a storage bug cannot leak into the oracle.

Its groupby and value counts key values as a dict does (0.0 and -0.0
share a key), except that every NaN counts under the one key
``math.nan``, as the column store's do: a dict would give each NaN
object a key of its own, since NaN != NaN.

Imports only the standard library and ``repro``: the benchmarks load it
without hypothesis installed.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import Counter
from typing import Any, Mapping, Sequence

from repro.relational.backends import index_typecode
from repro.relational.expressions import Predicate
from repro.relational.schema import TableSchema
from repro.relational.table import Table


class RowStore:
    """List-per-column storage; no vectorized paths, maximal generality."""

    def __init__(self, schema: TableSchema) -> None:
        self._columns: dict[str, list[Any]] = {name: [] for name in schema.names()}
        self._ordered: list[list[Any]] = [self._columns[n] for n in schema.names()]
        self._postings: dict[str, dict[Any, array]] = {}

    def column(self, name: str) -> list[Any]:
        return self._columns[name]

    def append_row(self, values: Sequence[Any]) -> None:
        for column, value in zip(self._ordered, values):
            column.append(value)
        self._postings.clear()

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        for name, column in self._columns.items():
            column.extend(columns[name])
        self._postings.clear()

    def gather(self, name: str, indices: Sequence[int]) -> list[Any]:
        column = self._columns[name]
        return [column[i] for i in indices]

    def groupby(self, name: str) -> dict[Any, array]:
        index = self._postings.get(name)
        if index is None:
            column = self._columns[name]
            typecode = index_typecode(len(column))
            buckets: dict[Any, list[int]] = {}
            for position, value in enumerate(column):
                key = value if value == value else math.nan
                buckets.setdefault(key, []).append(position)
            index = self._postings[name] = {
                value: array(typecode, ids) for value, ids in buckets.items()
            }
        return index

    def count_values(self, name: str, indices: Sequence[int]) -> dict[Any, int]:
        column = self._columns[name]
        return Counter(
            value if value == value else math.nan
            for value in map(column.__getitem__, indices)
        )

    def tally(self, name: str) -> dict[Any, int]:
        return self.count_values(name, range(len(self._columns[name])))

    def select_indices(
        self, predicate: Predicate, indices: Sequence[int]
    ) -> tuple[Sequence[int], Predicate]:
        return indices, predicate  # no fast path: evaluate row-at-a-time

    def bucket_numeric(
        self, name: str, indices: Sequence[int], boundaries: Sequence[float]
    ) -> tuple[list[list[int]], int]:
        # Gather values once and classify with a C-level bisect per value.
        values = self.gather(name, indices)
        low, high = boundaries[0], boundaries[-1]
        last = len(boundaries) - 2
        buckets: list[list[int]] = [[] for _ in range(last + 1)]
        dropped = 0
        bisect_right = bisect.bisect_right
        if all(map(math.isfinite, boundaries)):
            # NaN fails every comparison and ±inf is out of range, so
            # the range guard drops non-finite values for free here.
            for index, value in zip(indices, values):
                if value is not None and low <= value <= high:
                    buckets[
                        bisect_right(boundaries, value, 0, last + 1) - 1
                    ].append(index)
                else:
                    dropped += 1
        else:
            # Non-finite boundaries would wave NaN/±inf through to
            # bisect, whose order is undefined for them: guard per value.
            isfinite = math.isfinite
            for index, value in zip(indices, values):
                if (
                    value is not None
                    and isfinite(value)
                    and low <= value <= high
                ):
                    buckets[
                        bisect_right(boundaries, value, 0, last + 1) - 1
                    ].append(index)
                else:
                    dropped += 1
        return buckets, dropped


class ReferenceTable(Table):
    """A :class:`Table` stored in a :class:`RowStore`.

    Every ``Table`` constructor and loader (``from_rows``,
    ``from_columns``, ``insert``, ``extend``, ``load_columns``) works on
    it unchanged, with the same coercion.
    """

    def __init__(self, schema: TableSchema) -> None:
        super().__init__(schema)
        self._store = RowStore(schema)


#: The storage layouts under test, by the id parametrized tests print.
LAYOUTS: dict[str, type[Table]] = {"rows": ReferenceTable, "columnar": Table}
