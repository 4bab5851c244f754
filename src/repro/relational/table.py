"""Column-oriented in-memory tables.

The engine stores each attribute as a column behind a pluggable
:class:`~repro.relational.backends.StorageBackend`:

* ``backend="rows"`` (default) — one plain Python list per attribute, the
  most forgiving layout and the fastest one for small tables;
* ``backend="columnar"`` — packed ``array.array`` numeric columns and
  dictionary-encoded TEXT/BOOL columns with column-at-a-time selection,
  built for paper-scale data (see ``docs/storage.md``);
* ``backend="sharded"`` — the columnar layout partitioned into
  shared-memory shards with selection/bucketing/grouping parallelized
  across a worker pool, for beyond-paper-scale tables.  Tune it with
  ``backend_options={"workers": N, ...}``; call :meth:`Table.close` (or
  drop the table) to release its shared memory.

Rows are materialized lazily as dicts or :class:`Row` views.  A
:class:`Table` owns its backend; selections return lightweight
:class:`RowSet` views (a table + a sequence of row indices) so that the
category tree can hold the ``tset`` of every node without copying tuple
data (paper Section 3.1: ``tset(C)`` is a subset of the result set R).

Bulk construction (:meth:`Table.from_columns`, :meth:`Table.from_rows`) is
the preferred loading path — it coerces column-wise and hands whole columns
to the backend, instead of paying per-row dict handling in an ``insert``
loop.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro import perf
from repro.relational.backends import make_backend
from repro.relational.expressions import Predicate, TruePredicate
from repro.relational.schema import Attribute, TableSchema

#: Index containers RowSet adopts without copying (all are immutable by
#: convention here: nobody mutates a RowSet's indices after construction).
_INDEX_SEQUENCES = (tuple, list, range, array)


class Row(Mapping[str, Any]):
    """A read-only mapping view of one tuple of a table.

    Implements the Mapping protocol so predicates can evaluate rows without
    the table having to materialize dicts.
    """

    __slots__ = ("_table", "_index")

    def __init__(self, table: "Table", index: int) -> None:
        self._table = table
        self._index = index

    def __getitem__(self, name: str) -> Any:
        return self._table.column(name)[self._index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.schema.names())

    def __len__(self) -> int:
        return len(self._table.schema)

    def as_dict(self) -> dict[str, Any]:
        """Materialize this row as a plain dict."""
        return dict(self)

    @property
    def index(self) -> int:
        """Position of this row in its owning table."""
        return self._index

    def __repr__(self) -> str:
        return f"Row({self.as_dict()!r})"


class Table:
    """An in-memory relation with column-oriented storage.

    Construction::

        table = Table(schema)                      # row backend
        table = Table(schema, backend="columnar")  # packed typed columns
        table.insert({"price": 250_000, "city": "Seattle"})
        table.extend(rows)

        # Bulk loads (preferred for anything larger than a handful of rows):
        table = Table.from_columns(schema, {"price": [...], "city": [...]})
        table = Table.from_rows(schema, dict_iterable, backend="columnar")

    Values are validated against the schema on insertion, so downstream code
    (partitioning, statistics) can assume type-clean columns.
    """

    def __init__(
        self,
        schema: TableSchema,
        backend: str = "rows",
        backend_options: Mapping[str, Any] | None = None,
    ) -> None:
        self.schema = schema
        self._backend = make_backend(backend, schema, **(backend_options or {}))
        self._size = 0
        self._groupby_indexes: dict[str, dict[Any, tuple[int, ...]]] = {}

    @property
    def backend_name(self) -> str:
        """The storage backend's registry name (``"rows"``/``"columnar"``/
        ``"sharded"``)."""
        return self._backend.name

    def close(self) -> None:
        """Release backend resources (sharded shm segments, worker pool).

        A no-op for the in-process backends; safe to call more than once.
        The table stays readable afterwards — the sharded backend falls
        back to its in-process base store.
        """
        close = getattr(self._backend, "close", None)
        if close is not None:
            close()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        schema: TableSchema,
        columns: Mapping[str, Sequence[Any]],
        backend: str = "rows",
        coerce: bool = True,
        backend_options: Mapping[str, Any] | None = None,
    ) -> "Table":
        """Build a table from whole columns — the bulk loading path.

        Every schema attribute must be present in ``columns`` and all
        columns must have equal length.  With ``coerce=True`` (default)
        each column is validated through the schema's data types; loaders
        whose values are already coerced (warm start) pass
        ``coerce=False`` to skip that pass.

        Raises:
            KeyError: on missing or unknown column names.
            ValueError: on ragged column lengths, or (with ``coerce=True``)
                the first uncoercible value, named as ``column 'a'[i]``.
        """
        _column_length(schema, columns)
        table = cls(schema, backend=backend, backend_options=backend_options)
        if coerce:
            columns = {
                attribute.name: _coerce_column(attribute, columns[attribute.name])
                for attribute in schema
            }
        table.load_columns(columns)
        return table

    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        rows: Iterable[Mapping[str, Any]],
        backend: str = "rows",
        backend_options: Mapping[str, Any] | None = None,
    ) -> "Table":
        """Build a table from row mappings by transposing to columns.

        Missing attributes become NULL.  Unlike :meth:`insert`, unknown
        keys are silently ignored — the bulk path trusts its producer
        (generators, joins) and skips the per-row validation that makes
        ``insert`` safe for hand-built rows.
        """
        names = schema.names()
        columns: dict[str, list[Any]] = {name: [] for name in names}
        appends = [(name, columns[name].append) for name in names]
        for row in rows:
            get = row.get
            for name, append in appends:
                append(get(name))
        return cls.from_columns(
            schema, columns, backend=backend, backend_options=backend_options
        )

    @classmethod
    def from_backend(
        cls, schema: TableSchema, backend: Any, size: int
    ) -> "Table":
        """Adopt an already-populated storage backend without copying.

        The warm-start path (`repro serve --warm-start`) deserializes a
        :class:`~repro.relational.backends.ColumnStore` straight from a
        snapshot file and wraps it here — re-running ``from_columns``
        would pay a per-value materialization pass that the snapshot
        format exists to avoid.  The caller vouches that ``backend``
        holds ``size`` coerced rows matching ``schema``.
        """
        table = cls.__new__(cls)
        table.schema = schema
        table._backend = backend
        table._size = size
        table._groupby_indexes = {}
        return table

    def insert(self, row: Mapping[str, Any]) -> None:
        """Append one tuple given as a mapping from attribute name to value.

        Missing attributes are stored as NULL (subject to nullability);
        unknown keys raise so that generator bugs surface early.
        Invalidates every cached groupby index.
        """
        unknown = set(row) - set(self.schema.names())
        if unknown:
            raise KeyError(
                f"unknown attributes {sorted(unknown)} for table {self.schema.name!r}"
            )
        # Coerce the whole row before touching any column: a mid-row
        # coercion failure must not leave the columns torn (callers that
        # catch and skip bad rows — read_csv(strict=False) — rely on this).
        values = [
            attribute.coerce(row.get(attribute.name))
            for attribute in self.schema
        ]
        self._backend.append_row(values)
        self._size += 1
        if self._groupby_indexes:
            self._groupby_indexes.clear()

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append many tuples."""
        for row in rows:
            self.insert(row)

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Append whole columns of already-coerced values to the table.

        The bulk append behind :meth:`from_columns` and ``read_csv``'s
        chunks: values go straight to the backend unvalidated, so the
        producer must have coerced them.  Invalidates every cached groupby
        index.

        Raises:
            KeyError: on missing or unknown column names.
            ValueError: on ragged column lengths.
        """
        length = _column_length(self.schema, columns)
        self._backend.load_columns(columns)
        self._size += length
        if self._groupby_indexes:
            self._groupby_indexes.clear()

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Row]:
        return (Row(self, i) for i in range(self._size))

    def row(self, index: int) -> Row:
        """Return the tuple at ``index`` as a read-only mapping view."""
        if not 0 <= index < self._size:
            raise IndexError(f"row index {index} out of range [0, {self._size})")
        return Row(self, index)

    def column(self, name: str) -> Sequence[Any]:
        """Return the full column for attribute ``name`` (do not mutate)."""
        try:
            return self._backend.column(name)
        except KeyError:
            raise KeyError(
                f"no attribute {name!r} in table {self.schema.name!r}; "
                f"available: {sorted(self.schema.names())}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        """Return the schema attribute called ``name``."""
        return self.schema.attribute(name)

    def groupby_index(self, name: str) -> Mapping[Any, tuple[int, ...]]:
        """value → ascending row indices for attribute ``name``, cached.

        Built on first use with one column scan and reused by every
        categorical partitioning across levels, nodes and repeated
        ``categorize`` calls; :meth:`insert` invalidates it.  NULLs are
        grouped under the ``None`` key so callers can decide whether a
        missing-value category exists.  Callers must not mutate the result.
        """
        index = self._groupby_indexes.get(name)
        if index is None:
            self.column(name)  # raise the helpful KeyError on unknown names
            perf.count("table.groupby_index.build")
            with perf.span("table.groupby_index.build"):
                index = self._backend.build_groupby(name)
            self._groupby_indexes[name] = index
        else:
            perf.count("table.groupby_index.hit")
        return index

    # -- relational operations ----------------------------------------------

    def select(self, predicate: Predicate) -> "RowSet":
        """Return the rows satisfying ``predicate`` as a view."""
        return self.all_rows().select(predicate)

    def all_rows(self) -> "RowSet":
        """Return a view of every row in the table."""
        return RowSet(self, range(self._size))

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialize the whole table as a list of dicts (tests, debugging)."""
        return [row.as_dict() for row in self]

    def __repr__(self) -> str:
        return (
            f"Table({self.schema.name!r}, rows={self._size}, "
            f"backend={self._backend.name!r})"
        )


def _column_length(schema: TableSchema, columns: Mapping[str, Sequence[Any]]) -> int:
    """The length shared by one column per schema attribute.

    Raises:
        KeyError: on missing or unknown column names.
        ValueError: on ragged column lengths.
    """
    names = schema.names()
    missing = [name for name in names if name not in columns]
    if missing:
        raise KeyError(f"missing columns {missing} for table {schema.name!r}")
    unknown = sorted(set(columns) - set(names))
    if unknown:
        raise KeyError(f"unknown attributes {unknown} for table {schema.name!r}")
    lengths = {name: len(columns[name]) for name in names}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"ragged columns for {schema.name!r}: {lengths}")
    return next(iter(lengths.values()), 0)


def _coerce_column(attribute: Attribute, values: Sequence[Any]) -> list[Any]:
    """Coerce one whole column, naming the offending position on failure."""
    coerce = attribute.coerce
    try:
        return [coerce(value) for value in values]
    except (TypeError, ValueError):
        # Re-scan to locate the failure for the error message; the happy
        # path above stays a bare C-speed comprehension.
        for position, value in enumerate(values):
            try:
                coerce(value)
            except (TypeError, ValueError) as exc:
                raise type(exc)(
                    f"column {attribute.name!r}[{position}]: {exc}"
                ) from exc
        raise  # pragma: no cover - first pass failed, second cannot pass


class RowSet:
    """An immutable view of a subset of a table's rows.

    This is the concrete representation of the paper's ``tset(C)``: the
    category tree stores one RowSet per node, all sharing the underlying
    table.  Further selections (drilling into a subcategory) narrow the
    index sequence without copying data.

    The index sequence is stored as whatever compact form produced it —
    a ``range`` for whole-table views, the backend's filtered list for
    selections, a tuple for explicit construction — and only materialized
    as a tuple when :attr:`indices` is read.
    """

    __slots__ = ("table", "_indices", "_indices_tuple", "_ascending", "_derived")

    def __init__(self, table: Table, indices: Iterable[int]) -> None:
        self.table = table
        if isinstance(indices, _INDEX_SEQUENCES):
            self._indices: Sequence[int] = indices
        else:
            self._indices = tuple(indices)
        self._indices_tuple: tuple[int, ...] | None = (
            self._indices if type(self._indices) is tuple else None
        )
        self._ascending: bool | None = None
        self._derived: dict[Any, Any] | None = None

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[Row]:
        return (Row(self.table, i) for i in self._indices)

    def __bool__(self) -> bool:
        return len(self._indices) > 0

    @property
    def indices(self) -> tuple[int, ...]:
        """Row positions (in the base table) contained in this view."""
        materialized = self._indices_tuple
        if materialized is None:
            materialized = self._indices_tuple = tuple(self._indices)
        return materialized

    @property
    def is_ascending(self) -> bool:
        """True when the view's indices are in ascending table order.

        Every RowSet produced by selection/partitioning from
        :meth:`Table.all_rows` is ascending; the flag is computed once and
        cached because the index-based partitioning fast path (which emits
        buckets in table order) is only equivalent to the scan path on
        ascending views.
        """
        ascending = self._ascending
        if ascending is None:
            ids = self._indices
            if isinstance(ids, range):
                ascending = ids.step > 0 or len(ids) <= 1
            else:
                iterator = iter(ids)
                next(iterator, None)
                ascending = all(a < b for a, b in zip(ids, iterator))
            self._ascending = ascending
        return ascending

    def derive(self, key: Any, build: Callable[[], Any]) -> Any:
        """Memoize an immutable derivation of this view under ``key``.

        The partitioners use this to cache per-(view, attribute) work —
        sorted value lists, min/max bounds, whole partitionings — directly
        on the view they derive from.  Because a RowSet is an immutable
        window over an append-only table (existing rows are never updated
        or deleted), any pure function of the view's rows stays valid for
        the view's lifetime, so entries never need invalidation; callers
        whose derivation also depends on external state (e.g. workload
        splitpoints) fold that state into ``key``.  Cached values are
        shared across repeated lookups and must not be mutated.
        """
        cache = self._derived
        if cache is None:
            cache = self._derived = {}
        try:
            value = cache[key]
        except KeyError:
            perf.count("rowset.derive.build")
            value = cache[key] = build()
        else:
            perf.count("rowset.derive.hit")
        return value

    def select(self, predicate: Predicate) -> "RowSet":
        """Return the sub-view of rows satisfying ``predicate``.

        The table's storage backend gets first crack at the predicate
        (column-at-a-time on the columnar backend); whatever it declines
        is evaluated row-at-a-time, so semantics never depend on the
        backend.
        """
        if isinstance(predicate, TruePredicate):
            return self
        table = self.table
        fast = table._backend.select_indices(predicate, self._indices)
        if fast is None:
            kept: Sequence[int] = [
                i for i in self._indices if predicate.matches(Row(table, i))
            ]
        else:
            kept, leftover = fast
            if leftover is not None:
                kept = [
                    i for i in kept if leftover.matches(Row(table, i))
                ]
        return RowSet(table, kept)

    def partition_by(
        self, classify: Callable[[Row], Any]
    ) -> dict[Any, "RowSet"]:
        """Split this view into disjoint sub-views keyed by ``classify(row)``.

        A single pass over the rows — this is what makes building one level
        of the category tree O(|tset|) rather than O(|tset| * #categories).

        NULL-handling contract: rows classified as ``None`` belong to **no
        bucket** and are silently dropped from the partitioning (e.g. NULL
        attribute values, or numeric values outside every bucket's range —
        neither has a category label).  The union of the returned views is
        therefore a subset, not a partition, of this view; callers that
        need the NULL rows ask for them explicitly (the missing-value
        category selects ``attribute IS NULL``).  Each call emits the
        number of dropped rows on the ``partition.dropped_rows`` perf
        counter so silent data loss is observable.
        """
        table = self.table
        buckets: dict[Any, list[int]] = {}
        dropped = 0
        for index in self._indices:
            key = classify(Row(table, index))
            if key is None:
                dropped += 1
                continue
            buckets.setdefault(key, []).append(index)
        if dropped:
            perf.count("partition.dropped_rows", dropped)
        return {key: RowSet(table, ids) for key, ids in buckets.items()}

    def partition_by_attribute(
        self, attribute: str, classify: Callable[[Any], Any]
    ) -> dict[Any, "RowSet"]:
        """Split by a function of ONE attribute's value — the fast path.

        Semantics match :meth:`partition_by` with
        ``lambda row: classify(row[attribute])`` — including its
        NULL-handling contract: rows whose key classifies as ``None`` are
        dropped and counted on ``partition.dropped_rows``.  The attribute's
        values are gathered from the storage backend in one pass (decoded
        codes / unpacked array values), skipping per-row :class:`Row` view
        construction.  The partitioners use this: level construction is
        the categorizer's inner loop, and on wide tables the view-free
        walk is several times faster.
        """
        table = self.table
        values = table._backend.gather(attribute, self._indices)
        buckets: dict[Any, list[int]] = {}
        dropped = 0
        for index, value in zip(self._indices, values):
            key = classify(value)
            if key is None:
                dropped += 1
                continue
            buckets.setdefault(key, []).append(index)
        if dropped:
            perf.count("partition.dropped_rows", dropped)
        return {key: RowSet(table, ids) for key, ids in buckets.items()}

    def partition_by_buckets(
        self, attribute: str, boundaries: Sequence[float]
    ) -> dict[int, "RowSet"]:
        """Bucket rows by ascending numeric ``boundaries`` — the numeric
        partitioners' inner loop.

        Bucket ``k`` holds rows with ``boundaries[k] <= value <
        boundaries[k+1]``; the final bucket closes at ``boundaries[-1]``.
        Same NULL-handling contract as :meth:`partition_by`: NULL,
        non-finite (NaN / ±inf), and out-of-range values belong to no
        bucket, are dropped, and are counted on
        ``partition.dropped_rows``.  Empty buckets are omitted from the
        result.

        The storage backend gets first crack (the columnar backend walks
        the packed array directly); the fallback gathers values once and
        classifies with a C-level ``bisect`` per value — either way there
        is no per-row Python ``classify`` frame, which is what makes this
        several times faster than :meth:`partition_by_attribute` with a
        bisecting closure.
        """
        table = self.table
        table.column(attribute)  # helpful KeyError on unknown names
        fast = table._backend.bucket_numeric(
            attribute, self._indices, boundaries
        )
        if fast is None:
            values = table._backend.gather(attribute, self._indices)
            low, high = boundaries[0], boundaries[-1]
            last = len(boundaries) - 2
            buckets: list[list[int]] = [[] for _ in range(last + 1)]
            dropped = 0
            bisect_right = bisect.bisect_right
            if all(map(math.isfinite, boundaries)):
                # NaN fails every comparison and ±inf is out of range, so
                # the range guard drops non-finite values for free here.
                for index, value in zip(self._indices, values):
                    if value is not None and low <= value <= high:
                        buckets[
                            bisect_right(boundaries, value, 0, last + 1) - 1
                        ].append(index)
                    else:
                        dropped += 1
            else:
                # Non-finite boundaries would wave NaN/±inf through to
                # bisect, whose order is undefined for them; same guarded
                # path as ColumnStore.bucket_numeric.
                isfinite = math.isfinite
                for index, value in zip(self._indices, values):
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
            fast = buckets, dropped
        index_lists, dropped = fast
        if dropped:
            perf.count("partition.dropped_rows", dropped)
        return {
            position: RowSet(table, ids)
            for position, ids in enumerate(index_lists)
            if ids
        }

    def values(self, attribute: str) -> list[Any]:
        """Return the values of ``attribute`` across this view, in row order."""
        self.table.column(attribute)  # helpful KeyError on unknown names
        return self.table._backend.gather(attribute, self._indices)

    def distinct_values(self, attribute: str) -> set[Any]:
        """Return the distinct non-NULL values of ``attribute`` in this view."""
        values = self.values(attribute)
        distinct = set(values)
        distinct.discard(None)
        return distinct

    def min_max(self, attribute: str) -> tuple[Any, Any] | None:
        """Return (min, max) of non-NULL values, or None if all-NULL/empty."""
        observed = [v for v in self.values(attribute) if v is not None]
        if not observed:
            return None
        return min(observed), max(observed)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialize this view as a list of dicts."""
        return [row.as_dict() for row in self]

    def __repr__(self) -> str:
        return f"RowSet(table={self.table.schema.name!r}, rows={len(self)})"
