"""Column-oriented in-memory tables.

The engine stores each attribute as a column of a
:class:`~repro.relational.backends.ColumnStore`: dictionary-coded columns
(raw packed ``array.array`` values for a numeric column with too many
distinct values) with column-at-a-time selection (see
``docs/storage.md``).

Rows are materialized lazily as dicts or :class:`Row` views.  A
:class:`Table` owns its store; selections return lightweight
:class:`RowSet` views (a table + a sequence of row indices) so that the
category tree can hold the ``tset`` of every node without copying tuple
data (paper Section 3.1: ``tset(C)`` is a subset of the result set R).

Bulk construction (:meth:`Table.from_columns`, :meth:`Table.from_rows`) is
the preferred loading path — it coerces column-wise and hands whole columns
to the store, instead of paying per-row dict handling in an ``insert``
loop.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro import perf
from repro.relational.backends import ColumnStore, index_typecode
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

        table = Table(schema)
        table.insert({"price": 250_000, "city": "Seattle"})
        table.extend(rows)

        # Bulk loads (preferred for anything larger than a handful of rows):
        table = Table.from_columns(schema, {"price": [...], "city": [...]})
        table = Table.from_rows(schema, dict_iterable)

    Values are validated against the schema on insertion, so downstream code
    (partitioning, statistics) can assume type-clean columns.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._store = ColumnStore(schema)
        self._size = 0

    def close(self) -> None:
        """Does nothing: the table holds only in-process memory.

        Kept because ``perfbench/`` still calls it.
        """

    # -- construction ------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        schema: TableSchema,
        columns: Mapping[str, Sequence[Any]],
        coerce: bool = True,
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
        table = cls(schema)
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
        return cls.from_columns(schema, columns)

    @classmethod
    def from_store(
        cls, schema: TableSchema, store: ColumnStore, size: int
    ) -> "Table":
        """Adopt an already-populated store without copying.

        The warm-start path (`repro serve --warm-start`) deserializes a
        :class:`~repro.relational.backends.ColumnStore` straight from a
        snapshot file and wraps it here — re-running ``from_columns``
        would pay a per-value materialization pass that the snapshot
        format exists to avoid.  The caller vouches that ``store``
        holds ``size`` coerced rows matching ``schema``.
        """
        table = cls.__new__(cls)
        table.schema = schema
        table._store = store
        table._size = size
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
        self._store.append_row(values)
        self._size += 1

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append many tuples."""
        for row in rows:
            self.insert(row)

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Append whole columns of already-coerced values to the table.

        The bulk append behind :meth:`from_columns` and ``read_csv``'s
        chunks: values go straight to the store unvalidated, so the
        producer must have coerced them.  Invalidates every cached groupby
        index.  All or nothing: on any error the table is unchanged.

        Raises:
            KeyError: on missing or unknown column names.
            ValueError: on ragged column lengths.
            OverflowError: when the store refuses an INT value outside
                int64.
        """
        length = _column_length(self.schema, columns)
        self._store.load_columns(columns)
        self._size += length

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
            return self._store.column(name)
        except KeyError:
            raise KeyError(
                f"no attribute {name!r} in table {self.schema.name!r}; "
                f"available: {sorted(self.schema.names())}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        """Return the schema attribute called ``name``."""
        return self.schema.attribute(name)

    def groupby_index(self, name: str) -> Mapping[Any, array]:
        """value → ascending row indices for attribute ``name``, cached.

        The store builds it on first use with one column scan and keeps it
        for every categorical partitioning across levels, nodes and
        repeated ``categorize`` calls, and for the whole-table selections
        it seeds from a categorical ``IN``; every write invalidates it.
        NULLs are grouped under the ``None`` key so callers can decide
        whether a missing-value category exists.  Each posting list is a
        packed ``array('i')`` (4 bytes per row position; ``'q'`` once the
        table reaches 2**31 rows), which a :class:`RowSet` adopts without
        copying.  Callers must not mutate the result.
        """
        self.column(name)  # raise the helpful KeyError on unknown names
        return self._store.groupby(name)

    def tally(self, name: str) -> Mapping[Any, int]:
        """value → how many rows of the whole table hold it, cached.

        The lengths of :meth:`groupby_index`'s posting lists, counted
        without building them (one count per dictionary code on a coded
        column), kept and dropped like the posting lists.  NULLs are
        counted under ``None``.  Callers must not mutate the result.
        """
        self.column(name)  # raise the helpful KeyError on unknown names
        return self._store.tally(name)

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
        return f"Table({self.schema.name!r}, rows={self._size})"


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
    a ``range`` for whole-table views, the store's filtered list or a
    posting ``array`` for selections, a tuple for explicit construction —
    and only materialized as a tuple when :attr:`indices` is read.
    :meth:`compact` packs it into an ``array`` for views that are kept
    long after they are built.
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
        value counts, numeric histograms, candidate sizes, the chosen
        attribute's partitioning — directly on the view they derive from.
        Because a RowSet is an immutable window over an append-only table
        (existing rows are never updated or deleted), any pure function of
        the view's rows stays valid for the view's lifetime, so entries
        never need invalidation; callers whose derivation also depends on
        external state (e.g. workload splitpoints) fold that state into
        ``key``.  Cached values are shared across repeated lookups and must
        not be mutated; :meth:`compact` drops them all.
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

    def compact(self) -> None:
        """Shrink this view to what reading it needs.

        Drops the :meth:`derive` memos and the tuple :attr:`indices`
        materialized, keeps the cached :attr:`is_ascending` flag, and
        packs the positions into an ``array`` of
        :func:`~repro.relational.backends.index_typecode` (4 bytes per
        position instead of a list slot plus an int object); a ``range``
        or an ``array`` is kept as it is.  The view holds the same rows in
        the same order, so every read answers as before, and a later
        derivation is simply rebuilt.  Not thread-safe: compact a view
        before sharing it.
        """
        self._derived = None
        self._indices_tuple = None
        if not isinstance(self._indices, (range, array)):
            self._indices = array(index_typecode(len(self.table)), self._indices)

    def select(self, predicate: Predicate) -> "RowSet":
        """Return the sub-view of rows satisfying ``predicate``.

        The table's store evaluates the predicate column-at-a-time, and
        seeds a whole-table view's selection from a categorical ``IN``'s
        posting lists when they are small; whatever conjuncts it declines
        are evaluated row-at-a-time, so semantics never depend on the
        storage.
        """
        if isinstance(predicate, TruePredicate):
            return self
        table = self.table
        kept, leftover = table._store.select_indices(predicate, self._indices)
        if leftover is not None:
            kept = [i for i in kept if leftover.matches(Row(table, i))]
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
        values are gathered from the store in one pass (decoded
        codes / unpacked array values), skipping per-row :class:`Row` view
        construction.  The partitioners use this: level construction is
        the categorizer's inner loop, and on wide tables the view-free
        walk is several times faster.
        """
        table = self.table
        values = table._store.gather(attribute, self._indices)
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

        The store buckets with no per-row Python ``classify`` frame: one
        ``bisect`` per dictionary entry and a table lookup per row on a
        coded column, a C-level ``bisect`` per value on a raw one, which
        is what makes this several times faster than
        :meth:`partition_by_attribute` with a bisecting closure.
        """
        table = self.table
        table.column(attribute)  # helpful KeyError on unknown names
        index_lists, dropped = table._store.bucket_numeric(
            attribute, self._indices, boundaries
        )
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
        return self.table._store.gather(attribute, self._indices)

    def count_values(self, attribute: str) -> dict[Any, int]:
        """Return value → number of rows holding it, NULLs under ``None``.

        Counted by the store in one pass (integer codes on dictionary
        columns), without building any row-index list: this is
        what candidate costing reads instead of a partitioning.  A fresh
        dict per call; callers may mutate it.
        """
        self.table.column(attribute)  # helpful KeyError on unknown names
        return self.table._store.count_values(attribute, self._indices)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialize this view as a list of dicts."""
        return [row.as_dict() for row in self]

    def __repr__(self) -> str:
        return f"RowSet(table={self.table.schema.name!r}, rows={len(self)})"
