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
A built tree holds them flat: one :class:`Permutation` of the result's
positions per tree, and every node a :class:`RowSlice` of it.

Bulk construction (:meth:`Table.from_columns`, :meth:`Table.from_rows`) is
the preferred loading path — it coerces column-wise and hands whole columns
to the store, instead of paying per-row dict handling in an ``insert``
loop.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from operator import lt
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro import perf
from repro.relational.backends import ColumnStore, Postings, index_typecode, packed
from repro.relational.expressions import Predicate, TruePredicate
from repro.relational.schema import Attribute, TableSchema

#: Index containers RowSet adopts without copying (all are immutable by
#: convention here: nobody mutates a RowSet's indices after construction).
#: A ``memoryview`` is a posting list's slice of its packed array.
_INDEX_SEQUENCES = (tuple, list, range, array, memoryview)


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

    def groupby_index(self, name: str) -> Postings:
        """value → ascending row indices for attribute ``name``, cached.

        The store builds it on first use with one column scan and keeps it
        for every categorical partitioning across levels, nodes and
        repeated ``categorize`` calls, and for the whole-table selections
        it seeds from a categorical ``IN``; every write invalidates it.
        NULLs are grouped under the ``None`` key so callers can decide
        whether a missing-value category exists.  Every posting list is a
        ``memoryview`` slice of one packed ``array('i')`` per attribute
        (4 bytes per row position; ``'q'`` once the table reaches 2**31
        rows), which a :class:`RowSet` adopts without copying.  Callers
        must not mutate the result.
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
    a ``range`` for whole-table views, a packed ``array`` or a posting
    list's ``memoryview`` slice for selections, a partitioning's list, a
    tuple for explicit construction.
    A category tree's nodes hold :class:`RowSlice` views instead: slices
    of one shared :class:`Permutation`.
    """

    __slots__ = ("table", "_indices", "_ascending")

    def __init__(self, table: Table, indices: Iterable[int]) -> None:
        self.table = table
        if isinstance(indices, _INDEX_SEQUENCES):
            self._indices: Sequence[int] = indices
        else:
            self._indices = tuple(indices)
        self._ascending: bool | None = None

    def positions(self) -> Sequence[int]:
        """The row positions this view reads, in its order.

        The view's own sequence (a tree node's slice gets a fresh
        ``array``): callers must not mutate it.  Cheaper than
        :attr:`indices` for callers that only iterate it.
        """
        return self._indices

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[Row]:
        table = self.table
        return (Row(table, i) for i in self.positions())

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def indices(self) -> tuple[int, ...]:
        """Row positions (in the base table) contained in this view.

        A fresh tuple per read (unless the view was built from one), so
        reading it keeps nothing alive on the view.
        """
        positions = self.positions()
        return positions if type(positions) is tuple else tuple(positions)

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
            ascending = self._ascending = _ascending(self._indices)
        return ascending

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
        kept, leftover = table._store.select_indices(
            predicate, self.positions()
        )
        if leftover is not None:
            kept = array(
                index_typecode(len(table)),
                [i for i in kept if leftover.matches(Row(table, i))],
            )
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
        for index in self.positions():
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
        positions = self.positions()
        values = table._store.gather(attribute, positions)
        buckets: dict[Any, list[int]] = {}
        dropped = 0
        for index, value in zip(positions, values):
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
            attribute, self.positions(), boundaries
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
        return self.table._store.gather(attribute, self.positions())

    def count_values(self, attribute: str) -> dict[Any, int]:
        """Return value → number of rows holding it, NULLs under ``None``.

        Counted by the store in one pass (integer codes on dictionary
        columns), without building any row-index list: this is
        what candidate costing reads instead of a partitioning.  A fresh
        dict per call; callers may mutate it.
        """
        self.table.column(attribute)  # helpful KeyError on unknown names
        return self.table._store.count_values(attribute, self.positions())

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialize this view as a list of dicts."""
        return [row.as_dict() for row in self]

    def __repr__(self) -> str:
        return f"RowSet(table={self.table.schema.name!r}, rows={len(self)})"


def _ascending(positions: Sequence[int]) -> bool:
    """True when ``positions`` ascend strictly."""
    if isinstance(positions, range):
        return positions.step > 0 or len(positions) <= 1
    return all(map(lt, positions, islice(positions, 1, None)))


class Permutation:
    """One category tree's row positions, every node a contiguous slice.

    Each level of a tree partitions its parents' tuples (Section 3.1), so
    the whole tree is one reordering of the result's positions: a packed
    ``array`` of :func:`~repro.relational.backends.index_typecode`,
    copied from the result once per build, whose :class:`RowSlice`
    views are the nodes' tuple sets.  Splitting a node
    (:meth:`RowSlice.split`) reorders its slice in place.
    """

    __slots__ = ("positions", "rank")

    def __init__(self, rows: RowSet) -> None:
        source = rows.positions()
        self.positions = packed(source, index_typecode(len(rows.table)))
        #: The sort key that restores the result's order: None when the
        #: result ascends, as every selection's does; otherwise each
        #: position's place in the result.
        self.rank: Callable[[int], int] | None = (
            None
            if rows.is_ascending
            else {position: i for i, position in enumerate(source)}.__getitem__
        )


class RowSlice(RowSet):
    """Rows ``[start, stop)`` of a :class:`Permutation`: one node's tuples.

    A slice reads its rows in the result's order, as every view
    partitioned from the result does.  Once :meth:`split`, its slice holds
    its children one after another and the rows they dropped after them,
    so it reads them merged back into the result's order.
    """

    __slots__ = ("_permutation", "_start", "_stop", "_grouped")

    def __init__(
        self, table: Table, permutation: Permutation, start: int, stop: int
    ) -> None:
        self.table = table
        self._permutation = permutation
        self._start = start
        self._stop = stop
        self._grouped = False

    @classmethod
    def over(cls, rows: RowSet) -> "RowSlice":
        """The whole of a fresh :class:`Permutation` of ``rows``."""
        permutation = Permutation(rows)
        return cls(rows.table, permutation, 0, len(permutation.positions))

    def positions(self) -> Sequence[int]:
        permutation = self._permutation
        positions = permutation.positions[self._start:self._stop]
        if self._grouped:
            positions = array(
                positions.typecode, sorted(positions, key=permutation.rank)
            )
        return positions

    def __len__(self) -> int:
        return self._stop - self._start

    def __bool__(self) -> bool:
        return self._stop > self._start

    @property
    def is_ascending(self) -> bool:
        return self._permutation.rank is None

    def split(self, parts: Sequence[Sequence[int]]) -> list["RowSlice"]:
        """Reorder this slice in place into one sub-slice per part.

        ``parts`` hold positions: disjoint subsequences of this view, each
        in the view's order, as partitioning the view yields them.  Each
        part's rows become the next contiguous sub-slice, and the rows in
        no part (a partitioning drops NULL, non-finite and out-of-universe
        values) follow the last one in their order, so each returned slice
        reads exactly its part and this view still reads what it read
        before.  Not thread-safe: split a tree's slices before sharing it.

        Raises:
            ValueError: if the slice is already split, or the parts hold
                more rows than it.
        """
        if self._grouped:
            raise ValueError("slice is already split")
        table, permutation = self.table, self._permutation
        positions = permutation.positions
        typecode = positions.typecode
        start, stop = self._start, self._stop
        end = start + sum(map(len, parts))
        if end > stop:
            raise ValueError(f"parts hold {end - start} rows; the slice {stop - start}")
        dropped = None
        if end < stop:
            kept = set(chain.from_iterable(parts))
            dropped = [i for i in positions[start:stop] if i not in kept]
        slices = []
        for part in parts:
            end = start + len(part)
            if type(part) is not array or part.typecode != typecode:
                part = packed(part, typecode)
            positions[start:end] = part
            slices.append(RowSlice(table, permutation, start, end))
            start = end
        if dropped:
            positions[start:stop] = array(typecode, dropped)
        self._grouped = True
        return slices
