"""Storage backends for :class:`~repro.relational.table.Table`.

A backend owns the physical column representation; the ``Table`` keeps the
schema, coercion, and the ``RowSet`` algebra, and delegates storage through
the :class:`StorageBackend` protocol.  Two implementations ship:

* :class:`ColumnStore` (``backend="columnar"``, the default) — packed
  typed columns: ``array('q')`` / ``array('d')`` for INT / FLOAT
  attributes (8 bytes per value instead of a ~28+-byte boxed object) and
  dictionary-encoded TEXT / BOOL columns (an ``array('i')`` of integer
  codes plus one shared decode list).  NULLs are a side structure: a
  small set of null positions for numeric columns, the reserved code
  ``-1`` for dictionary columns.
* :class:`RowStore` (``backend="rows"``) — one plain Python list per
  attribute, holding the objects coercion produced.  It is the reference
  the equivalence suite checks the columnar backend against, and the
  only layout that stores INT values outside int64.

The columnar payoff is **column-at-a-time selection**: instead of asking
``predicate.matches(row)`` once per row (a Python call plus a dict-protocol
lookup each), :meth:`ColumnStore.select_indices` evaluates one conjunct
over the whole candidate index list as a single list comprehension against
the packed array — IN-sets become integer-code membership tests, ranges
become chained float compares.  Conjuncts are applied in order, each
narrowing the candidate list, which preserves the row-at-a-time engine's
left-to-right short-circuit semantics exactly.  Any conjunct the backend
cannot vectorize (e.g. a range over a TEXT column, which must raise
``TypeError`` exactly like the row path) is handed back to the caller as a
*leftover* predicate to evaluate row-at-a-time over the already-narrowed
candidates — so the fast path never changes semantics, it only changes
speed.

Dictionary encoding assumes moderate-cardinality columns (the paper's
categorical attributes: city, neighborhood, property type).  A TEXT column
with millions of distinct values still works, at one dictionary entry per
value on top of its codes.

Limits: ``ColumnStore`` packs INT values into 64-bit storage, so ints
outside ``[-2**63, 2**63)`` raise ``OverflowError``; both ``append_row``
and ``load_columns`` then leave the store as it was.  The row backend
accepts them.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Any, Iterator, Mapping, Protocol, Sequence

from repro.relational.expressions import (
    ComparisonPredicate,
    Conjunction,
    InPredicate,
    IsNullPredicate,
    Predicate,
    RangePredicate,
    TruePredicate,
    comparison_operator,
)
from repro.relational.schema import TableSchema
from repro.relational.snapio import (
    Container,
    SnapshotMismatch,
    base_manifest,
    write_container,
)
from repro.relational.types import DataType

#: The ``backend=`` names :func:`make_backend` accepts.
BACKEND_NAMES = ("rows", "columnar")

#: The backend every table, loader, generator, descriptor and CLI flag
#: uses unless told otherwise.
DEFAULT_BACKEND = "columnar"


class StorageBackend(Protocol):
    """The physical storage contract ``Table`` delegates to.

    All values crossing this interface are already schema-coerced; backends
    never validate, they only pack.  Row positions are dense ``0..n-1`` in
    insertion order and never change (the engine is append-only).
    """

    #: Short name used in ``backend=`` parameters and serving cache keys.
    name: str

    def column(self, name: str) -> Sequence[Any]:
        """The full column as a sequence of logical values (NULL -> None)."""
        ...

    def append_row(self, values: Sequence[Any]) -> None:
        """Append one coerced tuple, given in schema attribute order.

        Must be atomic: a failure (e.g. int64 overflow) leaves no column
        torn.
        """
        ...

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Bulk-append one coerced sequence per attribute (equal lengths).

        All or nothing, like :meth:`append_row`: a failure leaves every
        column as it was.
        """
        ...

    def gather(self, name: str, indices: Sequence[int]) -> list[Any]:
        """The column's logical values at ``indices``, in that order."""
        ...

    def build_groupby(self, name: str) -> dict[Any, tuple[int, ...]]:
        """value -> ascending row positions, NULLs under the ``None`` key."""
        ...

    def select_indices(
        self, predicate: Predicate, indices: Sequence[int]
    ) -> tuple[Sequence[int], Predicate | None] | None:
        """Filter ``indices`` by ``predicate``, column-at-a-time.

        Returns ``None`` when this backend has no fast path at all (the
        caller evaluates the predicate row-at-a-time), or a pair
        ``(narrowed, leftover)`` where ``leftover`` is the suffix of
        conjuncts the backend could not vectorize (``None`` when fully
        evaluated).  The caller must apply ``leftover`` row-at-a-time over
        ``narrowed`` to finish the selection.
        """
        ...

    def bucket_numeric(
        self, name: str, indices: Sequence[int], boundaries: Sequence[float]
    ) -> tuple[list[list[int]], int] | None:
        """Bucket ``indices`` by ascending ``boundaries`` over one column.

        Bucket ``k`` holds rows with ``boundaries[k] <= value <
        boundaries[k+1]`` (the last bucket closes at ``boundaries[-1]``);
        NULLs, non-finite values (NaN / ±inf), and out-of-range values are
        dropped and counted.  Returns the per-bucket index lists plus the
        dropped count, or ``None`` when this backend has no fast path (the
        caller falls back to gather-and-classify, which must apply the
        same drop rules).
        """
        ...


def make_backend(name: str, schema: TableSchema) -> RowStore | ColumnStore:
    """Instantiate the backend called ``name`` for ``schema``."""
    if name == "columnar":
        return ColumnStore(schema)
    if name == "rows":
        return RowStore(schema)
    raise ValueError(
        f"unknown storage backend {name!r}; choose from {BACKEND_NAMES}"
    )


# ---------------------------------------------------------------------------
# Row backend: one Python list per attribute (the original layout).
# ---------------------------------------------------------------------------


class RowStore:
    """List-per-column storage; no vectorized paths, maximal generality."""

    name = "rows"

    def __init__(self, schema: TableSchema) -> None:
        self._columns: dict[str, list[Any]] = {name: [] for name in schema.names()}
        self._ordered: list[list[Any]] = [self._columns[n] for n in schema.names()]

    def column(self, name: str) -> list[Any]:
        return self._columns[name]

    def append_row(self, values: Sequence[Any]) -> None:
        for column, value in zip(self._ordered, values):
            column.append(value)

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        for name, column in self._columns.items():
            column.extend(columns[name])

    def gather(self, name: str, indices: Sequence[int]) -> list[Any]:
        column = self._columns[name]
        return [column[i] for i in indices]

    def build_groupby(self, name: str) -> dict[Any, tuple[int, ...]]:
        buckets: dict[Any, list[int]] = {}
        for position, value in enumerate(self._columns[name]):
            buckets.setdefault(value, []).append(position)
        return {value: tuple(ids) for value, ids in buckets.items()}

    def select_indices(
        self, predicate: Predicate, indices: Sequence[int]
    ) -> tuple[Sequence[int], Predicate | None] | None:
        return None  # no fast path: evaluate row-at-a-time

    def bucket_numeric(
        self, name: str, indices: Sequence[int], boundaries: Sequence[float]
    ) -> tuple[list[list[int]], int] | None:
        return None  # no fast path: gather and classify per value


# ---------------------------------------------------------------------------
# Columnar backend: packed typed columns + dictionary encoding.
# ---------------------------------------------------------------------------


class NumericColumn:
    """A packed numeric column: an ``array`` plus a set of NULL positions.

    The array holds ``0`` at NULL positions (a sentinel that keeps the
    array dense); the ``nulls`` set is authoritative.  Most columns have no
    NULLs, and every read path branches on ``nulls`` being empty so the
    common case pays nothing for the side structure.
    """

    __slots__ = ("_data", "_nulls")

    typecode = "d"

    def __init__(self) -> None:
        self._data: array = array(self.typecode)
        self._nulls: set[int] = set()

    # -- writes ------------------------------------------------------------

    def append(self, value: Any) -> None:
        if value is None:
            self._nulls.add(len(self._data))
            self._data.append(0)
        else:
            self._data.append(value)

    def extend(self, values: Sequence[Any]) -> None:
        data = self._data
        base = len(data)
        try:
            data.extend(values)
        except (TypeError, OverflowError):
            # A None (or an unpackable value) somewhere in the batch:
            # undo the partial extend and take the per-value path.
            del data[base:]
            for value in values:
                self.append(value)

    def truncate(self, length: int) -> None:
        """Drop every value from position ``length`` on (write rollback)."""
        self._nulls.difference_update(range(length, len(self._data)))
        del self._data[length:]

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, position: int) -> Any:
        if position < 0:
            position += len(self._data)
        if position in self._nulls:
            return None
        return self._data[position]

    def __iter__(self) -> Iterator[Any]:
        if not self._nulls:
            return iter(self._data)
        nulls = self._nulls
        return (
            None if i in nulls else v for i, v in enumerate(self._data)
        )

    def gather(self, indices: Sequence[int]) -> list[Any]:
        data = self._data
        if not self._nulls:
            return [data[i] for i in indices]
        nulls = self._nulls
        return [None if i in nulls else data[i] for i in indices]


class IntColumn(NumericColumn):
    """64-bit signed integer column."""

    __slots__ = ()
    typecode = "q"


class FloatColumn(NumericColumn):
    """IEEE double column."""

    __slots__ = ()
    typecode = "d"


class DictColumn:
    """A dictionary-encoded column for TEXT / BOOL attributes.

    Values are interned once into ``decode`` (code -> value) / ``encode``
    (value -> code); the column itself is an ``array('i')`` of codes with
    ``-1`` reserved for NULL.  Equality-style predicates (IN, ``=``)
    evaluate as integer membership over the code array without touching
    the strings at all; ordering comparisons precompute the matching code
    set over the (small) dictionary.
    """

    __slots__ = ("_codes", "_decode", "_encode")

    NULL_CODE = -1

    def __init__(self) -> None:
        self._codes: array = array("i")
        self._decode: list[Any] = []
        self._encode: dict[Any, int] = {}

    # -- writes ------------------------------------------------------------

    def append(self, value: Any) -> None:
        if value is None:
            self._codes.append(self.NULL_CODE)
            return
        code = self._encode.get(value)
        if code is None:
            code = self._encode[value] = len(self._decode)
            self._decode.append(value)
        self._codes.append(code)

    def extend(self, values: Sequence[Any]) -> None:
        for value in values:
            self.append(value)

    def truncate(self, length: int) -> None:
        """Drop every value from position ``length`` on (write rollback);
        dictionary entries stay."""
        del self._codes[length:]

    # -- reads -------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        """Number of distinct non-NULL values ever stored."""
        return len(self._decode)

    def code_of(self, value: Any) -> int | None:
        """The code for ``value``, or None if it never occurs."""
        return self._encode.get(value)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, position: int) -> Any:
        code = self._codes[position]
        if code < 0:
            return None
        return self._decode[code]

    def __iter__(self) -> Iterator[Any]:
        decode = self._decode
        return (decode[c] if c >= 0 else None for c in self._codes)

    def gather(self, indices: Sequence[int]) -> list[Any]:
        codes = self._codes
        decode = self._decode
        return [
            decode[c] if (c := codes[i]) >= 0 else None for i in indices
        ]


def schema_fingerprint(schema: TableSchema) -> list[list[str]]:
    """JSON-stable identity of a schema: ``[name, type, kind]`` per attribute.

    Stored inside every warm-start snapshot and compared on load — a
    snapshot written for a different relation (or a relation whose
    declaration changed since) must fall back to cold start, not be
    reinterpreted.
    """
    return [
        [attribute.name, attribute.data_type.value, attribute.kind.value]
        for attribute in schema
    ]


def _make_column(data_type: DataType) -> NumericColumn | DictColumn:
    if data_type is DataType.INT:
        return IntColumn()
    if data_type is DataType.FLOAT:
        return FloatColumn()
    return DictColumn()  # TEXT and BOOL dictionary-encode


class ColumnStore:
    """Typed-array storage with column-at-a-time selection."""

    name = "columnar"

    def __init__(self, schema: TableSchema) -> None:
        self._columns: dict[str, NumericColumn | DictColumn] = {
            attribute.name: _make_column(attribute.data_type)
            for attribute in schema
        }
        self._ordered = [self._columns[n] for n in schema.names()]

    def __len__(self) -> int:
        return len(self._ordered[0]) if self._ordered else 0

    def column(self, name: str) -> NumericColumn | DictColumn:
        return self._columns[name]

    # int64 overflow is the one write failure coercion does not catch
    # first.  Both writes roll back to the previous length before
    # re-raising, so a refused row or batch never tears the columns.

    def append_row(self, values: Sequence[Any]) -> None:
        rows = len(self)
        try:
            for (name, column), value in zip(self._columns.items(), values):
                column.append(value)
        except BaseException as exc:
            self._truncate(rows)
            if isinstance(exc, OverflowError):
                raise OverflowError(
                    f"attribute {name!r}: {value!r} is outside the int64 "
                    "range of a columnar INT column"
                ) from exc
            raise

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        rows = len(self)
        try:
            for name, column in self._columns.items():
                column.extend(columns[name])
        except BaseException:
            self._truncate(rows)
            raise

    def _truncate(self, length: int) -> None:
        for column in self._ordered:
            column.truncate(length)

    def gather(self, name: str, indices: Sequence[int]) -> list[Any]:
        return self._columns[name].gather(indices)

    def build_groupby(self, name: str) -> dict[Any, tuple[int, ...]]:
        column = self._columns[name]
        if isinstance(column, DictColumn):
            # Bucket by integer code (list indexing, no hashing), then
            # decode once per distinct value.
            postings: list[list[int]] = [[] for _ in range(column.cardinality)]
            nulls: list[int] = []
            for position, code in enumerate(column._codes):
                if code >= 0:
                    postings[code].append(position)
                else:
                    nulls.append(position)
            decode = column._decode
            index = {
                decode[code]: tuple(ids)
                for code, ids in enumerate(postings)
                if ids
            }
            if nulls:
                index[None] = tuple(nulls)
            return index
        buckets: dict[Any, list[int]] = {}
        for position, value in enumerate(column):
            buckets.setdefault(value, []).append(position)
        return {value: tuple(ids) for value, ids in buckets.items()}

    # -- warm-start persistence --------------------------------------------

    #: Bump when the block layout below changes: older snapshots then
    #: fail stop (``reason="version"``) instead of being misread.
    FORMAT_VERSION = 1

    def dump(
        self,
        schema: TableSchema,
        path: Any,
        rename_hook: Any = None,
    ) -> None:
        """Serialize the typed arrays + dictionaries to one snapshot file.

        The on-disk form is a :mod:`repro.relational.snapio` container:
        raw ``array.tobytes()`` payloads per column (numeric data, null
        positions, dictionary codes) plus a JSON manifest carrying the
        schema fingerprint, row count, and each dictionary's decode list.
        Loading is therefore a handful of ``frombytes`` memcpys — the
        whole point of warm start is to skip per-value coercion.
        """
        rows = len(self)
        manifest = base_manifest("columnstore", self.FORMAT_VERSION)
        manifest["table"] = schema.name
        manifest["schema"] = schema_fingerprint(schema)
        manifest["rows"] = rows
        columns: list[dict[str, Any]] = []
        blocks: list[tuple[str, bytes]] = []
        for name in schema.names():
            column = self._columns[name]
            if isinstance(column, DictColumn):
                columns.append(
                    {"name": name, "layout": "dict", "decode": column._decode}
                )
                blocks.append((f"col:{name}", column._codes.tobytes()))
            else:
                entry = {"name": name, "layout": "num",
                         "typecode": column.typecode}
                blocks.append((f"col:{name}", column._data.tobytes()))
                if column._nulls:
                    entry["nulls"] = True
                    blocks.append(
                        (f"nulls:{name}",
                         array("q", sorted(column._nulls)).tobytes())
                    )
                columns.append(entry)
        manifest["columns"] = columns
        write_container(path, manifest, blocks, rename_hook=rename_hook)

    @classmethod
    def load(cls, schema: TableSchema, path: Any) -> tuple["ColumnStore", int]:
        """Rebuild a store from :meth:`dump` output; return (store, rows).

        Every CRC is verified by the container open and the manifest's
        schema fingerprint must match ``schema`` exactly — any mismatch
        raises :class:`~repro.relational.snapio.SnapshotMismatch`, which
        the serving layer turns into a counted cold-start fallback
        (never serve corrupt state).
        """
        with Container(path) as container:
            manifest = container.manifest
            if manifest.get("kind") != "columnstore":
                raise SnapshotMismatch(
                    f"{path}: not a columnstore snapshot "
                    f"(kind={manifest.get('kind')!r})",
                    reason="format",
                )
            if manifest.get("version") != cls.FORMAT_VERSION:
                raise SnapshotMismatch(
                    f"{path}: columnstore format version "
                    f"{manifest.get('version')} (this build reads "
                    f"{cls.FORMAT_VERSION})",
                    reason="version",
                )
            if manifest.get("schema") != schema_fingerprint(schema):
                raise SnapshotMismatch(
                    f"{path}: snapshot schema does not match "
                    f"{schema.name!r}",
                    reason="schema",
                )
            rows = manifest.get("rows")
            if not isinstance(rows, int) or rows < 0:
                raise SnapshotMismatch(
                    f"{path}: bad row count {rows!r}", reason="format"
                )
            store = cls(schema)
            entries = {
                entry.get("name"): entry
                for entry in manifest.get("columns", [])
            }
            for name in schema.names():
                entry = entries.get(name)
                if entry is None:
                    raise SnapshotMismatch(
                        f"{path}: column {name!r} missing", reason="schema"
                    )
                column = store._columns[name]
                block = container.block(f"col:{name}")
                if entry.get("layout") == "dict":
                    if not isinstance(column, DictColumn):
                        raise SnapshotMismatch(
                            f"{path}: column {name!r} layout mismatch",
                            reason="schema",
                        )
                    column._codes.frombytes(block)
                    column._decode = list(entry.get("decode", []))
                    column._encode = {
                        value: code
                        for code, value in enumerate(column._decode)
                    }
                    if any(
                        code >= len(column._decode)
                        for code in column._codes
                    ):
                        raise SnapshotMismatch(
                            f"{path}: column {name!r} has codes outside "
                            "its dictionary",
                            reason="format",
                        )
                elif entry.get("layout") == "num":
                    if (
                        not isinstance(column, NumericColumn)
                        or entry.get("typecode") != column.typecode
                    ):
                        raise SnapshotMismatch(
                            f"{path}: column {name!r} layout mismatch",
                            reason="schema",
                        )
                    column._data.frombytes(block)
                    if entry.get("nulls"):
                        positions = array("q")
                        positions.frombytes(container.block(f"nulls:{name}"))
                        column._nulls = set(positions)
                else:
                    raise SnapshotMismatch(
                        f"{path}: column {name!r} has unknown layout "
                        f"{entry.get('layout')!r}",
                        reason="format",
                    )
                if len(column) != rows:
                    raise SnapshotMismatch(
                        f"{path}: column {name!r} holds {len(column)} "
                        f"values, manifest says {rows}",
                        reason="format",
                    )
            return store, rows

    # -- column-at-a-time selection ----------------------------------------

    def select_indices(
        self, predicate: Predicate, indices: Sequence[int]
    ) -> tuple[Sequence[int], Predicate | None] | None:
        parts = (
            predicate.parts
            if isinstance(predicate, Conjunction)
            else (predicate,)
        )
        current: Sequence[int] = indices
        for position, part in enumerate(parts):
            if not len(current):
                return current, None
            filtered = self._filter_one(part, current)
            if filtered is None:
                # Hand the un-vectorizable suffix back, preserving the
                # row engine's left-to-right evaluation order (and thus
                # which rows ever see a type-error-raising conjunct).
                remaining = parts[position:]
                leftover = (
                    remaining[0]
                    if len(remaining) == 1
                    else Conjunction(remaining)
                )
                return current, leftover
            current = filtered
        return current, None

    def _filter_one(
        self, predicate: Predicate, indices: Sequence[int]
    ) -> list[int] | None:
        """Apply one conjunct over ``indices``; None when unsupported."""
        if isinstance(predicate, TruePredicate):
            return list(indices)
        if isinstance(predicate, InPredicate):
            return self._filter_in(predicate, indices)
        if isinstance(predicate, RangePredicate):
            return self._filter_range(predicate, indices)
        if isinstance(predicate, ComparisonPredicate):
            return self._filter_comparison(predicate, indices)
        if isinstance(predicate, IsNullPredicate):
            return self._filter_is_null(predicate, indices)
        return None

    def _filter_in(
        self, predicate: InPredicate, indices: Sequence[int]
    ) -> list[int] | None:
        column = self._columns.get(predicate.attribute)
        if column is None:
            return None
        if isinstance(column, DictColumn):
            wanted: set[int] = set()
            for value in predicate.values:
                if value is None:
                    # Row-at-a-time, NULL IN (... NULL ...) matches: the
                    # Mapping.get value None is a member of the IN-set.
                    wanted.add(DictColumn.NULL_CODE)
                    continue
                try:
                    code = column._encode.get(value)
                except TypeError:  # unhashable never stored; never matches
                    code = None
                if code is not None:
                    wanted.add(code)
            if not wanted:
                return []
            codes = column._codes
            return [i for i in indices if codes[i] in wanted]
        values = predicate.values
        data = column._data
        nulls = column._nulls
        if not nulls:
            return [i for i in indices if data[i] in values]
        null_matches = None in values
        return [
            i
            for i in indices
            if (null_matches if i in nulls else data[i] in values)
        ]

    def _filter_range(
        self, predicate: RangePredicate, indices: Sequence[int]
    ) -> list[int] | None:
        column = self._columns.get(predicate.attribute)
        if not isinstance(column, NumericColumn):
            # TEXT/BOOL ranges keep the row path's semantics (a str vs
            # float compare raises TypeError there; BOOL compares as int).
            return None
        low, high = predicate.low, predicate.high
        data = column._data
        nulls = column._nulls
        if predicate.high_inclusive:
            if not nulls:
                return [i for i in indices if low <= data[i] <= high]
            return [
                i
                for i in indices
                if i not in nulls and low <= data[i] <= high
            ]
        if not nulls:
            return [i for i in indices if low <= data[i] < high]
        return [
            i for i in indices if i not in nulls and low <= data[i] < high
        ]

    def _filter_comparison(
        self, predicate: ComparisonPredicate, indices: Sequence[int]
    ) -> list[int] | None:
        column = self._columns.get(predicate.attribute)
        if column is None:
            return None
        op = comparison_operator(predicate.op)
        value = predicate.value
        if isinstance(column, DictColumn):
            try:
                # Evaluate once per dictionary entry, not once per row.
                wanted = {
                    code
                    for code, stored in enumerate(column._decode)
                    if op(stored, value)
                }
            except TypeError:
                # The dictionary holds a value this comparison cannot
                # order.  The row path only raises if such a row is
                # actually visited — fall back so errors surface (or
                # don't) exactly as before.
                return None
            codes = column._codes
            return [i for i in indices if codes[i] in wanted]
        if predicate.op not in ("=", "!=") and not isinstance(
            value, (int, float)
        ):
            return None  # ordering against a non-number raises row-side
        data = column._data
        nulls = column._nulls
        if not nulls:
            return [i for i in indices if op(data[i], value)]
        return [i for i in indices if i not in nulls and op(data[i], value)]

    def bucket_numeric(
        self, name: str, indices: Sequence[int], boundaries: Sequence[float]
    ) -> tuple[list[list[int]], int] | None:
        column = self._columns.get(name)
        if not isinstance(column, NumericColumn):
            return None
        data = column._data
        nulls = column._nulls
        low, high = boundaries[0], boundaries[-1]
        last = len(boundaries) - 2
        buckets: list[list[int]] = [[] for _ in range(last + 1)]
        dropped = 0
        bisect_right = bisect.bisect_right
        if not all(map(math.isfinite, boundaries)):
            # Non-finite boundaries would let NaN/±inf values through the
            # range guard and into bisect (whose order is undefined for
            # them): guard per value.  With finite boundaries — every real
            # workload — the ``low <= value <= high`` guard below already
            # drops non-finite values at zero extra cost, so this slow
            # path only exists to keep the drop-and-count contract
            # identical whatever the boundaries.
            isfinite = math.isfinite
            for i in indices:
                if nulls and i in nulls:
                    dropped += 1
                    continue
                value = data[i]
                if isfinite(value) and low <= value <= high:
                    buckets[bisect_right(boundaries, value, 0, last + 1) - 1].append(i)
                else:
                    dropped += 1
            return buckets, dropped
        # Capping bisect's hi at ``last + 1`` folds value == boundaries[-1]
        # into the final (closed) bucket without a per-row min().
        if not nulls:
            for i in indices:
                value = data[i]
                if low <= value <= high:
                    buckets[bisect_right(boundaries, value, 0, last + 1) - 1].append(i)
                else:
                    dropped += 1
            return buckets, dropped
        for i in indices:
            if i in nulls:
                dropped += 1
                continue
            value = data[i]
            if low <= value <= high:
                buckets[bisect_right(boundaries, value, 0, last + 1) - 1].append(i)
            else:
                dropped += 1
        return buckets, dropped

    def _filter_is_null(
        self, predicate: IsNullPredicate, indices: Sequence[int]
    ) -> list[int] | None:
        column = self._columns.get(predicate.attribute)
        if column is None:
            return None
        if isinstance(column, DictColumn):
            codes = column._codes
            return [i for i in indices if codes[i] < 0]
        nulls = column._nulls
        if not nulls:
            return []
        return [i for i in indices if i in nulls]
