"""The column store behind every :class:`~repro.relational.table.Table`.

:class:`ColumnStore` owns the physical column representation; the
``Table`` keeps the schema, coercion and the ``RowSet`` algebra, and
delegates storage to it.  Columns are packed and typed:
``array('q')`` / ``array('d')`` for INT / FLOAT attributes (8 bytes per
value instead of a ~28+-byte boxed object) and dictionary-encoded TEXT /
BOOL columns (an ``array('i')`` of integer codes plus one shared decode
list).  NULLs are a side structure: a small set of null positions for
numeric columns, the reserved code ``-1`` for dictionary columns.

The payoff is **column-at-a-time selection**: instead of asking
``predicate.matches(row)`` once per row (a Python call plus a dict-protocol
lookup each), :meth:`ColumnStore.select_indices` evaluates one conjunct
over the whole candidate index list as a single list comprehension against
the packed array — IN-sets become integer-code membership tests, ranges
become chained float compares.  It chooses one of two access paths:

* **index first**: on a whole-table view, the store counts each ``IN``
  conjunct on a CATEGORICAL attribute exactly, from its posting lists
  (:meth:`ColumnStore.groupby`).  When the smallest count is below
  :data:`INDEX_CROSSOVER` of the table, the other conjuncts filter only
  that conjunct's posting lists, and the survivors are merged into
  ascending order.  If any other conjunct cannot be vectorized, the store
  drops this path and scans instead.
* **scan**: conjuncts are applied in order, each narrowing the candidate
  list, which preserves the row-at-a-time engine's left-to-right
  short-circuit semantics exactly.  Any conjunct the store cannot vectorize
  (e.g. a range over a TEXT column, which must raise ``TypeError`` exactly
  like the row path) is handed back to the caller as a *leftover*
  predicate to evaluate row-at-a-time over the already-narrowed
  candidates.

On a whole-table view both paths return the same positions in ascending
order, so the choice never changes semantics, only speed.

Dictionary encoding assumes moderate-cardinality columns (the paper's
categorical attributes: city, neighborhood, property type).  A TEXT column
with millions of distinct values still works, at one dictionary entry per
value on top of its codes.

Limits: INT values are packed into 64-bit storage, so ints outside
``[-2**63, 2**63)`` raise ``OverflowError``; both ``append_row`` and
``load_columns`` then leave the store as it was.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import Counter
from itertools import chain
from typing import Any, Iterator, Mapping, Sequence

from repro import perf
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
from repro.relational.types import AttributeKind, DataType

#: A categorical ``IN`` seeds a whole-table selection from its posting
#: lists when they hold fewer than this share of the table's rows.  The
#: index path walks those postings, then sorts what survives; a scan walks
#: the whole table for its first conjunct.  On 500,000 rows (2-vCPU Xeon,
#: Python 3.11, median of 7) index/scan time read 0.83-0.91 at 70-72 % of
#: the table whether the IN stood alone, first or after a price range, and
#: 0.96-1.13 at 80 %.
INDEX_CROSSOVER = 0.7

#: Per-operator filters over a numeric column without NULLs: one list
#: comprehension each, so no Python call is made per row.
_NUMERIC_COMPARISONS = {
    "<": lambda data, indices, value: [i for i in indices if data[i] < value],
    "<=": lambda data, indices, value: [i for i in indices if data[i] <= value],
    ">": lambda data, indices, value: [i for i in indices if data[i] > value],
    ">=": lambda data, indices, value: [i for i in indices if data[i] >= value],
    "=": lambda data, indices, value: [i for i in indices if data[i] == value],
    "!=": lambda data, indices, value: [i for i in indices if data[i] != value],
}


def require_columnar(name: str) -> None:
    """Refuse every storage name but ``"columnar"``, the only layout.

    ``read_csv``, ``generate_homes`` and a dataset spec's ``backend`` key
    still take the name, for callers written when a second layout
    existed; any other value is an error.
    """
    if name != "columnar":
        raise ValueError(
            f"unknown storage backend {name!r}; the only one is 'columnar'"
        )


def index_typecode(rows: int) -> str:
    """The ``array`` typecode for row positions of a ``rows``-row table.

    ``'i'`` packs a position in 4 bytes; only a table of 2**31 rows or more
    needs ``'q'``.
    """
    return "i" if rows < 2**31 else "q"


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
    """Typed-array storage with column-at-a-time selection.

    All values crossing its methods are already schema-coerced; the store
    never validates, it only packs.  Row positions are dense ``0..n-1`` in
    insertion order and never change (the engine is append-only).  The
    store also keeps each attribute's posting lists once built
    (:meth:`groupby`); every write drops them.
    """

    def __init__(self, schema: TableSchema) -> None:
        self._columns: dict[str, NumericColumn | DictColumn] = {
            attribute.name: _make_column(attribute.data_type)
            for attribute in schema
        }
        self._ordered = [self._columns[n] for n in schema.names()]
        self._categorical = frozenset(
            attribute.name
            for attribute in schema
            if attribute.kind is AttributeKind.CATEGORICAL
        )
        self._postings: dict[str, dict[Any, array]] = {}

    def __len__(self) -> int:
        return len(self._ordered[0]) if self._ordered else 0

    def column(self, name: str) -> NumericColumn | DictColumn:
        """The full column as a sequence of logical values (NULL -> None)."""
        return self._columns[name]

    # int64 overflow is the one write failure coercion does not catch
    # first.  Both writes roll back to the previous length before
    # re-raising, so a refused row or batch never tears the columns.

    def append_row(self, values: Sequence[Any]) -> None:
        """Append one coerced tuple, given in schema attribute order.

        Atomic: a failure (e.g. int64 overflow) leaves no column torn.
        """
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
        self._postings.clear()

    def load_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Bulk-append one coerced sequence per attribute (equal lengths).

        All or nothing, like :meth:`append_row`: a failure leaves every
        column as it was.
        """
        rows = len(self)
        try:
            for name, column in self._columns.items():
                column.extend(columns[name])
        except BaseException:
            self._truncate(rows)
            raise
        self._postings.clear()

    def _truncate(self, length: int) -> None:
        for column in self._ordered:
            column.truncate(length)

    def gather(self, name: str, indices: Sequence[int]) -> list[Any]:
        """The column's logical values at ``indices``, in that order."""
        return self._columns[name].gather(indices)

    def groupby(self, name: str) -> dict[Any, array]:
        """value -> ascending row positions, NULLs under the ``None`` key.

        Each posting list is packed as an ``array`` of
        :func:`index_typecode`.  Built with one column scan on first use,
        then kept until the next write; callers must not mutate it.
        """
        index = self._postings.get(name)
        if index is None:
            perf.count("table.groupby_index.build")
            with perf.span("table.groupby_index.build"):
                index = self._postings[name] = self._build_groupby(name)
        else:
            perf.count("table.groupby_index.hit")
        return index

    def _build_groupby(self, name: str) -> dict[Any, array]:
        column = self._columns[name]
        typecode = index_typecode(len(column))
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
                decode[code]: array(typecode, ids)
                for code, ids in enumerate(postings)
                if ids
            }
            if nulls:
                index[None] = array(typecode, nulls)
            return index
        buckets: dict[Any, list[int]] = {}
        for position, value in enumerate(column):
            buckets.setdefault(value, []).append(position)
        return {value: array(typecode, ids) for value, ids in buckets.items()}

    def count_values(self, name: str, indices: Sequence[int]) -> dict[Any, int]:
        """value -> how many of ``indices`` hold it, NULLs under ``None``."""
        column = self._columns[name]
        if isinstance(column, DictColumn):
            # Count integer codes, then decode once per distinct value.
            decode = column._decode
            return {
                decode[code] if code >= 0 else None: count
                for code, count in Counter(
                    map(column._codes.__getitem__, indices)
                ).items()
            }
        if column._nulls:
            return Counter(column.gather(indices))
        return Counter(map(column._data.__getitem__, indices))

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
    ) -> tuple[Sequence[int], Predicate | None]:
        """Filter ``indices`` by ``predicate``, column-at-a-time.

        Returns ``(narrowed, leftover)``, where ``leftover`` is the suffix
        of conjuncts the store could not vectorize (``None`` when fully
        evaluated).  The caller must apply ``leftover`` row-at-a-time over
        ``narrowed`` to finish the selection.  ``narrowed`` keeps the order
        of ``indices``.
        """
        parts = (
            predicate.parts
            if isinstance(predicate, Conjunction)
            else (predicate,)
        )
        if isinstance(indices, range) and indices == range(len(self)):
            seeded = self._select_from_postings(parts)
            if seeded is not None:
                perf.count("select.index_path")
                return seeded, None
        perf.count("select.scan_path")
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

    def _select_from_postings(
        self, parts: Sequence[Predicate]
    ) -> Sequence[int] | None:
        """The whole table's matches, seeded from one categorical IN.

        Picks the categorical ``IN`` conjunct whose posting lists hold the
        fewest rows, filters the other conjuncts over each of its posting
        lists, and merges the survivors into ascending order, so nothing
        larger than one filtered posting list is ever held.  A lone
        posting list with nothing else to filter is the answer as it is.

        None (scan instead) when no such conjunct stays under
        :data:`INDEX_CROSSOVER`, or when another conjunct cannot be
        vectorized: its row-at-a-time evaluation must see the rows the
        left-to-right scan shows it.  Every conjunct is checked, even
        when no candidate is left, because whether a filter vectorizes
        never depends on the rows it is given.
        """
        best: tuple[int, int, list[array]] | None = None
        for position, part in enumerate(parts):
            if not (
                isinstance(part, InPredicate)
                and part.attribute in self._categorical
            ):
                continue
            index = self.groupby(part.attribute)
            # A NULL in the IN-set selects the NULL postings, as
            # ``None in values`` matches a NULL row-side.
            postings = [index[value] for value in part.values if value in index]
            count = sum(map(len, postings))
            if best is None or count < best[0]:
                best = (count, position, postings)
        if best is None or best[0] >= INDEX_CROSSOVER * len(self):
            return None
        _, position, postings = best
        others = parts[:position] + parts[position + 1:]
        matches: list[Sequence[int]] = []
        for candidates in postings or [[]]:
            for part in others:
                candidates = self._filter_one(part, candidates)
                if candidates is None:
                    return None
            matches.append(candidates)
        if len(matches) == 1:
            return matches[0]
        return sorted(chain.from_iterable(matches))

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
        value = predicate.value
        if isinstance(column, DictColumn):
            op = comparison_operator(predicate.op)
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
        nulls = column._nulls
        if nulls:
            # A NULL matches no comparison, ``!=`` included.
            indices = [i for i in indices if i not in nulls]
        return _NUMERIC_COMPARISONS[predicate.op](column._data, indices, value)

    def bucket_numeric(
        self, name: str, indices: Sequence[int], boundaries: Sequence[float]
    ) -> tuple[list[list[int]], int]:
        """Bucket ``indices`` by ascending ``boundaries`` over one column.

        Bucket ``k`` holds rows with ``boundaries[k] <= value <
        boundaries[k+1]`` (the last bucket closes at ``boundaries[-1]``);
        NULLs, non-finite values (NaN / ±inf), and out-of-range values are
        dropped and counted.  Returns the per-bucket index lists plus the
        dropped count.
        """
        column = self._columns[name]
        low, high = boundaries[0], boundaries[-1]
        last = len(boundaries) - 2
        buckets: list[list[int]] = [[] for _ in range(last + 1)]
        dropped = 0
        bisect_right = bisect.bisect_right
        if isinstance(column, DictColumn) or not all(
            map(math.isfinite, boundaries)
        ):
            # A dictionary column (a BOOL or TEXT attribute declared
            # NUMERIC) has no packed values to walk: gather and classify
            # each one.  Non-finite boundaries take the same guarded path,
            # since they would let NaN/±inf values through the range guard
            # and into bisect (whose order is undefined for them).  With
            # finite boundaries — every real workload — the ``low <= value
            # <= high`` guard below already drops non-finite values at zero
            # extra cost.
            isfinite = math.isfinite
            for i, value in zip(indices, column.gather(indices)):
                if value is not None and isfinite(value) and low <= value <= high:
                    buckets[bisect_right(boundaries, value, 0, last + 1) - 1].append(i)
                else:
                    dropped += 1
            return buckets, dropped
        data = column._data
        nulls = column._nulls
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
