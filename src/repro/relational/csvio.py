"""CSV round-trip for tables.

Lets examples and tests persist synthetic datasets, and lets downstream
users load their own relations into the categorizer.  NULLs are written as
empty fields; types are restored from the schema on load.

Real exports are messier than our own round-trip: truncated lines, stray
delimiters, values that fail type coercion.  ``read_csv(strict=False)``
loads such files anyway, skipping each malformed row and accounting for it
in the labeled ``csv.bad_rows{reason=...}`` perf counter instead of
aborting the whole load — the posture a long-lived serving process needs
when refreshing its relation from an external feed.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro import perf
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType

#: Records read, transposed and converted per pass.  Large enough that the
#: per-chunk overhead vanishes, small enough that one chunk's rows and
#: converted columns — all a load holds besides the table — stay a few
#: megabytes.
CHUNK_ROWS = 4096

#: How a column pass parses non-empty text, by data type; ``None`` keeps
#: the text.  Each gives exactly what ``DataType.coerce`` gives a string.
_TEXT_PARSERS = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.TEXT: None,
    DataType.BOOL: DataType.BOOL.coerce,
}


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` with a header row.

    NULL values become empty fields.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        names = table.schema.names()
        writer.writerow(names)
        for row in table:
            writer.writerow(["" if row[n] is None else row[n] for n in names])


def read_csv(
    schema: TableSchema,
    path: str | Path,
    strict: bool = True,
    backend: str = "rows",
    backend_options: Mapping[str, Any] | None = None,
) -> Table:
    """Load a CSV written by :func:`write_csv` (or compatible) into a Table.

    The header must contain every schema attribute; extra columns are
    ignored.  Empty fields become NULL; other fields are converted by the
    attribute's data type.  The file is read :data:`CHUNK_ROWS` records at
    a time: each chunk is transposed with ``zip(*rows)``, each of its
    columns converted in one pass (``int``, ``float``, or kept as text),
    and the converted columns appended to the table's backend through
    :meth:`Table.load_columns`.  A chunk that does not convert cleanly — a
    ragged row, an unparseable value, a NULL in a non-nullable column — is
    coerced again row by row through :meth:`Attribute.coerce`, so errors
    and skips name the exact record either way.

    Args:
        schema: the relation the file must conform to.
        path: the CSV file.
        strict: when True (the default), the first malformed row aborts
            the load with a ``ValueError`` naming ``path:line``, where line
            counts records from 1 at the header.  Rows shorter than the
            header are padded with NULLs, longer ones truncated.  When
            False, malformed rows are skipped and counted per failure mode
            in the ``csv.bad_rows{reason=...}`` perf counter: ``arity`` for
            rows whose field count does not match the header, ``type`` for
            rows a schema coercion rejects.
        backend: storage backend of the resulting table (``"rows"``,
            ``"columnar"`` or ``"sharded"``; see ``docs/storage.md``).
        backend_options: backend-specific constructor keywords (the
            sharded backend's ``workers`` etc.).

    Raises:
        ValueError: if the header is missing schema attributes, or (in
            strict mode) for the first malformed row.
    """
    path = Path(path)
    attributes = tuple(schema)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty; expected a header row") from None
        missing = set(schema.names()) - set(header)
        if missing:
            raise ValueError(
                f"{path} is missing attributes {sorted(missing)} "
                f"required by schema {schema.name!r}"
            )
        positions = [header.index(a.name) for a in attributes]
        table = Table(schema, backend=backend, backend_options=backend_options)
        line_number = 2
        while rows := list(islice(reader, CHUNK_ROWS)):
            columns = _convert_chunk(attributes, positions, len(header), rows)
            if columns is None:
                columns = _coerce_rows(
                    attributes, positions, len(header), rows, path, line_number, strict
                )
            table.load_columns(columns)
            line_number += len(rows)
    perf.count("csv.rows_loaded", len(table))
    return table


def _convert_chunk(
    attributes: Sequence[Attribute],
    positions: Sequence[int],
    width: int,
    rows: list[list[str]],
) -> dict[str, Sequence[Any]] | None:
    """The chunk converted a column at a time, or None if any row needs
    the per-row path (ragged, unparseable, or NULL where not allowed)."""
    if set(map(len, rows)) != {width}:
        return None
    fields = list(zip(*rows))
    columns: dict[str, Sequence[Any]] = {}
    for attribute, position in zip(attributes, positions):
        texts = fields[position]
        parse = _TEXT_PARSERS[attribute.data_type]
        try:
            if "" not in texts:
                column = texts if parse is None else list(map(parse, texts))
            elif not attribute.nullable:
                return None
            elif parse is None:
                column = [text or None for text in texts]
            else:
                column = [parse(text) if text else None for text in texts]
        except (TypeError, ValueError):
            return None
        columns[attribute.name] = column
    return columns


def _coerce_rows(
    attributes: Sequence[Attribute],
    positions: Sequence[int],
    width: int,
    rows: list[list[str]],
    path: Path,
    first_line: int,
    strict: bool,
) -> dict[str, list[Any]]:
    """The chunk coerced one row at a time, keeping or skipping each row
    whole and naming (strict) or counting (lenient) the malformed ones."""
    columns: dict[str, list[Any]] = {a.name: [] for a in attributes}
    plan = [(a, columns[a.name].append, p) for a, p in zip(attributes, positions)]
    for line_number, fields in enumerate(rows, start=first_line):
        if not strict and len(fields) != width:
            perf.count("csv.bad_rows", reason="arity")
            continue
        try:
            # Coerce the whole row before appending anything, keeping
            # the columns untorn when a later field fails.
            coerced = [
                attribute.coerce(
                    None
                    if position >= len(fields) or fields[position] == ""
                    else fields[position]
                )
                for attribute, _, position in plan
            ]
        except (TypeError, ValueError) as exc:
            if strict:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
            perf.count("csv.bad_rows", reason="type")
            continue
        for (_, append, _), value in zip(plan, coerced):
            append(value)
    return columns
