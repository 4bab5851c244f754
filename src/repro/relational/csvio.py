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
from typing import Any, Sequence

from repro import perf
from repro.relational.backends import require_columnar
from repro.relational.schema import Attribute, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType

#: Records read, transposed and converted per pass.  A load holds one
#: chunk at a time beside the table (its rows, their transpose and the
#: converted columns), and the heap it frees stays resident, interleaved
#: with the table's own objects, so the chunk sets both the load's peak
#: and the slack a booted server keeps.  On the 100,000-row perfbench
#: relation (seed 7; 2-vCPU Xeon, Python 3.11.7), with 256 / 512 / 1,024 /
#: 2,048 / 4,096 rows per chunk, the load peaked at 1.5 / 1.7 / 2.2 / 3.1 /
#: 4.9 MiB (tracemalloc), RSS after a cold boot read 29.4 / 29.5 / 30.0 /
#: 31.3 / 33.6 MB, and the load took 0.31-0.32 s up to 2,048 rows and
#: 0.37 s at 4,096 (min of 8 interleaved loads).
CHUNK_ROWS = 512

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
    backend: str = "columnar",
) -> Table:
    """Load a CSV written by :func:`write_csv` (or compatible) into a Table.

    The header must contain every schema attribute; extra columns are
    ignored.  Empty fields become NULL; other fields are converted by the
    attribute's data type.  The file is read :data:`CHUNK_ROWS` records at
    a time: each chunk is transposed with ``zip(*rows)``, each of its
    columns converted in one pass (``int``, ``float``, or kept as text),
    and the converted columns appended to the table's store through
    :meth:`Table.load_columns`.  A chunk that does not convert cleanly — a
    ragged row, an unparseable value, a NULL in a non-nullable column — or
    that the store refuses (an INT outside int64) is inserted again row
    by row through :meth:`Table.insert`, so errors and skips name the
    exact record either way.

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
            rows a schema coercion or the store rejects.
        backend: accepted for older callers; only ``"columnar"`` (see
            ``docs/storage.md``).

    Raises:
        ValueError: if the header is missing schema attributes, for a
            ``backend`` other than ``"columnar"``, or (in strict mode)
            for the first malformed row.
    """
    require_columnar(backend)
    path = Path(path)
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
        positions = [header.index(name) for name in schema.names()]
        table = Table(schema)
        line_number = 2
        # The chunk lives only in _load_chunk's frame, so its rows and
        # columns are freed before the next chunk is read.
        while records := _load_chunk(
            table,
            list(islice(reader, CHUNK_ROWS)),
            positions,
            len(header),
            path,
            line_number,
            strict,
        ):
            line_number += records
    perf.count("csv.rows_loaded", len(table))
    return table


def _load_chunk(
    table: Table,
    rows: list[list[str]],
    positions: Sequence[int],
    width: int,
    path: Path,
    first_line: int,
    strict: bool,
) -> int:
    """Append one chunk of records to ``table``; return how many it held.

    The chunk goes in column-at-a-time when it converts cleanly and the
    store takes it, and row by row (:func:`_insert_rows`) otherwise.
    """
    if not rows:
        return 0
    columns = _convert_chunk(tuple(table.schema), positions, width, rows)
    if columns is not None:
        try:
            table.load_columns(columns)
            return len(rows)
        except OverflowError:
            pass  # an INT outside int64: the store left the table unchanged
    _insert_rows(table, positions, width, rows, path, first_line, strict)
    return len(rows)


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


def _insert_rows(
    table: Table,
    positions: Sequence[int],
    width: int,
    rows: list[list[str]],
    path: Path,
    first_line: int,
    strict: bool,
) -> None:
    """Insert the chunk one row at a time, keeping or skipping each row
    whole and naming (strict) or counting (lenient) the malformed ones."""
    plan = list(zip(table.schema.names(), positions))
    for line_number, fields in enumerate(rows, start=first_line):
        if not strict and len(fields) != width:
            perf.count("csv.bad_rows", reason="arity")
            continue
        try:
            table.insert(
                {
                    name: None
                    if position >= len(fields) or fields[position] == ""
                    else fields[position]
                    for name, position in plan
                }
            )
        except (TypeError, ValueError, OverflowError) as exc:
            if strict:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
            perf.count("csv.bad_rows", reason="type")
