"""Durable write-ahead journal for recorded workload queries.

The ingestion invariant — every recorded query is published or pending;
none vanish (``published + pending == recorded``) — holds in memory
only while the process lives.  :class:`SpillJournal` extends it
**across process death**: :meth:`CategorizationService.record_query
<repro.serving.service.CategorizationService.record_query>` appends the
query here *before* the statistics store absorbs it and before anything
acknowledges it.  An append is all-or-nothing: segments are written
unbuffered, and when a write or fsync fails the active segment is cut
back to its last complete record and the caller gets the ``OSError``,
so :attr:`SpillJournal.last_seq` always matches the file.  If that cut
fails too, the journal refuses every later append until reopening it
truncates the torn tail.

On-disk layout (one directory per journal)::

    journal/
      segment-000000000001.log     records 1..N (first seq in the name)
      segment-000000000NNN.log     the active segment (highest name)
      CHECKPOINT                   {"seq": S} — records <= S are covered
                                   by a statistics snapshot

Each record is ``[u32 payload length][u32 CRC32(payload)][payload]``
(little endian), where the payload is the query's normalized SQL
(:meth:`WorkloadQuery.to_sql <repro.workload.model.WorkloadQuery.to_sql>`)
encoded as UTF-8 — a self-describing, replayable statement rather than a
pickled object.  Records are numbered by a global sequence starting at 1;
segment files are named by the sequence of their first record, so the
next sequence after a restart is recoverable by scanning the last
segment.

Durability knobs mirror the telemetry sink's ``fsync_policy``:
``"always"`` (fsync per append — the default, because an acked ``/record``
must survive SIGKILL), ``"rotate"`` (fsync on segment rotation,
checkpoint, and close), ``"never"`` (page cache only).  Segment rotation
and the CHECKPOINT file go through the atomic temp + fsync + rename
dance, so a crash at any point leaves either the old or the new file,
never a half-written one.

Recovery semantics (applied by the constructor — opening a journal *is*
recovering it):

* **Torn tail** — the final record of the final segment is incomplete or
  fails its CRC (a crash mid-append).  The file is truncated back to the
  last good record; the partial record was never acknowledged, so
  nothing acked is lost.  Counted in ``journal.truncated_records``.
* **Corrupt middle record** — a CRC failure *before* the end of the log
  (bit rot, a lying disk).  Fail-stop: the journal refuses to replay
  past the corruption, truncates there, and counts every dropped record
  (the corrupt one plus any parseable successors) in
  ``journal.truncated_records``.  Replaying records after a hole would
  apply queries out of arrival order, which the statistics fold assumes.
* **Empty journal / missing directory** — a no-op; the directory is
  created and sequence numbering starts at 1.

Crash-point fault sites (see :mod:`repro.serving.faults`):
``journal.append`` before any bytes are written, ``journal.append.torn``
between header and payload, ``journal.append.synced`` after the fsync,
and ``journal.checkpoint.rename`` between the CHECKPOINT temp write and
its rename.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterator

from repro import perf
from repro.serving.faults import NULL_INJECTOR, FaultInjector

#: ``[u32 payload length][u32 CRC32(payload)]`` little endian.
_RECORD_HEADER = struct.Struct("<II")

#: Allowed fsync policies, mirroring the telemetry sink's knob.
FSYNC_POLICIES = ("never", "rotate", "always")

#: Refuse absurd record lengths during recovery: a corrupt length field
#: must not make the scanner "skip" gigabytes of the file.
_MAX_RECORD_BYTES = 16 * 1024 * 1024

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".log"
_CHECKPOINT_NAME = "CHECKPOINT"


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _write_all(handle: io.FileIO, data: bytes) -> None:
    """Write all of ``data``, continuing short writes (a filling disk)."""
    view = memoryview(data)
    while view:
        view = view[handle.write(view):]


def _fsync_dir(directory: Path) -> None:
    """Fsync a directory so renames inside it survive power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, payload: bytes, faults: FaultInjector | None = None,
                 rename_site: str | None = None) -> None:
    """Write ``payload`` to ``path`` via temp + fsync + rename.

    A crash before the rename leaves the old file (or nothing) in place;
    a crash after leaves the complete new file — never a torn one.  When
    ``rename_site`` is given, the fault site fires between the temp
    write and the rename (the "before rename" crash point).
    """
    injector = faults or NULL_INJECTOR
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    if rename_site is not None:
        injector.fire(rename_site)
    os.replace(tmp, path)
    _fsync_dir(path.parent)


class _Segment:
    """One journal segment's identity: first sequence, path, record count."""

    __slots__ = ("first_seq", "path", "records", "bytes")

    def __init__(self, first_seq: int, path: Path, records: int, size: int) -> None:
        self.first_seq = first_seq
        self.path = path
        self.records = records
        self.bytes = size

    @property
    def last_seq(self) -> int:
        return self.first_seq + self.records - 1


class SpillJournal:
    """Append-only, CRC-checksummed write-ahead log of recorded queries.

    Args:
        directory: the journal directory (created if missing).  Opening
            the journal runs recovery: torn tails are truncated, corrupt
            records fail-stop, and the next sequence number is derived
            from what survived.
        segment_bytes: rotate to a fresh segment once the active one
            exceeds this size.
        fsync: one of :data:`FSYNC_POLICIES`.
        faults: injector wired to the ``journal.*`` crash sites.
    """

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = 4 * 1024 * 1024,
        fsync: str = "always",
        faults: FaultInjector | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self._faults = faults or NULL_INJECTOR
        self._lock = threading.Lock()
        self._truncated_records = 0
        self._segments: list[_Segment] = []
        self._recover_segments()
        if not self._segments:
            self._segments.append(
                _Segment(1, self.directory / _segment_name(1), 0, 0)
            )
        active = self._segments[-1]
        next_seq = active.first_seq + active.records
        checkpoint = self.checkpoint_seq
        if checkpoint >= next_seq:
            # Recovery truncated records the checkpoint already covered
            # (double failure: corruption below the snapshot's watermark).
            # Skip past the checkpoint so new appends never reuse covered
            # sequence numbers — replay(after=checkpoint) must see them.
            next_seq = checkpoint + 1
            active = _Segment(
                next_seq, self.directory / _segment_name(next_seq), 0, 0
            )
            self._segments.append(active)
        self._file = open(active.path, "ab", buffering=0)
        self._next_seq = next_seq
        # A failed append that could not be cut back left a torn tail.
        self._torn_tail = False
        self._update_gauges()

    # -- introspection -------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence of the newest durable record (0 = journal empty)."""
        return self._next_seq - 1

    @property
    def truncated_records(self) -> int:
        """Records dropped by recovery (torn tails + fail-stop corruption)."""
        return self._truncated_records

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def size_bytes(self) -> int:
        """Total bytes across all live segments."""
        return sum(segment.bytes for segment in self._segments)

    @property
    def checkpoint_seq(self) -> int:
        """The CHECKPOINT's covered sequence (0 when none written yet)."""
        path = self.directory / _CHECKPOINT_NAME
        try:
            data = json.loads(path.read_text())
            seq = data.get("seq")
            return seq if isinstance(seq, int) and seq >= 0 else 0
        except (OSError, ValueError):
            return 0

    # -- append path ---------------------------------------------------------

    def append(self, sql: str) -> int:
        """Durably append one normalized SQL statement; return its seq.

        The record is on disk (to the armed fsync policy) before this
        returns — callers ack ``/record`` only after the append, which is
        what makes "no acked query vanishes across SIGKILL" true.

        Raises:
            OSError: a write or fsync failed.  The segment was cut back
                to its last complete record, so the statement is not in
                the journal and ``last_seq`` is unchanged.
        """
        payload = sql.encode("utf-8")
        header = _RECORD_HEADER.pack(len(payload), zlib.crc32(payload))
        with self._lock:
            if self._torn_tail:
                raise OSError(
                    "journal refuses appends after a failed append it could "
                    "not cut back; reopen it to recover"
                )
            self._faults.fire("journal.append")
            active = self._segments[-1]
            try:
                _write_all(self._file, header)
                # The torn-write crash point: header bytes are out, payload
                # is not.  An armed crash here leaves exactly the torn tail
                # recovery must truncate.
                self._faults.fire("journal.append.torn")
                _write_all(self._file, payload)
                if self.fsync == "always":
                    os.fsync(self._file.fileno())
            except OSError:
                try:
                    os.ftruncate(self._file.fileno(), active.bytes)
                except OSError:
                    self._torn_tail = True
                raise
            self._faults.fire("journal.append.synced")
            seq = self._next_seq
            self._next_seq += 1
            active.records += 1
            active.bytes += _RECORD_HEADER.size + len(payload)
            perf.count("journal.appends")
            if active.bytes >= self.segment_bytes:
                try:
                    self._rotate_locked()
                except OSError:
                    pass  # the record is durable; the next append rotates
            self._update_gauges()
            return seq

    def _rotate_locked(self) -> None:
        """Seal the active segment and open a fresh one.

        A failure leaves the old segment active and appendable.
        """
        if self.fsync in ("rotate", "always"):
            os.fsync(self._file.fileno())
        first = self._next_seq
        segment = _Segment(first, self.directory / _segment_name(first), 0, 0)
        handle = open(segment.path, "ab", buffering=0)
        self._file.close()
        self._file = handle
        self._segments.append(segment)
        _fsync_dir(self.directory)
        perf.count("journal.rotations")

    # -- replay path ---------------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[tuple[int, str]]:
        """Yield ``(seq, sql)`` for every durable record with seq > after_seq.

        Reads the segment files directly (recovery already truncated any
        damage), so replay sees exactly what a restarted process would.
        """
        with self._lock:
            segments = [
                (segment.first_seq, segment.path, segment.records)
                for segment in self._segments
            ]
        for first_seq, path, records in segments:
            if records == 0 or first_seq + records - 1 <= after_seq:
                continue
            seq = first_seq
            for payload in _scan_records(path, records):
                if seq > after_seq:
                    yield seq, payload.decode("utf-8")
                seq += 1

    # -- checkpoint / retention ----------------------------------------------

    def checkpoint(self, seq: int) -> None:
        """Mark records <= ``seq`` as covered by a snapshot; prune segments.

        The CHECKPOINT write is atomic; pruning only deletes sealed
        segments whose every record is covered, so a crash between the
        rename and the unlinks merely delays pruning to the next
        checkpoint.
        """
        with self._lock:
            payload = json.dumps({"seq": seq}).encode("utf-8")
            atomic_write(
                self.directory / _CHECKPOINT_NAME,
                payload,
                faults=self._faults,
                rename_site="journal.checkpoint.rename",
            )
            survivors = []
            for segment in self._segments:
                sealed = segment is not self._segments[-1]
                if sealed and segment.records > 0 and segment.last_seq <= seq:
                    try:
                        segment.path.unlink()
                    except OSError:
                        survivors.append(segment)
                    continue
                survivors.append(segment)
            self._segments = survivors
            perf.count("journal.checkpoints")
            self._update_gauges()

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Fsync the active segment unless the policy is ``never``."""
        with self._lock:
            if self.fsync in ("rotate", "always"):
                os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if self._file.closed:
                return
            if self.fsync in ("rotate", "always"):
                os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "SpillJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- recovery ------------------------------------------------------------

    def _recover_segments(self) -> None:
        """Scan segments oldest-first, truncating damage (see module doc)."""
        paths = sorted(self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))
        parsed: list[tuple[int, Path]] = []
        for path in paths:
            stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            try:
                parsed.append((int(stem), path))
            except ValueError:
                continue
        parsed.sort()
        failed_at: int | None = None
        for index, (first_seq, path) in enumerate(parsed):
            if failed_at is not None:
                # Fail-stop: a corrupt record in an earlier segment means
                # every later record would replay out of order.  Count
                # and delete them.
                self._truncated_records += sum(
                    1 for _ in _scan_records(path, None)
                )
                path.unlink()
                continue
            records, good_bytes, dropped, clean = _scan_segment(path)
            self._truncated_records += dropped
            if dropped:
                with open(path, "rb+") as handle:
                    handle.truncate(good_bytes)
                _fsync_dir(self.directory)
            self._segments.append(_Segment(first_seq, path, records, good_bytes))
            if not clean and index + 1 < len(parsed):
                failed_at = index
        if self._truncated_records:
            perf.count("journal.truncated_records", self._truncated_records)

    def _update_gauges(self) -> None:
        perf.gauge("ingest.journal_bytes", self.size_bytes)
        perf.gauge("ingest.journal_segments", len(self._segments))


def _scan_segment(path: Path) -> tuple[int, int, int, bool]:
    """Scan one segment; return (good records, good bytes, dropped, clean).

    ``dropped`` counts the corrupt record itself plus any parseable
    records after it (they are being abandoned by fail-stop, so the
    operator should know how many).  ``clean`` is False when the segment
    ended in damage rather than a tidy EOF.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return 0, 0, 0, True
    offset = 0
    records = 0
    while True:
        header = data[offset:offset + _RECORD_HEADER.size]
        if not header:
            return records, offset, 0, True
        if len(header) < _RECORD_HEADER.size:
            # Torn header at EOF: one partial, unacknowledged record.
            return records, offset, 1, False
        length, checksum = _RECORD_HEADER.unpack(header)
        start = offset + _RECORD_HEADER.size
        payload = data[start:start + length]
        if length > _MAX_RECORD_BYTES or len(payload) < length:
            # Torn payload (or an insane corrupt length): stop here.
            return records, offset, 1, False
        if zlib.crc32(payload) != checksum:
            # CRC failure: count this record and every still-parseable
            # successor as dropped, then fail-stop at this offset.
            dropped = 1 + _count_parseable(data, start + length)
            return records, offset, dropped, False
        records += 1
        offset = start + length


def _count_parseable(data: bytes, offset: int) -> int:
    """How many well-formed records follow ``offset`` (for drop counts)."""
    count = 0
    while True:
        header = data[offset:offset + _RECORD_HEADER.size]
        if len(header) < _RECORD_HEADER.size:
            return count + (1 if header else 0)
        length, _ = _RECORD_HEADER.unpack(header)
        start = offset + _RECORD_HEADER.size
        if length > _MAX_RECORD_BYTES or len(data) - start < length:
            return count + 1
        count += 1
        offset = start + length


def _scan_records(path: Path, expected: int | None) -> Iterator[bytes]:
    """Yield record payloads from a (recovered, trusted) segment file."""
    try:
        data = path.read_bytes()
    except OSError:
        return
    offset = 0
    yielded = 0
    while expected is None or yielded < expected:
        header = data[offset:offset + _RECORD_HEADER.size]
        if len(header) < _RECORD_HEADER.size:
            return
        length, checksum = _RECORD_HEADER.unpack(header)
        start = offset + _RECORD_HEADER.size
        payload = data[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != checksum:
            return
        yield payload
        yielded += 1
        offset = start + length
