"""SpillJournal: append/replay, rotation, checkpointing, crash recovery.

The durability contract under test (docs/serving.md, "Durability & warm
start"): every appended record survives process death once ``append``
returned; a torn tail is truncated and counted; a corrupt *middle*
record fail-stops recovery at the damage (never replays out of order);
and sequence numbers never repeat, even when recovery truncates records
a checkpoint already covered.
"""

from __future__ import annotations

import struct

import pytest

from repro.serving.faults import FaultInjector, InjectedCrash
from repro.serving.journal import FSYNC_POLICIES, SpillJournal

from tests.serving.conftest import file_size_limit

SQLS = [
    f"SELECT * FROM ListProperty WHERE bedroomcount = {n}" for n in range(1, 11)
]


def drain(journal: SpillJournal, after_seq: int = 0) -> list[tuple[int, str]]:
    return list(journal.replay(after_seq))


# -- append / replay ---------------------------------------------------------


def test_append_assigns_dense_sequences_and_replays_in_order(tmp_path):
    with SpillJournal(tmp_path) as journal:
        seqs = [journal.append(sql) for sql in SQLS]
        assert seqs == list(range(1, len(SQLS) + 1))
        assert journal.last_seq == len(SQLS)
        assert drain(journal) == list(zip(seqs, SQLS))


def test_replay_after_seq_skips_covered_prefix(tmp_path):
    with SpillJournal(tmp_path) as journal:
        for sql in SQLS:
            journal.append(sql)
        tail = drain(journal, after_seq=7)
        assert [seq for seq, _ in tail] == [8, 9, 10]
        assert [sql for _, sql in tail] == SQLS[7:]


def test_reopen_replays_everything_durable(tmp_path):
    with SpillJournal(tmp_path) as journal:
        for sql in SQLS:
            journal.append(sql)
    reopened = SpillJournal(tmp_path)
    assert drain(reopened) == list(enumerate(SQLS, start=1))
    assert reopened.truncated_records == 0
    reopened.close()


def test_unicode_payloads_round_trip(tmp_path):
    sql = "SELECT * FROM ListProperty WHERE city = 'Åré—北京'"
    with SpillJournal(tmp_path) as journal:
        journal.append(sql)
    reopened = SpillJournal(tmp_path)
    assert drain(reopened) == [(1, sql)]
    reopened.close()


@pytest.mark.parametrize("policy", FSYNC_POLICIES)
def test_fsync_policies_accepted(tmp_path, policy):
    with SpillJournal(tmp_path / policy, fsync=policy) as journal:
        journal.append(SQLS[0])
        journal.flush()
        assert drain(journal) == [(1, SQLS[0])]


def test_unknown_fsync_policy_rejected(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        SpillJournal(tmp_path, fsync="sometimes")


# -- failed appends ----------------------------------------------------------


def _fill_disk_mid_record(journal: SpillJournal):
    """Room for the next record's header and 5 payload bytes."""
    return file_size_limit(journal.size_bytes + 8 + 5)


def test_failed_write_is_cut_back_to_the_last_record(tmp_path):
    with SpillJournal(tmp_path) as journal:
        for sql in SQLS[:5]:
            journal.append(sql)
        (segment,) = tmp_path.glob("segment-*.log")
        size = segment.stat().st_size
        with _fill_disk_mid_record(journal), pytest.raises(OSError):
            journal.append(SQLS[5])
        assert journal.last_seq == 5
        assert segment.stat().st_size == size == journal.size_bytes
        assert journal.append(SQLS[6]) == 6
    with SpillJournal(tmp_path) as reopened:
        assert reopened.truncated_records == 0
        assert drain(reopened) == list(enumerate(SQLS[:5] + [SQLS[6]], start=1))


def test_failed_cut_back_refuses_appends_until_reopened(tmp_path, monkeypatch):
    import os

    def failing_ftruncate(fd, length):
        raise OSError("ftruncate refused")

    with SpillJournal(tmp_path) as journal:
        for sql in SQLS[:5]:
            journal.append(sql)
        with monkeypatch.context() as patch:
            patch.setattr(os, "ftruncate", failing_ftruncate)
            with _fill_disk_mid_record(journal), pytest.raises(OSError):
                journal.append(SQLS[5])
        with pytest.raises(OSError, match="reopen"):
            journal.append(SQLS[6])  # the partial record is still there
        assert journal.last_seq == 5
    with SpillJournal(tmp_path) as reopened:
        assert reopened.truncated_records == 1  # the torn tail
        assert drain(reopened) == list(enumerate(SQLS[:5], start=1))
        assert reopened.append(SQLS[6]) == 6


def test_failed_rotation_keeps_the_record_and_rotates_next_time(
    tmp_path, monkeypatch
):
    import repro.serving.journal as journal_module

    def failing_open(*args, **kwargs):
        raise OSError("no inode left for a new segment")

    with SpillJournal(tmp_path, segment_bytes=1) as journal:
        with monkeypatch.context() as patch:
            patch.setattr(journal_module, "open", failing_open, raising=False)
            assert journal.append(SQLS[0]) == 1  # durable, so acked
        assert journal.segment_count == 1
        assert journal.append(SQLS[1]) == 2
        assert journal.segment_count == 2
    with SpillJournal(tmp_path) as reopened:
        assert drain(reopened) == list(enumerate(SQLS[:2], start=1))


# -- rotation / checkpoint ---------------------------------------------------


def test_small_segment_budget_rotates(tmp_path):
    with SpillJournal(tmp_path, segment_bytes=120) as journal:
        for sql in SQLS:
            journal.append(sql)
        assert journal.segment_count > 1
        # Rotation is invisible to replay: one dense, ordered stream.
        assert drain(journal) == list(enumerate(SQLS, start=1))


def test_checkpoint_prunes_fully_covered_sealed_segments(tmp_path):
    with SpillJournal(tmp_path, segment_bytes=120) as journal:
        for sql in SQLS:
            journal.append(sql)
        before = journal.segment_count
        journal.checkpoint(journal.last_seq)
        assert journal.segment_count < before
        assert journal.checkpoint_seq == len(SQLS)
        # Covered records are gone; nothing past the watermark was lost.
        assert drain(journal, after_seq=journal.checkpoint_seq) == []


def test_checkpoint_survives_reopen(tmp_path):
    with SpillJournal(tmp_path, segment_bytes=120) as journal:
        for sql in SQLS:
            journal.append(sql)
        journal.checkpoint(6)
    reopened = SpillJournal(tmp_path, segment_bytes=120)
    assert reopened.checkpoint_seq == 6
    assert [seq for seq, _ in drain(reopened, after_seq=6)] == [7, 8, 9, 10]
    reopened.close()


# -- recovery: the empty, torn, and corrupt cases ----------------------------


def test_recovery_of_missing_directory_is_a_noop(tmp_path):
    journal = SpillJournal(tmp_path / "never-created")
    assert journal.last_seq == 0
    assert journal.truncated_records == 0
    assert drain(journal) == []
    journal.close()


def test_recovery_of_empty_journal_is_a_noop(tmp_path):
    SpillJournal(tmp_path).close()  # creates an empty active segment
    reopened = SpillJournal(tmp_path)
    assert reopened.last_seq == 0
    assert reopened.truncated_records == 0
    assert drain(reopened) == []
    reopened.close()


def _segment_paths(tmp_path):
    return sorted(tmp_path.glob("segment-*.log"))


def test_torn_final_record_is_truncated_and_counted(tmp_path):
    with SpillJournal(tmp_path) as journal:
        for sql in SQLS[:5]:
            journal.append(sql)
    # A crash mid-append leaves a partial record at the tail.
    (segment,) = _segment_paths(tmp_path)
    with open(segment, "ab") as handle:
        handle.write(struct.pack("<II", 999, 0) + b"SELECT * FR")

    reopened = SpillJournal(tmp_path)
    assert reopened.truncated_records == 1
    assert reopened.last_seq == 5
    assert drain(reopened) == list(enumerate(SQLS[:5], start=1))
    # The journal keeps working after surgery: new appends extend the seq.
    assert reopened.append(SQLS[5]) == 6
    reopened.close()


def test_corrupt_middle_record_fail_stops_and_counts_the_tail(tmp_path):
    with SpillJournal(tmp_path) as journal:
        for sql in SQLS[:6]:
            journal.append(sql)
    (segment,) = _segment_paths(tmp_path)
    raw = bytearray(segment.read_bytes())
    # Flip one payload byte of record 3 (skip records 1-2, then the header).
    offset = 0
    for _ in range(2):
        length, _crc = struct.unpack_from("<II", raw, offset)
        offset += 8 + length
    raw[offset + 8] ^= 0xFF
    segment.write_bytes(raw)

    reopened = SpillJournal(tmp_path)
    # Fail-stop: record 3 and every parseable successor (4-6) are dropped
    # and counted — replaying past damage would reorder history.
    assert reopened.truncated_records == 4
    assert drain(reopened) == list(enumerate(SQLS[:2], start=1))
    reopened.close()


def test_corruption_in_sealed_segment_drops_later_segments(tmp_path):
    with SpillJournal(tmp_path, segment_bytes=120) as journal:
        for sql in SQLS:
            journal.append(sql)
        total_segments = journal.segment_count
    assert total_segments > 2
    first, *rest = _segment_paths(tmp_path)
    raw = bytearray(first.read_bytes())
    raw[8] ^= 0xFF  # corrupt the very first record's payload
    first.write_bytes(raw)

    reopened = SpillJournal(tmp_path)
    # Every record after the damage — same segment and all later
    # segments — is counted as truncated, and the later files deleted.
    assert reopened.truncated_records == len(SQLS)
    assert drain(reopened) == []
    assert reopened.segment_count < total_segments
    reopened.close()


def test_sequences_never_reused_after_checkpointed_truncation(tmp_path):
    with SpillJournal(tmp_path) as journal:
        for sql in SQLS[:5]:
            journal.append(sql)
        journal.checkpoint(5)
    # Corrupt everything: recovery drops all five checkpointed records.
    for segment in _segment_paths(tmp_path):
        raw = bytearray(segment.read_bytes())
        raw[8] ^= 0xFF
        segment.write_bytes(raw)

    reopened = SpillJournal(tmp_path)
    # New appends must start past the checkpoint: reusing seq <= 5 would
    # make replay(after=checkpoint) silently skip brand-new records.
    assert reopened.append("SELECT * FROM ListProperty") == 6
    assert [seq for seq, _ in drain(reopened, after_seq=5)] == [6]
    reopened.close()


# -- crash-point injection ---------------------------------------------------


def test_crash_before_write_leaves_nothing(tmp_path):
    faults = FaultInjector(seed=7)
    journal = SpillJournal(tmp_path, faults=faults)
    journal.append(SQLS[0])
    faults.arm("journal.append", crash=True)
    with pytest.raises(InjectedCrash):
        journal.append(SQLS[1])
    journal.close()
    reopened = SpillJournal(tmp_path)
    assert drain(reopened) == [(1, SQLS[0])]
    assert reopened.truncated_records == 0
    reopened.close()


def test_crash_mid_append_leaves_a_recoverable_torn_tail(tmp_path):
    faults = FaultInjector(seed=7)
    journal = SpillJournal(tmp_path, faults=faults)
    journal.append(SQLS[0])
    faults.arm("journal.append.torn", crash=True)
    with pytest.raises(InjectedCrash):
        journal.append(SQLS[1])
    journal.close()  # flushes the torn header bytes, as the OS might
    reopened = SpillJournal(tmp_path)
    assert reopened.truncated_records == 1
    assert drain(reopened) == [(1, SQLS[0])]
    assert reopened.append(SQLS[1]) == 2  # and life goes on
    reopened.close()


def test_crash_after_fsync_preserves_the_record(tmp_path):
    faults = FaultInjector(seed=7)
    journal = SpillJournal(tmp_path, faults=faults)
    faults.arm("journal.append.synced", crash=True)
    with pytest.raises(InjectedCrash):
        journal.append(SQLS[0])
    journal.close()
    # The crash happened after the fsync: the record is durable even
    # though the caller never saw the append return (at-least-once).
    reopened = SpillJournal(tmp_path)
    assert drain(reopened) == [(1, SQLS[0])]
    reopened.close()


def test_crash_before_checkpoint_rename_keeps_old_watermark(tmp_path):
    faults = FaultInjector(seed=7)
    journal = SpillJournal(tmp_path, segment_bytes=120, faults=faults)
    for sql in SQLS:
        journal.append(sql)
    journal.checkpoint(3)
    faults.arm("journal.checkpoint.rename", crash=True)
    with pytest.raises(InjectedCrash):
        journal.checkpoint(8)
    journal.close()
    reopened = SpillJournal(tmp_path, segment_bytes=120)
    assert reopened.checkpoint_seq == 3  # the old watermark, atomically
    reopened.close()
