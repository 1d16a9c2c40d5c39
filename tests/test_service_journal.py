"""Write-ahead journal: LSNs, segments, checkpoints, crash recovery."""

import io
import json
import os
import zlib

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.journal import Journal, JournalCorrupt, JournalRecord


def seg_files(root):
    return sorted(f for f in os.listdir(root) if f.startswith("wal-"))


def snap_files(root):
    return sorted(f for f in os.listdir(root) if f.startswith("snap-"))


def append_n(j, n, start=0):
    return [j.append("insert", f"j{start + i}", i + 1) for i in range(n)]


# ----------------------------------------------------------------------
# Appending


def test_lsn_assignment_and_reopen_continuity(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 0
        assert append_n(j, 3) == [1, 2, 3]
    # reopen: scans the durable tail, continues the LSN sequence
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 3
        assert j.append("delete", "j0", 1) == 4
    # a fresh segment per open -- never appends to a possibly-torn tail
    assert len(seg_files(root)) == 2


def test_segment_roll(tmp_path):
    with Journal(str(tmp_path), fsync="never", segment_records=2) as j:
        append_n(j, 5)
        assert j.stats()["segments"] == 3
    assert seg_files(str(tmp_path)) == [
        "wal-0000000000000001.seg",
        "wal-0000000000000003.seg",
        "wal-0000000000000005.seg",
    ]


def test_constructor_validation(tmp_path):
    with pytest.raises(ValueError):
        Journal(str(tmp_path), fsync="sometimes")
    with pytest.raises(ValueError):
        Journal(str(tmp_path), fsync_interval=0)
    with pytest.raises(ValueError):
        Journal(str(tmp_path), segment_records=0)


def test_fsync_policies_count(tmp_path):
    with Journal(str(tmp_path / "a"), fsync="always") as j:
        append_n(j, 3)
        assert j.fsyncs == 3
    with Journal(str(tmp_path / "b"), fsync="interval", fsync_interval=2) as j:
        append_n(j, 5)
        assert j.fsyncs == 2  # after appends 2 and 4
    with Journal(str(tmp_path / "c"), fsync="never") as j:
        append_n(j, 5)
        assert j.fsyncs == 0


def test_registry_counters(tmp_path):
    reg = MetricsRegistry()
    with Journal(str(tmp_path), fsync="never", registry=reg) as j:
        append_n(j, 2)
        j.checkpoint({"marker": 1})
    snap = reg.snapshot()["counters"]
    assert snap["service.journal.appends"] == 2
    assert snap["service.journal.bytes"] > 0
    assert snap["service.journal.checkpoints"] == 1


# ----------------------------------------------------------------------
# Recovery


def test_recover_without_snapshot(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never", segment_records=2) as j:
        append_n(j, 5)
    snap, tail = Journal(root, fsync="never").recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2, 3, 4, 5]
    assert tail[0] == JournalRecord(lsn=1, op="insert", name="j0", size=1)


def test_checkpoint_truncates_and_recovers(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
        assert j.checkpoint({"marker": "A"}) == 3
        # covered segments are gone; appends continue past the snapshot
        assert seg_files(root) == []
        assert append_n(j, 2, start=3) == [4, 5]
    with Journal(root, fsync="never") as j:
        snap, tail = j.recover()
    assert snap == {"marker": "A"}
    assert [r.lsn for r in tail] == [4, 5]


def test_snapshot_pruning(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        for gen in range(4):
            append_n(j, 2, start=2 * gen)
            j.checkpoint({"gen": gen})
    names = snap_files(root)
    assert len(names) == 2  # newest + one fallback generation
    assert names == ["snap-0000000000000006.json", "snap-0000000000000008.json"]


def test_torn_final_line_tolerated(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    seg = os.path.join(root, seg_files(root)[0])
    with open(seg, "ab") as fh:
        fh.write(b'{"lsn": 4, "op": "ins')  # crash mid-write
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 3  # the torn record was never acknowledged
        snap, tail = j.recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2, 3]


def test_mid_segment_corruption_raises(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    seg = os.path.join(root, seg_files(root)[0])
    lines = open(seg, "rb").read().splitlines(keepends=True)
    lines[1] = b"garbage\n"
    with open(seg, "wb") as fh:
        fh.writelines(lines)
    # replaying past a hole would silently diverge -> refuse to open
    with pytest.raises(JournalCorrupt):
        Journal(root, fsync="never")


def test_missing_middle_segment_is_a_hole(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never", segment_records=2) as j:
        append_n(j, 6)
    os.unlink(os.path.join(root, "wal-0000000000000003.seg"))
    j = Journal(root, fsync="never")
    with pytest.raises(JournalCorrupt, match="hole"):
        j.recover()


def test_fallback_to_older_snapshot_when_tail_covers(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
        j.checkpoint({"marker": "old"})
        append_n(j, 2, start=3)  # LSNs 4, 5 stay in the live segment
    # a later snapshot generation exists but is unreadable
    bad = os.path.join(root, "snap-0000000000000005.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with Journal(root, fsync="never") as j:
        snap, tail = j.recover()
    assert snap == {"marker": "old"}
    assert [r.lsn for r in tail] == [4, 5]


def test_unreadable_snapshot_without_covering_tail_raises(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
        j.checkpoint({"marker": "old"})
        append_n(j, 2, start=3)
        j.checkpoint({"marker": "new"})  # truncates LSNs 4-5 from the log
    bad = os.path.join(root, "snap-0000000000000005.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    # acked ops 4-5 exist only in the corrupt snapshot: refuse, don't
    # silently roll back to LSN 3
    j = Journal(root, fsync="never")
    with pytest.raises(JournalCorrupt, match="unreadable"):
        j.recover()


def test_truncated_crc_final_record_is_a_torn_tail(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    seg = os.path.join(root, seg_files(root)[0])
    lines = open(seg, "rb").read().splitlines(keepends=True)
    last = lines[-1]
    # cut the final record in the middle of its CRC digits: the record
    # fails to decode, exactly like a crash mid-write of the checksum
    cut = last[: last.index(b'"c":') + 7]
    with open(seg, "wb") as fh:
        fh.writelines(lines[:-1])
        fh.write(cut)
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 2  # the truncated record was never acked
        snap, tail = j.recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2]


def test_duplicate_lsn_is_corruption(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 2)
    seg = os.path.join(root, seg_files(root)[0])
    from repro.service.journal import _encode_record

    # a well-formed record (valid CRC) re-using an existing LSN: replay
    # must refuse rather than silently double-apply
    dup = _encode_record(JournalRecord(lsn=2, op="insert", name="dup", size=1))
    with open(seg, "ab") as fh:
        fh.write(dup)
    j = Journal(root, fsync="never")
    with pytest.raises(JournalCorrupt, match="expected 3"):
        j.recover()


def test_zero_length_segment_is_tolerated(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
    # a crash right after a roll, before the first append, leaves an
    # empty segment behind; recovery must skip it, not choke
    open(os.path.join(root, "wal-0000000000000004.seg"), "wb").close()
    with Journal(root, fsync="never") as j:
        assert j.last_lsn == 3
        snap, tail = j.recover()
    assert snap is None
    assert [r.lsn for r in tail] == [1, 2, 3]


def test_idem_key_round_trips(tmp_path):
    with Journal(str(tmp_path), fsync="never") as j:
        j.append("insert", "a", 2, idem="cdeadbeef-1")
        j.append("delete", "a", 2)
    snap, tail = Journal(str(tmp_path), fsync="never").recover()
    assert snap is None
    assert tail[0].idem == "cdeadbeef-1"
    assert tail[1].idem is None


def test_injected_append_fault_consumes_no_lsn(tmp_path):
    from repro import faults

    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        j.append("insert", "a", 1)
        faults.activate(
            faults.parse_plan("journal.append.io=error:ENOSPC@times1")
        )
        try:
            with pytest.raises(OSError):
                j.append("insert", "b", 2)
            # all-or-nothing: the failed append left no trace
            assert j.last_lsn == 1
            assert j.append("insert", "b", 2) == 2
        finally:
            faults.deactivate()
    snap, tail = Journal(root, fsync="never").recover()
    assert [(r.lsn, r.name) for r in tail] == [(1, "a"), (2, "b")]


def test_stats_shape(tmp_path):
    with Journal(str(tmp_path), fsync="always") as j:
        append_n(j, 2)
        j.checkpoint({"m": 1})
        j.append("insert", "x", 1)
        s = j.stats()
    assert s["last_lsn"] == 3
    assert s["appends"] == 3
    assert s["checkpoints"] == 1
    assert s["segments"] == 1
    assert s["snapshots"] == 1
    assert s["fsyncs"] >= 3


def test_snapshot_is_canonical_json(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        j.append("insert", "a", 2)
        j.checkpoint({"b": 1, "a": {"z": 0, "y": 1}})
    path = os.path.join(root, snap_files(root)[0])
    text = open(path, encoding="utf-8").read()
    assert json.loads(text) == {"b": 1, "a": {"z": 0, "y": 1}}
    assert text.index('"a"') < text.index('"b"')  # sort_keys on disk


def _two_pass_encoding(rec):
    """The original record encoder: encode, CRC, re-encode with ``c``."""
    body = {"lsn": rec.lsn, "op": rec.op, "name": rec.name, "size": rec.size}
    if rec.idem is not None:
        body["i"] = rec.idem
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["c"] = zlib.crc32(payload.encode("utf-8"))
    return (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


@pytest.mark.parametrize(
    "rec",
    [
        JournalRecord(lsn=1, op="insert", name="a", size=3),
        JournalRecord(lsn=42, op="delete", name="job-17", size=1024),
        JournalRecord(lsn=7, op="insert", name="a", size=3, idem="cdeadbeef-1"),
        JournalRecord(lsn=2**40, op="delete", name='q"u\\o', size=1, idem="k"),
        JournalRecord(lsn=9, op="insert", name="naïve ☃", size=5, idem="é-1"),
    ],
)
def test_record_encoding_matches_two_pass_bytes(rec):
    # replicas store shipped lines verbatim: the one-pass encoder must
    # produce exactly the bytes the two-pass one did
    from repro.service.journal import _decode_record, _encode_record

    line = _encode_record(rec)
    assert line == _two_pass_encoding(rec)
    assert _decode_record(line.decode("utf-8")) == rec


def test_checkpoint_bytes_are_one_shot_sorted_json(tmp_path):
    from repro.core.snapshot import snapshot_single
    from repro.core.single import SingleServerScheduler

    sched = SingleServerScheduler(1024, delta=0.5)
    for i in range(60):
        sched.insert(f"j{i}", (i * 37) % 1024 + 1)
    doc = snapshot_single(sched, include_ledger=True)
    doc["service_dedup"] = [["k1", {"lsn": 1, "size": 3}]]
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 1)
        j.checkpoint(doc)
    data = open(os.path.join(root, snap_files(root)[0]), "rb").read()
    assert data == json.dumps(doc, sort_keys=True).encode("utf-8")
    streamed = io.StringIO()
    json.dump(doc, streamed, sort_keys=True)  # the pre-one-shot writer
    assert data == streamed.getvalue().encode("utf-8")


# ----------------------------------------------------------------------
# Dirty tracking: has anything been logged past the newest snapshot?


def test_dirty_tracks_appends_and_checkpoints(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        assert not j.dirty  # empty journal, no snapshot
        append_n(j, 2)
        assert j.dirty
        j.checkpoint({"m": 1})
        assert not j.dirty
        j.append("insert", "x", 1)
        assert j.dirty
    with Journal(root, fsync="never") as j:
        assert j.dirty  # the tail (LSN 3) survives the reopen
        j.checkpoint({"m": 2})
    with Journal(root, fsync="never") as j:
        assert not j.dirty  # newest snapshot on disk covers everything


def test_dirty_after_recover(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 2)
        j.checkpoint({"m": 1})
    with Journal(root, fsync="never") as j:
        snap, tail = j.recover()
        assert snap == {"m": 1} and tail == []
        assert not j.dirty
        j.append("insert", "x", 1)
    with Journal(root, fsync="never") as j:
        snap, tail = j.recover()
        assert [r.lsn for r in tail] == [3]
        assert j.dirty
    with Journal(str(tmp_path / "fresh"), fsync="never") as j:
        append_n(j, 2)
    with Journal(str(tmp_path / "fresh"), fsync="never") as j:
        snap, tail = j.recover()
        assert snap is None and len(tail) == 2
        assert j.dirty


def test_dirty_after_fallback_to_older_snapshot(tmp_path):
    root = str(tmp_path)
    with Journal(root, fsync="never") as j:
        append_n(j, 3)
        j.checkpoint({"marker": "old"})
        append_n(j, 2, start=3)
    with open(os.path.join(root, "snap-0000000000000005.json"), "w",
              encoding="utf-8") as fh:
        fh.write("{not json")
    with Journal(root, fsync="never") as j:
        # at open, the newest snapshot on disk covers LSN 5 ...
        assert j.last_lsn == 5 and not j.dirty
        snap, tail = j.recover()
        assert snap == {"marker": "old"}
        # ... but the one actually loaded covers only LSN 3, so the state
        # in memory is not on disk in any readable snapshot
        assert j.dirty
        j.checkpoint({"marker": "healed"})
        assert not j.dirty


def test_failed_checkpoint_leaves_journal_dirty(tmp_path):
    from repro import faults

    with Journal(str(tmp_path), fsync="never") as j:
        append_n(j, 2)
        faults.activate(faults.parse_plan("journal.checkpoint.io=error:EIO@times1"))
        try:
            with pytest.raises(OSError):
                j.checkpoint({"m": 1})
        finally:
            faults.deactivate()
        assert j.dirty
        assert snap_files(str(tmp_path)) == []
