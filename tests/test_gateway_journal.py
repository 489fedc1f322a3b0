"""Tests for the gateway's crash-durable job journal.

The property test is the heart of the durability story: SIGKILL can
truncate the WAL at ANY byte offset, and replay must degrade to "fewer
events seen" — the recovered state of a torn journal must equal the
recovered state of some clean record-prefix, never a corrupted hybrid.
"""

import json
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.journal import (
    JobJournal,
    JournalError,
    decode_image,
    encode_image,
    encode_record,
    iter_records,
    recover_state,
    valid_prefix_length,
)


def submit_record(gid, seq, model="SHAL", **extra):
    rec = {
        "t": "submit", "gid": gid, "seq": seq, "tenant": "default",
        "model": model, "scale": "micro", "seed": 0,
        "privacy": "one-private", "image_seed": seq,
    }
    rec.update(extra)
    return rec


def done_record(gid, proof="ab" * 16):
    return {
        "t": "done", "gid": gid, "attempts": 1, "proof": proof,
        "public_inputs": ["1", "2"], "logits": [3, 4], "batch_size": 1,
    }


class TestRecordCodec:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.wal"
        records = [submit_record("g-1", 1), done_record("g-1")]
        with path.open("wb") as fh:
            for rec in records:
                fh.write(encode_record(rec))
        assert list(iter_records(path)) == records

    def test_image_roundtrip(self):
        image = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        out = decode_image(encode_image(image))
        assert out.dtype == image.dtype
        np.testing.assert_array_equal(out, image)

    def test_missing_file_is_empty(self, tmp_path):
        assert list(iter_records(tmp_path / "nope.wal")) == []
        assert valid_prefix_length(tmp_path / "nope.wal") == 0

    def test_crc_mismatch_stops_replay(self, tmp_path):
        path = tmp_path / "j.wal"
        good = encode_record(submit_record("g-1", 1))
        bad = bytearray(encode_record(submit_record("g-2", 2)))
        bad[-1] ^= 0xFF  # flip a body byte; CRC no longer matches
        path.write_bytes(good + bytes(bad))
        recs = list(iter_records(path))
        assert len(recs) == 1 and recs[0]["gid"] == "g-1"
        assert valid_prefix_length(path) == len(good)

    def test_absurd_length_prefix_stops_replay(self, tmp_path):
        path = tmp_path / "j.wal"
        good = encode_record(submit_record("g-1", 1))
        path.write_bytes(good + struct.pack(">II", 1 << 30, 0))
        assert len(list(iter_records(path))) == 1


class TestRecoveredState:
    def test_pending_vs_done(self, tmp_path):
        path = tmp_path / "j.wal"
        frames = [
            submit_record("g-1", 1),
            submit_record("g-2", 2),
            {"t": "queued", "gid": "g-1", "attempts": 1},
            {"t": "dispatched", "gid": "g-1", "batch_id": 0},
            done_record("g-1"),
        ]
        with path.open("wb") as fh:
            for rec in frames:
                fh.write(encode_record(rec))
        state = recover_state(path)
        assert {j.gid for j in state.completed()} == {"g-1"}
        assert {j.gid for j in state.pending()} == {"g-2"}
        assert state.duplicate_done == 0

    def test_running_at_crash_is_pending(self, tmp_path):
        path = tmp_path / "j.wal"
        frames = [
            submit_record("g-1", 1),
            {"t": "dispatched", "gid": "g-1", "batch_id": 0},
        ]
        with path.open("wb") as fh:
            for rec in frames:
                fh.write(encode_record(rec))
        state = recover_state(path)
        (job,) = state.pending()
        assert job.gid == "g-1" and job.state == "running"

    def test_duplicate_done_counter(self, tmp_path):
        path = tmp_path / "j.wal"
        frames = [submit_record("g-1", 1), done_record("g-1"),
                  done_record("g-1")]
        with path.open("wb") as fh:
            for rec in frames:
                fh.write(encode_record(rec))
        assert recover_state(path).duplicate_done == 1

    def test_orphan_transitions_counted_not_fatal(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(encode_record({"t": "queued", "gid": "ghost"}))
        state = recover_state(path)
        assert state.orphan_records == 1 and not state.jobs

    def test_recovery_resubmits_pending_in_seq_order(self, tmp_path):
        """Pending jobs re-enter the coordinator in ``seq`` order, whatever
        order their records sit in the WAL; done jobs do not re-enter."""
        from repro.cluster import ClusterCoordinator
        from repro.gateway import DurableCoordinator

        path = tmp_path / "j.wal"
        frames = [
            submit_record("g-c", 3),
            submit_record("g-a", 1),
            submit_record("g-b", 2),
            done_record("g-a"),
        ]
        with path.open("wb") as fh:
            for rec in frames:
                fh.write(encode_record(rec))
        coord = ClusterCoordinator()  # never started: no threads, no nodes
        queued = []
        coord.add_listener(lambda event, job, info: queued.append(job))
        with JobJournal(path) as journal:
            durable = DurableCoordinator(coord, journal)
            assert [job.extra["gid"] for job in queued] == ["g-b", "g-c"]
            assert all(job.image is not None for job in queued)
            assert durable.recovered_pending == 2
            assert durable.recovered_completed == 1


# One pool of plausible event sequences for the truncation property.
def _event_sequences():
    gids = [f"g-{i}" for i in range(4)]

    def events_for(order):
        events = []
        for seq, idx in enumerate(order, start=1):
            gid = gids[idx % len(gids)] + f"-{seq}"
            events.append(submit_record(gid, seq))
            if idx % 3 != 0:
                events.append({"t": "queued", "gid": gid, "attempts": 1})
            if idx % 3 == 2:
                events.append(done_record(gid))
        return events

    return st.lists(
        st.integers(min_value=0, max_value=8), min_size=1, max_size=12
    ).map(events_for)


class TestTruncationProperty:
    @given(events=_event_sequences(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_byte_prefix_recovers_a_record_prefix(
        self, events, data, tmp_path_factory
    ):
        """Truncating the WAL at ANY byte yields the state of a clean
        record-prefix: same jobs, same states, no duplicate_done."""
        tmp = tmp_path_factory.mktemp("wal")
        path = tmp / "j.wal"
        frames = [encode_record(e) for e in events]
        blob = b"".join(frames)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        path.write_bytes(blob[:cut])

        state = recover_state(path)
        # How many whole records fit in `cut` bytes?
        n, used = 0, 0
        for frame in frames:
            if used + len(frame) > cut:
                break
            used += len(frame)
            n += 1
        from repro.gateway.journal import RecoveredState

        expected = RecoveredState()
        for event in events[:n]:
            expected.apply(event)
        assert state.records == expected.records == n
        assert set(state.jobs) == set(expected.jobs)
        for gid, job in state.jobs.items():
            assert job.state == expected.jobs[gid].state
        assert state.duplicate_done == expected.duplicate_done == 0
        # Reopening for append must truncate exactly to that prefix.
        journal = JobJournal(path, batch_window=0)
        try:
            assert journal.torn_bytes_dropped == cut - used
        finally:
            journal.close()


class TestJobJournal:
    def test_append_recover_roundtrip(self, tmp_path):
        path = tmp_path / "j.wal"
        with JobJournal(path, batch_window=0) as journal:
            journal.append(submit_record("g-1", 1), durable=True)
            journal.append(done_record("g-1"), durable=True)
        state = recover_state(path)
        assert state.jobs["g-1"].state == "done"

    def test_append_after_close_raises(self, tmp_path):
        journal = JobJournal(tmp_path / "j.wal", batch_window=0)
        journal.close()
        with pytest.raises(JournalError):
            journal.append({"t": "header"})

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "j.wal"
        with JobJournal(path, batch_window=0) as journal:
            journal.append(submit_record("g-1", 1), durable=True)
        with path.open("ab") as fh:
            fh.write(b"\x00\x00\x01")  # torn partial prefix
        with JobJournal(path, batch_window=0) as journal:
            assert journal.torn_bytes_dropped == 3
            assert "g-1" in journal.state.jobs
            journal.append(submit_record("g-2", 2), durable=True)
        state = recover_state(path)
        assert set(state.jobs) == {"g-1", "g-2"}

    def test_group_commit_batches_fsyncs(self, tmp_path):
        journal = JobJournal(tmp_path / "j.wal", batch_window=0.02)
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            journal.append(submit_record(f"g-{i}", i + 1), durable=True)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = journal.stats()
        journal.close()
        # 8 concurrent durable appends + header: far fewer fsyncs than
        # appends (one leader flushes the whole pile-up).
        assert stats["appends"] == 9
        assert stats["fsyncs"] < 9

    def test_compaction_preserves_state_and_shrinks(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = JobJournal(path, batch_window=0, retain_terminal=2)
        for i in range(20):
            gid = f"g-{i}"
            journal.append(submit_record(gid, i + 1), durable=False)
            journal.append({"t": "queued", "gid": gid, "attempts": 1})
            if i < 18:  # last two stay pending
                journal.append(done_record(gid))
        journal.sync()
        before = path.stat().st_size
        assert journal.compact(force=True)
        after = path.stat().st_size
        assert after < before
        state = journal.state
        # All pending jobs survive; only the 2 newest terminal jobs kept.
        assert {j.gid for j in state.pending()} == {"g-18", "g-19"}
        assert {j.gid for j in state.completed()} == {"g-16", "g-17"}
        assert state.duplicate_done == 0
        # And the on-disk file replays to the same state.
        journal.close()
        reread = recover_state(path)
        assert set(reread.jobs) == set(state.jobs)

    @pytest.mark.parametrize("retain, kept", [(0, 0), (3, 3), (9, 5)])
    def test_compaction_retains_exactly_the_bound(self, tmp_path, retain, kept):
        """``retain_terminal=0`` keeps no terminal job (``[-0:]`` used to
        keep them all), and a bound above the count keeps every one."""
        path = tmp_path / "j.wal"
        journal = JobJournal(path, batch_window=0, retain_terminal=retain)
        for i in range(5):
            journal.append(submit_record(f"g-{i}", i + 1))
            journal.append({"t": "failed", "gid": f"g-{i}",
                            "state": "failed", "error": "x", "attempts": 1})
        journal.sync()
        assert journal.compact(force=True)
        journal.close()
        state = recover_state(path)
        assert sorted(state.jobs) == [f"g-{i}" for i in range(5 - kept, 5)]
        assert all(job.terminal for job in state.jobs.values())

    def test_compaction_skipped_below_threshold(self, tmp_path):
        journal = JobJournal(
            tmp_path / "j.wal", batch_window=0, compact_min_bytes=1 << 20
        )
        journal.append(submit_record("g-1", 1), durable=True)
        assert journal.compact() is False
        journal.close()

    def test_compacted_journal_still_appendable(self, tmp_path):
        path = tmp_path / "j.wal"
        journal = JobJournal(path, batch_window=0)
        journal.append(submit_record("g-1", 1), durable=True)
        journal.append(done_record("g-1"), durable=True)
        journal.compact(force=True)
        journal.append(submit_record("g-2", 2), durable=True)
        journal.close()
        state = recover_state(path)
        assert set(state.jobs) == {"g-1", "g-2"}
        assert state.jobs["g-1"].state == "done"
        assert state.jobs["g-2"].state == "queued"

    def test_stats_shape(self, tmp_path):
        with JobJournal(tmp_path / "j.wal", batch_window=0) as journal:
            journal.append(submit_record("g-1", 1), durable=True)
            stats = journal.stats()
        assert stats["jobs"] == 1 and stats["pending"] == 1
        assert stats["duplicate_done"] == 0
        assert stats["bytes"] > 0
