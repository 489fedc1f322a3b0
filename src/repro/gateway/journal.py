"""Crash-durable job journal: an append-only WAL with group-commit fsync.

Every gateway-visible event — job submission, queue/dispatch transition,
terminal result — is one length-prefixed, CRC-protected JSON record
appended to a single file::

    u32 body_len | u32 crc32(body) | body (UTF-8 JSON, one object)

Durability model
----------------

* ``append(record, durable=True)`` returns only after the record is
  fsynced.  Concurrent durable appends share one fsync (leader-based
  group commit with a small gathering window), so a burst of submissions
  pays ~one ``fsync`` per batch, not one per job.
* ``JobJournal.state`` is the gateway's only job table, and it holds
  only what is on disk: a record is applied to it once it is fsynced, in
  append order.  Whenever no append is in flight, ``state`` equals what
  :func:`recover_state` rebuilds from the file after a crash, so nothing
  a reader sees can be taken back by one.
* A SIGKILL can leave a *torn tail*: a partially written final record.
  Replay stops at the first record whose length prefix overruns the file
  or whose CRC mismatches, and re-opening for append truncates the tail
  — so the journal on disk is always a clean prefix of what was written.
  Because records are appended (and fsynced) in order, a durable record
  implies every earlier record is durable too: a job's ``done`` record
  can never survive a crash that its ``submit`` record did not.
* Compaction rewrites the journal to a temp file (submits of live jobs +
  the submit/terminal pair of the most recent terminal jobs), fsyncs it,
  atomically ``os.replace``s the old file and replays it into a new
  ``state``; a job it drops is gone at once, as after a restart.

Recovery invariants (what :func:`recover_state` guarantees)
-----------------------------------------------------------

1. **Zero lost** — every job whose ``submit`` record is durable appears
   in the recovered state; if no terminal record follows, the job is
   *pending* and must be re-enqueued.
2. **Zero double-proved** — a job with a durable ``done`` record is
   terminal in the recovered state and must NOT be re-enqueued; its
   result (proof bytes, public inputs, logits) is served straight from
   the journal.  A job killed *between* proving and the ``done`` fsync
   is re-proved on recovery, but then carries exactly one durable
   ``done`` record — ``RecoveredState.duplicate_done`` counts violations
   and the soak benchmark asserts it stays zero.
3. Replaying any byte-prefix of a journal yields the recovered state of
   some record-prefix — torn tails degrade to "fewer events seen",
   never to corrupted jobs (property-tested in
   ``tests/test_gateway_journal.py``).
"""

from __future__ import annotations

import base64
import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro.serve.jobs import JobState

_PREFIX = struct.Struct(">II")  # body_len, crc32(body)
JOURNAL_VERSION = 1

# A single record far beyond this is corruption, not data (full results
# for the mini models are a few KB).
MAX_RECORD_BYTES = 64 << 20

# ``JobState.terminal`` decides; record states are its string values.
_TERMINAL = frozenset(s.value for s in JobState if s.terminal)


class JournalError(RuntimeError):
    """Raised on misuse (appending to a closed journal, bad records)."""


# -- record codec ------------------------------------------------------------------


def encode_record(record: Dict[str, Any]) -> bytes:
    body = json.dumps(
        record, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(body) > MAX_RECORD_BYTES:
        raise JournalError(f"record of {len(body)} bytes exceeds cap")
    return _PREFIX.pack(len(body), zlib.crc32(body)) + body


def encode_image(image: np.ndarray) -> Dict[str, Any]:
    """JSON-safe ndarray: dtype + shape + base64 of the raw bytes."""
    arr = np.ascontiguousarray(image)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_image(spec: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(spec["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
    return arr.reshape(tuple(spec["shape"])).copy()


def iter_records(path) -> Iterator[Dict[str, Any]]:
    """Yield every intact record; stop silently at a torn/corrupt tail."""
    for record, _ in _iter_records_with_offsets(path):
        yield record


def _iter_records_with_offsets(path):
    path = Path(path)
    if not path.exists():
        return
    with path.open("rb") as fh:
        data = fh.read()
    offset = 0
    while offset + _PREFIX.size <= len(data):
        length, crc = _PREFIX.unpack_from(data, offset)
        body_start = offset + _PREFIX.size
        body_end = body_start + length
        if length > MAX_RECORD_BYTES or body_end > len(data):
            return  # torn tail: length prefix overruns the file
        body = data[body_start:body_end]
        if zlib.crc32(body) != crc:
            return  # torn/corrupt tail: record never fully landed
        try:
            record = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        if not isinstance(record, dict):
            return
        yield record, body_end
        offset = body_end


def valid_prefix_length(path) -> int:
    """Byte length of the longest clean record-prefix of ``path``."""
    last = 0
    for _, end in _iter_records_with_offsets(path):
        last = end
    return last


# -- recovered state ---------------------------------------------------------------


@dataclass
class GatewayJob:
    """One durable job, keyed by its stable gateway id, as the journal's
    records describe it."""

    gid: str
    spec: Dict[str, Any]  # the submit record
    state: str = "queued"  # a JobState value
    attempts: int = 0
    result: Optional[Dict[str, Any]] = None  # the done record, if any
    error: Optional[str] = None

    @property
    def tenant(self) -> str:
        return self.spec.get("tenant", "default")

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL


@dataclass
class RecoveredState:
    """Everything :func:`recover_state` can prove from a journal."""

    jobs: Dict[str, GatewayJob] = field(default_factory=dict)
    request_index: Dict[str, str] = field(default_factory=dict)
    records: int = 0
    submits: int = 0
    done_records: int = 0
    duplicate_done: int = 0  # >0 would mean a job was double-proved
    orphan_records: int = 0  # transitions for gids with no submit record

    def pending(self) -> List[GatewayJob]:
        """Jobs with no durable terminal record — must be re-enqueued.

        A job that was RUNNING at the crash is pending too: its result
        never committed, so re-proving it cannot double-count.
        """
        return [job for job in self.jobs.values() if not job.terminal]

    def completed(self) -> List[GatewayJob]:
        return [
            job for job in self.jobs.values() if job.state == "done"
        ]

    def apply(self, record: Dict[str, Any]) -> None:
        self.records += 1
        kind = record.get("t")
        if kind == "header":
            return
        gid = record.get("gid")
        if kind == "submit":
            self.submits += 1
            if gid in self.jobs:  # replayed submit (compaction artifact)
                return
            job = GatewayJob(gid=gid, spec=record)
            self.jobs[gid] = job
            rid = record.get("request_id")
            if rid:
                self.request_index[rid] = gid
            return
        job = self.jobs.get(gid)
        if job is None:
            self.orphan_records += 1
            return
        if kind == "queued":
            if not job.terminal:
                job.state = "queued"
                job.attempts = int(record.get("attempts", job.attempts))
        elif kind == "dispatched":
            if not job.terminal:
                job.state = "running"
        elif kind == "done":
            self.done_records += 1
            if job.state == "done":
                self.duplicate_done += 1
                return
            job.state = "done"
            job.result = record
            job.attempts = int(record.get("attempts", job.attempts))
        elif kind == "failed":
            if not job.terminal:
                job.state = record.get("state", "failed")
                job.error = record.get("error")
                job.attempts = int(record.get("attempts", job.attempts))


def recover_state(path) -> RecoveredState:
    """Replay every intact record of ``path`` into a consistent state."""
    state = RecoveredState()
    for record in iter_records(path):
        state.apply(record)
    return state


# -- the journal -------------------------------------------------------------------


class JobJournal:
    """Append-only WAL with leader-based group-commit fsync batching.

    ``append(..., durable=True)`` blocks until the record is fsynced;
    concurrent durable appenders elect one leader that waits a short
    ``batch_window`` for stragglers, fsyncs once, applies every record it
    made durable to ``state``, and releases everyone waiting on
    ``committed``.  Non-durable appends (observability transitions) ride
    along with the next durable flush.  Read ``state`` holding
    ``committed`` (the journal's lock), and re-read it after a wait:
    compaction replaces it.
    """

    def __init__(
        self,
        path,
        *,
        batch_window: float = 0.002,
        retain_terminal: Optional[int] = None,
        compact_min_bytes: int = 4 << 20,
    ) -> None:
        self.path = Path(path)
        self.batch_window = batch_window
        self.retain_terminal = retain_terminal
        self.compact_min_bytes = compact_min_bytes

        self.appends = 0
        self.fsyncs = 0
        self.compactions = 0
        self.torn_bytes_dropped = 0

        self._lock = threading.Lock()  # the file handle, state, counters
        self.committed = threading.Condition(self._lock)  # after a flush
        self._unsynced: List[Dict[str, Any]] = []  # written, not fsynced
        self._flushing = False
        self._written_seq = 0
        self._flushed_seq = 0
        self._closed = False

        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.state = recover_state(self.path)
        # The highest submit ``seq`` journaled; the next submit takes +1.
        self.last_seq = max(
            (int(job.spec.get("seq", 0)) for job in self.state.jobs.values()),
            default=0,
        )
        valid = valid_prefix_length(self.path)
        size = self.path.stat().st_size if self.path.exists() else 0
        if size > valid:
            # Torn tail from a previous crash: truncate to the clean
            # prefix so new records append at a record boundary.
            self.torn_bytes_dropped = size - valid
            with self.path.open("rb+") as fh:
                fh.truncate(valid)
        self._file = self.path.open("ab")
        if self.state.records == 0:
            self.append(
                {"t": "header", "version": JOURNAL_VERSION,
                 "created": time.time()},
                durable=True,
            )

    # -- appends ---------------------------------------------------------------------

    def append(self, record: Dict[str, Any], durable: bool = False) -> None:
        frame = encode_record(record)
        with self._lock:
            seq = self._write(record, frame)
        if durable:
            self._commit(seq)

    def submit(self, record: Dict[str, Any]) -> str:
        """Durably append a ``submit`` record numbered with the next
        ``seq``, and return its gid.  A ``request_id`` the journal already
        holds appends nothing: the gid that owns it is returned, once that
        gid's record is durable."""
        rid = record.get("request_id")
        with self._lock:
            gid = self.state.request_index.get(rid) if rid else None
            if gid is not None:
                return gid
            for written in self._unsynced if rid else ():
                if (written.get("t") == "submit"
                        and written.get("request_id") == rid):
                    gid = written["gid"]
            if gid is None:
                record = dict(record, seq=self.last_seq + 1)
                self._write(record, encode_record(record))
                self.last_seq += 1
                gid = record["gid"]
            seq = self._written_seq
        self._commit(seq)
        return gid

    def _write(self, record: Dict[str, Any], frame: bytes) -> int:
        if self._closed:
            raise JournalError("journal is closed")
        self._file.write(frame)
        self._unsynced.append(record)
        self.appends += 1
        self._written_seq += 1
        return self._written_seq

    def sync(self) -> None:
        """Force everything appended so far onto disk."""
        with self._lock:
            seq = self._written_seq
        if seq:
            self._commit(seq)

    def _commit(self, seq: int) -> None:
        with self._lock:
            while self._flushed_seq < seq:
                if not self._flushing:
                    self._flushing = True
                    break
                self.committed.wait()
            else:
                return  # an earlier leader already made us durable
        # Leader: give concurrent appenders a moment to pile in, then
        # pay one fsync for the whole batch.
        if self.batch_window > 0:
            time.sleep(self.batch_window)
        with self._lock:
            try:
                self._flush()
            finally:
                self._flushing = False
                self.committed.notify_all()

    def _flush(self) -> None:
        """fsync what is written, then apply it to ``state`` (lock held;
        a closed journal has nothing left unsynced)."""
        if self._unsynced:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        for record in self._unsynced:
            self.state.apply(record)
        self._unsynced.clear()
        self._flushed_seq = self._written_seq

    # -- compaction ------------------------------------------------------------------

    def compact(self, force: bool = False) -> bool:
        """Rewrite the journal dropping history for old terminal jobs.

        Keeps: the header, the ``submit`` record of every live job, and
        the ``submit`` + terminal record of the ``retain_terminal`` most
        recent terminal jobs (all of them when the bound is None).
        Returns True if a rewrite happened.
        """
        with self._lock:
            if self._closed:
                raise JournalError("journal is closed")
            size = self.path.stat().st_size
            if not force and size < self.compact_min_bytes:
                return False
            self._flush()

            terminal = [
                job for job in self.state.jobs.values() if job.terminal
            ]
            keep_terminal = terminal
            if self.retain_terminal is not None:
                drop = max(len(terminal) - self.retain_terminal, 0)
                keep_terminal = sorted(
                    terminal, key=lambda j: j.spec.get("seq", 0)
                )[drop:]  # not [-retain:]: [-0:] is the whole list

            records: List[Dict[str, Any]] = [
                {"t": "header", "version": JOURNAL_VERSION,
                 "created": time.time(),
                 "compactions": self.compactions + 1}
            ]
            ordered = sorted(
                list(self.state.pending()) + list(keep_terminal),
                key=lambda j: j.spec.get("seq", 0),
            )
            for job in ordered:
                records.append(job.spec)
                if job.state == "done" and job.result is not None:
                    records.append(job.result)
                elif job.terminal:
                    records.append(
                        {"t": "failed", "gid": job.gid,
                         "state": job.state, "error": job.error,
                         "attempts": job.attempts}
                    )

            tmp = self.path.with_suffix(self.path.suffix + ".compact")
            with tmp.open("wb") as fh:
                for record in records:
                    fh.write(encode_record(record))
                fh.flush()
                os.fsync(fh.fileno())
            self._file.close()
            os.replace(tmp, self.path)
            self._fsync_dir()
            self._file = self.path.open("ab")
            self.state = recover_state(self.path)
            self.compactions += 1
            self.committed.notify_all()
            return True

    def _fsync_dir(self) -> None:
        try:
            dir_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    # -- introspection ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            size = self.path.stat().st_size if self.path.exists() else 0
            return {
                "path": str(self.path),
                "bytes": size,
                "appends": self.appends,
                "fsyncs": self.fsyncs,
                "compactions": self.compactions,
                "torn_bytes_dropped": self.torn_bytes_dropped,
                "jobs": len(self.state.jobs),
                "pending": sum(
                    1 for j in self.state.jobs.values() if not j.terminal
                ),
                "duplicate_done": self.state.duplicate_done,
            }

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._flush()
                self._closed = True
                self._file.close()
                self.committed.notify_all()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
