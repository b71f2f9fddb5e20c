"""Crash-safe write-ahead logging for live corpus ingestion.

Every corpus mutation (document add, tombstone delete) is appended to
the ingest directory's one log *before* it touches the in-memory index,
and the append is fsynced before the write is acknowledged — the
durability contract the ingest layer states is exactly "an acknowledged
write survives SIGKILL at any byte".

Record framing is length-prefixed and checksummed::

    [4B big-endian payload length][4B big-endian crc32(payload)][payload]

where the payload is compact JSON (sorted keys).  Because the log is
append-only and records are framed, the only corruption a crash can
produce is a *torn tail*: a final record whose header or payload never
finished hitting the disk.  :meth:`WriteAheadLog.replay` detects that
(short read or checksum mismatch), truncates the file back to the last
intact record, and returns everything before the tear — so replay after
a crash is always a clean prefix of what was written, and every record
that was fsynced before the crash is in that prefix.

Fsync policy is group commit: :meth:`append` only buffers; callers batch
any number of appends and then :meth:`sync` once before acknowledging
the batch.  A batch that fails before it is acknowledged is rolled back
with :meth:`truncate` to the offset it started at.
``fault_point("wal.append")`` sits inside :meth:`append` so chaos tests
can SIGKILL mid-append and exercise the torn-tail path.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.faults import fault_point

__all__ = ["WalRecord", "WriteAheadLog"]

_HEADER = struct.Struct(">II")
"""(payload_length, crc32) — 8 bytes, big-endian."""


@dataclass(frozen=True)
class WalRecord:
    """One durable corpus mutation.

    Attributes:
        seq: monotonically increasing sequence number; a compacted
            segment's ``applied_seq`` says which records it already holds.
        op: ``"add"`` or ``"delete"``.
        doc_id: the corpus id the operation targets.  Assigned at append
            time (not replay time) so recovery reproduces the exact ids
            of the original run.
        text: the paragraph for ``add`` records; ``""`` for deletes.
    """

    seq: int
    op: str
    doc_id: int
    text: str = ""

    def to_payload(self) -> bytes:
        return json.dumps(
            {"seq": self.seq, "op": self.op, "doc_id": self.doc_id, "text": self.text},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "WalRecord":
        raw = json.loads(payload.decode("utf-8"))
        return cls(
            seq=int(raw["seq"]),
            op=str(raw["op"]),
            doc_id=int(raw["doc_id"]),
            text=str(raw.get("text", "")),
        )


class WriteAheadLog:
    """An append-only, checksummed log file.

    Not thread-safe on its own — the ingest manager serializes writers.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # "a+b" creates the file when missing and always appends, even if
        # a replay truncated it after we last wrote.
        self._file = open(self.path, "a+b")
        self._pending = 0

    # ------------------------------------------------------------- writing
    def append(self, record: WalRecord) -> int:
        """Buffer one framed record; returns its byte offset.

        Durable only after :meth:`sync` — callers must not acknowledge
        the write before then.
        """
        fault_point("wal.append", detail=f"{self.path.name}:{record.seq}")
        payload = record.to_payload()
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._file.seek(0, io.SEEK_END)
        offset = self._file.tell()
        self._file.write(frame)
        self._pending += 1
        return offset

    def sync(self) -> None:
        """Flush buffered appends and fsync — the group-commit barrier."""
        if self._pending:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._pending = 0

    def truncate(self, offset: int = 0) -> None:
        """Cut the log back to ``offset`` bytes, durably.

        ``0`` empties it after compaction folds it away; the offset a
        batch started at rolls back appends that were never acknowledged.
        """
        self._file.truncate(offset)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._pending = 0

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def nbytes(self) -> int:
        self._file.seek(0, io.SEEK_END)
        return self._file.tell()

    # ------------------------------------------------------------- replay
    @classmethod
    def replay(
        cls, path: str | pathlib.Path, truncate: bool = True
    ) -> tuple[list[WalRecord], int]:
        """Read every intact record; returns ``(records, torn_bytes)``.

        A short header, short payload, or checksum mismatch marks the
        torn tail: everything from that offset on is discarded and — when
        ``truncate`` — physically removed, so the next append continues
        from the last intact record.  ``torn_bytes`` is how much was cut.
        """
        path = pathlib.Path(path)
        if not path.exists():
            return [], 0
        records: list[WalRecord] = []
        good_end = 0
        with open(path, "rb") as handle:
            data = handle.read()
        for offset, payload in _iter_frames(data):
            records.append(WalRecord.from_payload(payload))
            good_end = offset
        torn = len(data) - good_end
        if torn and truncate:
            with open(path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        return records, torn


def _iter_frames(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield ``(end_offset, payload)`` for each intact frame, stopping at
    the first tear (short frame or checksum mismatch)."""
    pos = 0
    while pos + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, pos)
        start = pos + _HEADER.size
        end = start + length
        if end > len(data):
            return  # torn payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # torn or corrupt frame — treat as end of log
        yield end, payload
        pos = end
