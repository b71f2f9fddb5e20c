"""Durable live-corpus ingestion: WAL → mutable index → compaction.

:class:`IngestManager` owns one *ingest directory* and strings the
write path together::

    ingest_dir/
        segment.json   # gced-index/2: compacted base + tombstones
        wal.log        # the write-ahead log (wal.py framing)

**Durability contract.**  A write is acknowledged only after its WAL
record is fsynced (one group commit per batch).  SIGKILL at any byte
leaves the directory recoverable: :meth:`IngestManager.open` loads the
last atomic segment, torn-tail-truncates the WAL, and replays every
durable record with ``seq > applied_seq`` — so no acknowledged write is
ever lost, unacknowledged tails vanish cleanly, and the recovered index
is byte-identical (scores included) to replaying the same surviving op
log into a fresh index.  A batch that fails *without* a crash (an
append, the fsync, or the step before the in-memory apply raises) is
truncated back out of the log before the error propagates, so its ids
are free for the next write.

One log means its intact prefix holds contiguous doc ids, so replay is
strict: a record it cannot apply means the log is corrupt, and
:meth:`open` raises naming that record's ``seq``.

**Compaction.**  :meth:`compact` folds delta postings and tombstones
into a fresh immutable segment and swaps it atomically (write-temp →
fsync → rename → fsync-dir), stamps the WAL high-water mark into the
segment (``applied_seq``), then truncates the WAL.  A crash *between*
the rename and the truncate is idempotent: replay skips records already
folded into the segment.  Each compaction bumps ``generation``.

**Fault sites** (for the chaos tests): ``wal.append`` inside the log
writer, ``ingest.apply`` between the fsync and the in-memory apply, and
``compaction.run`` at its three phases (``begin`` / ``swap`` /
``reset``).
"""

from __future__ import annotations

import pathlib
import threading
import time
from typing import Sequence

from repro.faults import fault_point
from repro.obs.logs import get_logger
from repro.obs.trace import span as obs_span
from repro.retrieval.index import InvertedIndex
from repro.retrieval.mutable import MutableInvertedIndex
from repro.retrieval.store import (
    Segment,
    load_segment,
    save_segment,
)
from repro.retrieval.wal import WalRecord, WriteAheadLog

__all__ = ["IngestManager"]

_log = get_logger("ingest")

SEGMENT_FILE = "segment.json"
WAL_FILE = "wal.log"
LEGACY_WAL_GLOB = "wal/shard-*.log"


class IngestManager:
    """Crash-safe add/delete/compact over one ingest directory.

    Writers are serialized on an internal lock; reads go straight to the
    shared :class:`MutableInvertedIndex` (see its module docstring for
    the reader-visibility discipline).

    Args:
        directory: the ingest directory (created if missing).
        index: the live mutable index (from :meth:`open`).
        applied_seq: WAL records at or below this are already in the
            segment.
        generation: the segment's compaction generation.
        compact_every: auto-compact after this many applied operations
            (0 disables; :meth:`compact` always works explicitly).
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        index: MutableInvertedIndex,
        applied_seq: int = 0,
        generation: int = 0,
        compact_every: int = 0,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.index = index
        self.compact_every = int(compact_every)
        self._lock = threading.RLock()
        self._wal = WriteAheadLog(self.directory / WAL_FILE)
        # Why writes are refused until a reopen recovers from the log.
        self._failed: str | None = None
        self._applied_seq = int(applied_seq)
        self._next_seq = int(applied_seq) + 1
        self._generation = int(generation)
        self._ops_since_compact = 0
        self._docs_added = 0
        self._docs_deleted = 0
        self._acked_batches = 0
        self._compactions = 0
        self._replayed_records = 0
        self._replay_skipped = 0
        self._torn_bytes = 0
        self._last_compaction_ms = 0.0

    # ------------------------------------------------------------- opening
    @classmethod
    def open(
        cls,
        directory: str | pathlib.Path,
        base_corpus: Sequence[str] | None = None,
        seed_index: InvertedIndex | None = None,
        n_shards: int = 4,
        compact_every: int = 0,
    ) -> "IngestManager":
        """Open (or bootstrap) an ingest directory and recover its state.

        Existing directory: load ``segment.json`` (either envelope
        version), truncate a torn WAL tail, replay durable records past
        the segment's ``applied_seq``.  Fresh directory: build the base
        from ``seed_index`` or ``base_corpus`` and persist the initial
        segment atomically before accepting writes.  A directory still
        holding records in per-shard logs (``wal/shard-*.log``, written
        by earlier releases) is refused rather than half-recovered.
        """
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        legacy = [
            path.name
            for path in sorted(directory.glob(LEGACY_WAL_GLOB))
            if path.stat().st_size
        ]
        if legacy:
            raise ValueError(
                f"{directory} holds per-shard WAL records ({', '.join(legacy)}) "
                "from an earlier release; compact it with that release "
                "before opening it with this one"
            )
        segment_path = directory / SEGMENT_FILE
        if segment_path.exists():
            segment = load_segment(segment_path)
        else:
            if seed_index is None:
                if not base_corpus:
                    raise ValueError(
                        f"{directory} has no segment; pass a base corpus "
                        "or seed index to bootstrap it"
                    )
                seed_index = InvertedIndex.build(base_corpus, n_shards=n_shards)
            segment = Segment(index=seed_index)
            save_segment(segment, segment_path)
        records, torn = WriteAheadLog.replay(directory / WAL_FILE)
        index = MutableInvertedIndex(segment.index, segment.tombstones)
        manager = cls(
            directory,
            index,
            applied_seq=segment.applied_seq,
            generation=segment.generation,
            compact_every=compact_every,
        )
        try:
            manager._recover(records, torn)
        except BaseException:
            manager.close()
            raise
        return manager

    def _recover(self, records: list[WalRecord], torn: int) -> None:
        """Replay the log's intact prefix past ``applied_seq``, strictly."""
        self._torn_bytes = torn
        max_seq = self._applied_seq
        for record in records:
            max_seq = max(max_seq, record.seq)
            if record.seq <= self._applied_seq:
                self._replay_skipped += 1  # already folded into the segment
                continue
            try:
                self._apply(record)
            except (KeyError, ValueError) as exc:
                raise ValueError(
                    f"{self._wal.path} is corrupt: record seq {record.seq} "
                    f"({record.op} doc {record.doc_id}) cannot be applied: "
                    f"{exc}"
                ) from exc
            self._replayed_records += 1
            self._applied_seq = record.seq
        self._next_seq = max_seq + 1
        if records or torn:
            _log.info(
                "ingest recovery complete",
                replayed=self._replayed_records,
                skipped=self._replay_skipped,
                torn_bytes=torn,
                applied_seq=self._applied_seq,
            )

    def _apply(self, record: WalRecord) -> None:
        if record.op == "add":
            self.index.apply_add(record.doc_id, record.text)
            self._docs_added += 1
        elif record.op == "delete":
            self.index.apply_delete(record.doc_id)
            self._docs_deleted += 1
        else:
            raise ValueError(f"unknown WAL op {record.op!r}")
        self._ops_since_compact += 1

    # ------------------------------------------------------------- writing
    def add_documents(self, texts: Sequence[str]) -> list[int]:
        """Durably append ``texts``; returns their assigned doc ids.

        One group commit per call: every record is appended, the log is
        fsynced once, and only then are the documents applied in memory
        and the ids acknowledged to the caller.
        """
        texts = list(texts)
        if not texts:
            return []
        for text in texts:
            if not isinstance(text, str) or not text.strip():
                raise ValueError("documents must be non-empty strings")
        with self._lock, obs_span("ingest.apply", docs=len(texts)):
            first_id = self.index.next_doc_id
            records = [
                WalRecord(
                    seq=self._next_seq + offset,
                    op="add",
                    doc_id=first_id + offset,
                    text=text,
                )
                for offset, text in enumerate(texts)
            ]
            self._commit(records)
            return [record.doc_id for record in records]

    def delete_document(self, doc_id: int) -> None:
        """Durably tombstone one live document.

        Raises :class:`KeyError` (before any WAL write) when ``doc_id``
        was never allocated or is already dead.
        """
        with self._lock, obs_span("ingest.delete", doc_id=doc_id):
            if not self.index.is_live(doc_id):
                raise KeyError(f"no live document {doc_id}")
            self._commit(
                [WalRecord(seq=self._next_seq, op="delete", doc_id=doc_id)]
            )

    def _commit(self, records: list[WalRecord]) -> None:
        """Group-commit ``records``: append, fsync once, apply in memory.

        Until the in-memory apply starts, any failure truncates the
        batch back out of the log, so the log never holds a record the
        index lacks and the batch's seqs and ids are reused by the next
        write.  If that truncate fails too, the manager refuses writes
        until a reopen recovers from what the log holds.
        """
        self._check_writable()
        first = records[0]
        start = self._wal.nbytes
        try:
            for record in records:
                self._wal.append(record)
            self._wal.sync()  # the durability barrier: records now survive SIGKILL
            fault_point("ingest.apply", detail=f"{first.op}:{first.seq}")
        except BaseException:
            try:
                self._wal.truncate(start)
            except Exception:
                self._failed = "rolling a failed batch out of the WAL failed"
                _log.error(self._failed, exc_info=True, seq=first.seq)
            raise
        self._next_seq = records[-1].seq + 1
        for record in records:
            self._apply(record)
            self._applied_seq = record.seq
        self._acked_batches += 1
        self._maybe_compact()

    def _check_writable(self) -> None:
        if self._failed is not None:
            raise RuntimeError(
                f"{self.directory} refuses writes: {self._failed}; "
                "reopen it to recover from the log"
            )

    # ---------------------------------------------------------- compaction
    def _maybe_compact(self) -> None:
        if self.compact_every > 0 and self._ops_since_compact >= self.compact_every:
            self.compact()

    def compact(self) -> dict:
        """Fold delta + tombstones into a new segment and swap it in.

        Crash-safety by phase (each has a ``compaction.run`` fault
        site): before the rename (``begin``/``swap``) the old segment
        plus the intact WAL fully reconstruct the state; after the
        rename (``reset``) the new segment's ``applied_seq`` makes any
        not-yet-truncated WAL records no-ops on replay.
        """
        with self._lock, obs_span("compaction.run") as compact_span:
            self._check_writable()
            started = time.perf_counter()
            fault_point("compaction.run", detail="begin")
            generation = self._generation + 1
            folded, tombstones = self.index.fold()
            segment = Segment(
                index=folded,
                tombstones=tuple(tombstones),
                applied_seq=self._applied_seq,
                generation=generation,
            )
            fault_point("compaction.run", detail="swap")
            save_segment(segment, self.directory / SEGMENT_FILE)
            fault_point("compaction.run", detail="reset")
            self._wal.truncate()
            self.index.rebase(segment.index, segment.tombstones)
            self._generation = generation
            self._ops_since_compact = 0
            self._compactions += 1
            self._last_compaction_ms = 1000.0 * (time.perf_counter() - started)
            compact_span.tag(
                generation=generation, live_docs=self.index.n_docs
            )
        _log.info(
            "compaction complete",
            generation=generation,
            live_docs=self.index.n_docs,
            tombstones=self.index.n_tombstones,
            ms=round(self._last_compaction_ms, 2),
        )
        return {
            "generation": generation,
            "live_docs": self.index.n_docs,
            "ms": self._last_compaction_ms,
        }

    # ------------------------------------------------------------ plumbing
    @property
    def generation(self) -> int:
        return self._generation

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    def wal_bytes(self) -> int:
        return self._wal.path.stat().st_size

    def stats(self) -> dict:
        """Counters for ``/stats`` and the ``gced_ingest_*`` metrics."""
        with self._lock:
            return {
                "generation": self._generation,
                "applied_seq": self._applied_seq,
                "next_seq": self._next_seq,
                "live_docs": self.index.n_docs,
                "tombstones": self.index.n_tombstones,
                "delta_docs": self.index.delta_docs,
                "docs_added": self._docs_added,
                "docs_deleted": self._docs_deleted,
                "acked_batches": self._acked_batches,
                "compactions": self._compactions,
                "replayed_records": self._replayed_records,
                "replay_skipped": self._replay_skipped,
                "torn_bytes": self._torn_bytes,
                "wal_bytes": self.wal_bytes(),
                "compact_every": self.compact_every,
                "last_compaction_ms": self._last_compaction_ms,
            }

    def close(self) -> None:
        with self._lock:
            self._wal.close()

    def __enter__(self) -> "IngestManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
