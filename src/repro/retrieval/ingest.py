"""Durable live-corpus ingestion: WAL → mutable index → compaction.

:class:`IngestManager` owns one *ingest directory* and strings the
write path together::

    ingest_dir/
        segment.json          # gced-index/2: compacted base + tombstones
        wal/shard-0000.log    # per-shard write-ahead logs (wal.py framing)
        wal/shard-0001.log
        ...

**Durability contract.**  A write is acknowledged only after its WAL
record is fsynced (group commit per batch).  SIGKILL at any byte leaves
the directory recoverable: :meth:`IngestManager.open` loads the last
atomic segment, torn-tail-truncates each WAL, and replays every durable
record with ``seq > applied_seq`` — so no acknowledged write is ever
lost, unacknowledged tails vanish cleanly, and the recovered index is
byte-identical (scores included) to replaying the same surviving op log
into a fresh index.

**Compaction.**  :meth:`compact` folds delta postings and tombstones
into a fresh immutable segment and swaps it atomically (write-temp →
fsync → rename → fsync-dir), stamps the WAL high-water mark into the
segment (``applied_seq``), then truncates the WALs.  A crash *between*
the rename and the truncate is idempotent: replay skips records already
folded into the segment.  Each compaction bumps ``generation``, and the
``on_compact`` hook lets the service refresh live pipeline snapshots.

**Fault sites** (for the chaos tests): ``wal.append`` inside the log
writer, ``ingest.apply`` between the fsync and the in-memory apply, and
``compaction.run`` at its three phases (``begin`` / ``swap`` /
``reset``).
"""

from __future__ import annotations

import pathlib
import threading
import time
from typing import Callable, Sequence

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
from repro.retrieval.wal import WalRecord, WriteAheadLog, replay_directory

__all__ = ["IngestManager"]

_log = get_logger("ingest")

SEGMENT_FILE = "segment.json"
WAL_DIR = "wal"


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
        on_compact: called as ``on_compact(generation)`` after each
            successful compaction — the service hooks pipeline-snapshot
            refresh here.  Errors are logged, never raised into the
            write path.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        index: MutableInvertedIndex,
        applied_seq: int = 0,
        generation: int = 0,
        compact_every: int = 0,
        on_compact: Callable[[int], None] | None = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.index = index
        self.compact_every = int(compact_every)
        self.on_compact = on_compact
        self._lock = threading.RLock()
        self._wals: dict[int, WriteAheadLog] = {}
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
        on_compact: Callable[[int], None] | None = None,
    ) -> "IngestManager":
        """Open (or bootstrap) an ingest directory and recover its state.

        Existing directory: load ``segment.json`` (either envelope
        version), truncate torn WAL tails, replay durable records past
        the segment's ``applied_seq``.  Fresh directory: build the base
        from ``seed_index`` or ``base_corpus`` and persist the initial
        segment atomically before accepting writes.
        """
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
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
        index = MutableInvertedIndex(segment.index, segment.tombstones)
        manager = cls(
            directory,
            index,
            applied_seq=segment.applied_seq,
            generation=segment.generation,
            compact_every=compact_every,
            on_compact=on_compact,
        )
        manager._recover()
        return manager

    def _recover(self) -> None:
        """Torn-tail-truncate the WALs, then replay past ``applied_seq``."""
        records, torn = replay_directory(self.directory / WAL_DIR)
        self._torn_bytes = torn
        max_seq = self._applied_seq
        for record in records:
            max_seq = max(max_seq, record.seq)
            if record.seq <= self._applied_seq:
                self._replay_skipped += 1  # already folded into the segment
                continue
            self._apply(record, replay=True)
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

    def _apply(self, record: WalRecord, replay: bool = False) -> None:
        if record.op == "add":
            self.index.apply_add(record.doc_id, record.text)
            self._docs_added += 1
        elif record.op == "delete":
            try:
                self.index.apply_delete(record.doc_id)
                self._docs_deleted += 1
            except KeyError:
                if not replay:
                    raise
                # Already dead (e.g. the id became a gap tombstone after
                # a torn batch, or the log was hand-trimmed).  Dead is
                # the delete's goal state, so skipping is sound.
                self._replay_skipped += 1
        else:  # pragma: no cover - wal only emits add/delete
            raise ValueError(f"unknown WAL op {record.op!r}")
        self._ops_since_compact += 1

    # ------------------------------------------------------------- writing
    def _wal_for(self, doc_id: int) -> WriteAheadLog:
        shard_id = doc_id % self.index.n_shards
        wal = self._wals.get(shard_id)
        if wal is None:
            wal = WriteAheadLog(
                self.directory / WAL_DIR / f"shard-{shard_id:04d}.log"
            )
            self._wals[shard_id] = wal
        return wal

    def add_documents(self, texts: Sequence[str]) -> list[int]:
        """Durably append ``texts``; returns their assigned doc ids.

        One group commit per call: every record is appended, the touched
        shard logs are fsynced once, and only then are the documents
        applied in memory and the ids acknowledged to the caller.
        """
        texts = list(texts)
        if not texts:
            return []
        for text in texts:
            if not isinstance(text, str) or not text.strip():
                raise ValueError("documents must be non-empty strings")
        with self._lock, obs_span("ingest.apply", docs=len(texts)):
            first_id = self.index.next_doc_id
            records = []
            touched: dict[int, WriteAheadLog] = {}
            for offset, text in enumerate(texts):
                doc_id = first_id + offset
                record = WalRecord(
                    seq=self._next_seq, op="add", doc_id=doc_id, text=text
                )
                self._next_seq += 1
                wal = self._wal_for(doc_id)
                wal.append(record)
                touched[id(wal)] = wal
                records.append(record)
            for wal in touched.values():
                wal.sync()  # the durability barrier: records now survive SIGKILL
            fault_point("ingest.apply", detail=f"add:{records[0].seq}")
            for record in records:
                self._apply(record)
                self._applied_seq = record.seq
            self._acked_batches += 1
            self._maybe_compact()
            return [record.doc_id for record in records]

    def delete_document(self, doc_id: int) -> None:
        """Durably tombstone one live document.

        Raises :class:`KeyError` (before any WAL write) when ``doc_id``
        was never allocated or is already dead.
        """
        with self._lock, obs_span("ingest.delete", doc_id=doc_id):
            if not self.index.is_live(doc_id):
                raise KeyError(f"no live document {doc_id}")
            record = WalRecord(seq=self._next_seq, op="delete", doc_id=doc_id)
            self._next_seq += 1
            wal = self._wal_for(doc_id)
            wal.append(record)
            wal.sync()
            fault_point("ingest.apply", detail=f"delete:{record.seq}")
            self._apply(record)
            self._applied_seq = record.seq
            self._acked_batches += 1
            self._maybe_compact()

    # ---------------------------------------------------------- compaction
    def _maybe_compact(self) -> None:
        if self.compact_every > 0 and self._ops_since_compact >= self.compact_every:
            self.compact()

    def compact(self) -> dict:
        """Fold delta + tombstones into a new segment and swap it in.

        Crash-safety by phase (each has a ``compaction.run`` fault
        site): before the rename (``begin``/``swap``) the old segment
        plus the intact WALs fully reconstruct the state; after the
        rename (``reset``) the new segment's ``applied_seq`` makes any
        not-yet-truncated WAL records no-ops on replay.
        """
        with self._lock, obs_span("compaction.run") as compact_span:
            started = time.perf_counter()
            fault_point("compaction.run", detail="begin")
            generation = self._generation + 1
            segment = Segment(
                index=self.index.compacted(),
                tombstones=tuple(sorted(self.index.tombstones)),
                applied_seq=self._applied_seq,
                generation=generation,
            )
            fault_point("compaction.run", detail="swap")
            save_segment(segment, self.directory / SEGMENT_FILE)
            fault_point("compaction.run", detail="reset")
            for wal in self._wals.values():
                wal.reset()
            wal_dir = self.directory / WAL_DIR
            if wal_dir.is_dir():
                for path in wal_dir.glob("shard-*.log"):
                    shard_id = int(path.stem.split("-")[1])
                    if shard_id not in self._wals:
                        WriteAheadLog.replay(path)  # ensure intact, then reset
                        with WriteAheadLog(path) as stale:
                            stale.reset()
            self.index.rebase(segment.index, segment.tombstones)
            self._generation = generation
            self._ops_since_compact = 0
            self._compactions += 1
            self._last_compaction_ms = 1000.0 * (time.perf_counter() - started)
            compact_span.tag(
                generation=generation, live_docs=self.index.n_docs
            )
        if self.on_compact is not None:
            try:
                self.on_compact(generation)
            except Exception:
                _log.warning(
                    "on_compact hook failed; compaction itself succeeded",
                    exc_info=True,
                    generation=generation,
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
        wal_dir = self.directory / WAL_DIR
        if not wal_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in wal_dir.glob("shard-*.log"))

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
            for wal in self._wals.values():
                wal.close()
            self._wals.clear()

    def __enter__(self) -> "IngestManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
