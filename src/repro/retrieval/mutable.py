"""A mutable overlay over the immutable columnar inverted index.

:class:`MutableInvertedIndex` is the in-memory half of the ingestion
subsystem: a small *delta* segment (columns of documents added since the
last compaction) and a *tombstone* mask over an immutable
:class:`~repro.retrieval.index.InvertedIndex` base, behind the same
``read_view`` the scorers consume — BM25 over the overlay is
*byte-identical* to BM25 over a from-scratch index of the same live
corpus, because every statistic is integer-derived.

Identity semantics: document ids are append-only and never reused.  A
deleted document keeps its id slot forever (its text becomes ``""`` and
its postings vanish), so ranked results and paged cursors that embed
``doc_id`` stay stable across deletes and compactions.  ``n_docs``,
``avg_doc_len`` and ``doc_freq`` count *live* documents only.

Reader/writer discipline: one writer at a time, under the index lock.
Every mutation drops the published :class:`ReadView`; the first search
after it builds a fresh view *under the same lock* — ``[:n]`` slices of
the length array, the tombstone mask and each delta column, plus the
live statistics — and publishes it with one assignment.  A search reads
exactly one view and never touches mutable state, so it never sees a
posting without its length, or a delete half applied.  An add costs
O(tokens) amortized (its postings wait in per-term lists, then land past
the published slices of doubling buffers); a delete copies the mask only
if a view holds it.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from typing import Iterable

import numpy as np

from repro.retrieval.index import _EMPTY, Column, InvertedIndex, ReadView, _ViewStats
from repro.text.tokenizer import word_tokens

__all__ = ["MutableInvertedIndex"]


def _room(buf: np.ndarray, need: int, fill) -> np.ndarray:
    """``buf`` if it fits ``need`` entries, else a doubled copy (new slots ``fill``)."""
    if need <= len(buf):
        return buf
    grown = np.full(max(need, 2 * len(buf), 16), fill, buf.dtype)
    grown[: len(buf)] = buf
    return grown


class MutableInvertedIndex(_ViewStats):
    """Delta columns + a tombstone mask over an immutable base index.

    Args:
        base: the compacted (or freshly built) immutable index.
        tombstones: ids already dead in ``base`` — a loaded ``gced-index``
            version-2 segment records them so the id space stays
            append-only across restarts; their slots hold ``""``.
    """

    def __init__(self, base: InvertedIndex, tombstones: Iterable[int] = ()) -> None:
        self._base = base
        self._lock = threading.RLock()
        # Id-space buffers: slots past the frontier _n read -1 / dead until
        # an add claims one, so skipped ids stay tombstoned gaps.  The
        # shared base.lengths has no spare room, so it is never written.
        self._n = len(base.docs)
        self._lengths = base.lengths
        self._dead = np.zeros(self._n, dtype=bool)
        self._dead[list(tombstones)] = True
        self._dead_shared = False  # a published view holds self._dead
        self._n_dead = int(self._dead.sum())
        self._live = self._n - self._n_dead
        self._total_len = int(self._lengths[(self._lengths >= 0) & ~self._dead].sum())
        # Delta columns: capacity buffers, their published slices, and the
        # postings added since the last view (moved into the buffers then).
        self._delta_buf: dict[str, Column] = {}
        self._delta: dict[str, Column] = {}
        self._pending: dict[str, tuple[list[int], list[int]]] = {}
        self._extra_docs: dict[int, str] = {}
        self._view: ReadView | None = None

    # ---------------------------------------------------------- snapshot
    def __getstate__(self) -> dict:
        from repro.engine.snapshot import externalizing

        if externalizing():
            return {"_hollow": True}
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state["_view"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __getattr__(self, name: str):
        if self.__dict__.get("_hollow") and not name.startswith("__"):
            self._rehydrate()
            return getattr(self, name)
        raise AttributeError(name)

    def _rehydrate(self) -> None:
        from repro.engine.snapshot import load_active_section

        blob = load_active_section("index")
        if blob is None:
            raise RuntimeError(
                "mutable index was externalized to a pipeline snapshot, "
                "but no snapshot is active in this process"
            )
        loaded = MutableInvertedIndex.from_snapshot_bytes(blob)
        self.__dict__.update(loaded.__dict__, _hollow=False)

    def to_snapshot_bytes(self) -> bytes:
        """Canonical bytes for the pipeline snapshot's ``index`` section.

        The folded overlay plus the tombstone ids, so workers rebuild the
        same live statistics; the lock is held only to capture the view.
        """
        folded, tombstones = self._fold()
        payload = {
            "format": "gced-mutable-index",
            "index": folded.to_dict(),
            "tombstones": tombstones,
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def from_snapshot_bytes(cls, blob: bytes) -> "MutableInvertedIndex":
        payload = json.loads(blob.decode("utf-8"))
        return cls(
            InvertedIndex.from_dict(payload["index"]),
            tombstones=payload.get("tombstones", ()),
        )

    # ------------------------------------------------------------ read view
    def read_view(self) -> ReadView:
        """The current consistent view, rebuilt after each mutation."""
        view = self._view
        if view is None:
            with self._lock:
                view = self._view
                if view is None:
                    self._flush_pending()
                    n, dead = self._n, None
                    if self._n_dead:
                        dead = self._dead[:n]
                        self._dead_shared = True
                    avg = self._total_len / self._live if self._live else 0.0
                    view = ReadView(
                        base=self._base.columns,
                        delta=dict(self._delta),
                        lengths=self._lengths[:n],
                        dead=dead,
                        n_docs=self._live,
                        avg_doc_len=avg,
                    )
                    self._view = view
        return view

    def is_live(self, doc_id: int) -> bool:
        """True for an allocated, not tombstoned id."""
        n = self._n  # read before the buffer: an add grows it first
        return 0 <= doc_id < n and not self._dead[doc_id]

    def doc_text(self, doc_id: int) -> str:
        """The paragraph at ``doc_id``; ``""`` for tombstoned slots."""
        if not self.is_live(doc_id):
            return ""
        if doc_id in self._extra_docs:
            return self._extra_docs[doc_id]
        return self._base.docs[doc_id]

    @property
    def docs(self) -> tuple[str, ...]:
        """The full id space, ``""`` at tombstoned (and gap) slots."""
        return self.compacted().docs

    @property
    def tombstones(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._dead[: self._n]).tolist())

    @property
    def n_tombstones(self) -> int:
        return self._n_dead

    @property
    def next_doc_id(self) -> int:
        return self._n

    @property
    def n_shards(self) -> int:
        return self._base.n_shards

    @property
    def delta_docs(self) -> int:
        """Documents living in the delta (folded away by compaction)."""
        return len(self._extra_docs)

    @property
    def metadata(self) -> dict:
        return self._base.metadata

    # ------------------------------------------------------------ mutation
    def apply_add(self, doc_id: int, text: str) -> None:
        """Insert ``text`` at exactly ``doc_id`` (the WAL-recorded id).

        Ids are append-only: ``doc_id`` must be at or past the current
        frontier.  Skipped ids (a crash tore an earlier record out of a
        batch whose later records survived) become permanent tombstoned
        gaps — they were never acknowledged, so nothing may surface them.
        """
        with self._lock:
            next_id = self.next_doc_id
            if doc_id < next_id:
                raise ValueError(
                    f"doc id {doc_id} already allocated "
                    f"(next is {next_id}); ids are append-only"
                )
            counts = Counter(word_tokens(text))
            length = sum(counts.values())
            # Every write lands past the published [:n] slices.
            if doc_id >= len(self._lengths):
                self._lengths = _room(self._lengths, doc_id + 1, -1)
                self._dead = _room(self._dead, doc_id + 1, True)
            self._lengths[doc_id] = length
            self._dead[doc_id] = False
            self._extra_docs[doc_id] = text
            self._n_dead += doc_id - next_id
            self._total_len += length
            self._live += 1
            self._n = doc_id + 1
            for term, tf in counts.items():
                ids, tfs = self._pending.setdefault(term, ([], []))
                ids.append(doc_id)
                tfs.append(tf)
            self._view = None

    def _flush_pending(self) -> None:
        """Append pending postings to the delta buffers (under the lock)."""
        for term, (new_ids, new_tfs) in self._pending.items():
            ids, tfs = self._delta_buf.get(term, _EMPTY)
            size = len(self._delta.get(term, _EMPTY)[0])
            end = size + len(new_ids)
            if end > len(ids):
                ids, tfs = _room(ids, end, 0), _room(tfs, end, 0)
                self._delta_buf[term] = (ids, tfs)
            ids[size:end] = new_ids
            tfs[size:end] = new_tfs
            self._delta[term] = (ids[:end], tfs[:end])
        self._pending.clear()

    def add(self, text: str) -> int:
        """Insert at the next free id; returns the assigned ``doc_id``."""
        with self._lock:
            doc_id = self.next_doc_id
            self.apply_add(doc_id, text)
            return doc_id

    def apply_delete(self, doc_id: int) -> None:
        """Tombstone a live document.

        Raises :class:`KeyError` for ids never allocated or already
        dead — the service maps that to ``404``.
        """
        with self._lock:
            if not self.is_live(doc_id):
                raise KeyError(f"no live document {doc_id}")
            if self._dead_shared:
                self._dead = self._dead.copy()
                self._dead_shared = False
            self._dead[doc_id] = True
            self._n_dead += 1
            self._total_len -= max(int(self._lengths[doc_id]), 0)
            self._live -= 1
            self._extra_docs.pop(doc_id, None)
            self._view = None

    def rebase(self, base: InvertedIndex, tombstones: Iterable[int] = ()) -> None:
        """Swap in a new base in place, emptying the delta.

        Compaction calls this after the segment swap so every holder of
        this index (retriever, ingest manager, service) sees the folded
        state without re-wiring references.  Object identity — and the
        write lock — are preserved; searches holding the old view finish
        on it, the next one builds a view of the new base.
        """
        with self._lock:
            fresh = MutableInvertedIndex(base, tombstones=tombstones)
            state = fresh.__dict__.copy()
            state["_lock"] = self._lock
            state["_hollow"] = False  # a hollow worker copy is now real
            self.__dict__.update(state)

    # ---------------------------------------------------------- compaction
    def compacted(self) -> InvertedIndex:
        """The live overlay folded into one immutable index.

        Dead slots keep their position (``""``, length ``-1``, no postings),
        so the result plus :attr:`tombstones` is a ``gced-index`` v2 segment;
        serving re-wraps it in :class:`MutableInvertedIndex` for live stats.
        """
        return self._fold()[0]

    def _fold(self) -> tuple[InvertedIndex, list[int]]:
        """The folded index and its tombstone ids; locked only to capture."""
        with self._lock:
            base, view = self._base, self.read_view()
            docs = list(base.docs) + [""] * (self._n - len(base.docs))
            for doc_id, text in self._extra_docs.items():
                docs[doc_id] = text
        columns = {}
        for term in sorted(view.base.keys() | view.delta.keys()):
            ids, tfs = view.live_column(term)
            if len(ids):
                columns[term] = (ids, tfs)
        lengths = view.lengths.copy()
        tombstones: list[int] = []
        if view.dead is not None:
            lengths[view.dead] = -1
            tombstones = np.flatnonzero(view.dead).tolist()
            for doc_id in tombstones:
                docs[doc_id] = ""
        folded = InvertedIndex(
            columns=columns,
            lengths=lengths,
            docs=tuple(docs),
            n_shards=base.n_shards,
            metadata=dict(base.metadata),
        )
        return folded, tombstones
