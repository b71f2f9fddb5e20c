"""A mutable overlay over the immutable sharded inverted index.

:class:`MutableInvertedIndex` is the in-memory half of the ingestion
subsystem: it layers *delta* postings (documents added since the last
compaction) and a *tombstone* set (documents deleted since then) over an
immutable :class:`~repro.retrieval.index.InvertedIndex` base, while
presenting the exact scorer surface (``n_docs`` / ``avg_doc_len`` /
``doc_freq`` / ``postings`` / ``doc_length`` / ``doc_text``) the ranking
layer already consumes — BM25 over the overlay is *byte-identical* to
BM25 over a from-scratch index of the same live corpus, because every
statistic is integer-derived and accumulated in the same sorted-term
order.

Identity semantics: document ids are append-only and never reused.  A
deleted document keeps its id slot forever (its text becomes ``""`` and
its postings vanish), so ranked results and paged cursors that embed
``doc_id`` stay stable across deletes and compactions.  ``n_docs``,
``avg_doc_len`` and ``doc_freq`` count *live* documents only.

Reader/writer discipline: one writer at a time (the ingest manager holds
the write lock); readers are lock-free.  Mutations publish in an order
that keeps concurrent readers consistent — an add becomes *findable*
last (text → length → statistics → postings), a delete becomes
*invisible* first (tombstone → statistics) — so a reader never sees a
document in the postings without its length and text.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from typing import Iterable

from repro.retrieval.index import IndexShard, InvertedIndex, Posting
from repro.text.tokenizer import word_tokens

__all__ = ["MutableInvertedIndex"]


class MutableInvertedIndex:
    """Delta postings + tombstones over an immutable base index.

    Args:
        base: the compacted (or freshly built) immutable index.
        tombstones: ids already dead in ``base`` — a loaded ``gced-index``
            version-2 segment records them so the id space stays
            append-only across restarts; their slots hold ``""``.
    """

    def __init__(
        self, base: InvertedIndex, tombstones: Iterable[int] = ()
    ) -> None:
        self._base = base
        self._n_shards = len(base.shards)
        self._lock = threading.RLock()
        self._delta_lengths: list[dict[int, int]] = [
            {} for _ in range(self._n_shards)
        ]
        self._delta_postings: list[dict[str, list[Posting]]] = [
            {} for _ in range(self._n_shards)
        ]
        self._extra_docs: dict[int, str] = {}
        self._tombstones: set[int] = set()
        self._doc_freq: dict[str, int] = dict(base._doc_freq)
        self._total_len = base._total_len
        self._live = len(base.docs)
        self._next_doc_id = len(base.docs)
        self._shards_cache: tuple[IndexShard, ...] | None = None
        for doc_id in sorted(set(tombstones)):
            self._subtract(doc_id, base.docs[doc_id])
            self._tombstones.add(doc_id)

    # ---------------------------------------------------------- snapshot
    def __getstate__(self) -> dict:
        from repro.engine.snapshot import externalizing

        if externalizing():
            return {"_hollow": True}
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state.pop("_shards_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._shards_cache = None

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
        state = loaded.__dict__.copy()
        state["_hollow"] = False
        self.__dict__.update(state)

    def to_snapshot_bytes(self) -> bytes:
        """Canonical bytes for the pipeline snapshot's ``index`` section.

        The live overlay is materialized (delta folded into shard form)
        and shipped with the tombstone ids so workers reconstruct the
        same live statistics; a delta-free index snapshots to the same
        bytes run over run.
        """
        payload = {
            "format": "gced-mutable-index",
            "index": self.compacted().to_dict(),
            "tombstones": sorted(self._tombstones),
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

    # ------------------------------------------------------------ scorer surface
    @property
    def n_docs(self) -> int:
        """Live documents (tombstones excluded)."""
        return self._live

    @property
    def n_terms(self) -> int:
        return len(self._doc_freq)

    @property
    def avg_doc_len(self) -> float:
        return self._total_len / self._live if self._live else 0.0

    def doc_freq(self, term: str) -> int:
        return self._doc_freq.get(term, 0)

    def doc_length(self, doc_id: int) -> int:
        shard = doc_id % self._n_shards
        delta = self._delta_lengths[shard]
        if doc_id in delta:
            return delta[doc_id]
        return self._base.shards[shard].doc_lengths[doc_id]

    def postings(self, term: str) -> tuple[Posting, ...]:
        """Live ``(doc_id, tf)`` postings, ids ascending, tombstones cut."""
        tombstones = self._tombstones
        merged = [
            posting
            for posting in self._base.postings(term)
            if posting[0] not in tombstones
        ]
        for shard in self._delta_postings:
            merged.extend(
                posting
                for posting in shard.get(term, ())
                if posting[0] not in tombstones
            )
        merged.sort()
        return tuple(merged)

    def doc_text(self, doc_id: int) -> str:
        """The paragraph at ``doc_id``; ``""`` for tombstoned slots."""
        if doc_id in self._tombstones:
            return ""
        if doc_id in self._extra_docs:
            return self._extra_docs[doc_id]
        return self._base.docs[doc_id]

    @property
    def docs(self) -> tuple[str, ...]:
        """The full id space, ``""`` at tombstoned (and gap) slots."""
        return tuple(
            self.doc_text(doc_id) for doc_id in range(self._next_doc_id)
        )

    @property
    def tombstones(self) -> frozenset[int]:
        return frozenset(self._tombstones)

    @property
    def next_doc_id(self) -> int:
        return self._next_doc_id

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def delta_docs(self) -> int:
        """Documents living in the delta (folded away by compaction)."""
        return len(self._extra_docs)

    @property
    def metadata(self) -> dict:
        return self._base.metadata

    @property
    def shards(self) -> tuple[IndexShard, ...]:
        """The live overlay materialized as canonical immutable shards.

        Lazily built and cached until the next mutation; this is the
        compaction input and the pipeline-snapshot payload, so both
        share one definition of "the live corpus".  Searches never read
        it — they go through the overlay's scorer surface above.
        """
        cached = self._shards_cache
        if cached is None:
            with self._lock:
                cached = self._shards_cache
                if cached is None:
                    cached = tuple(
                        self._materialize_shard(shard_id)
                        for shard_id in range(self._n_shards)
                    )
                    self._shards_cache = cached
        return cached

    def _materialize_shard(self, shard_id: int) -> IndexShard:
        tombstones = self._tombstones
        base = self._base.shards[shard_id]
        doc_lengths = {
            doc_id: length
            for doc_id, length in base.doc_lengths.items()
            if doc_id not in tombstones
        }
        doc_lengths.update(
            (doc_id, length)
            for doc_id, length in self._delta_lengths[shard_id].items()
            if doc_id not in tombstones
        )
        merged: dict[str, list[Posting]] = {}
        for term, postings in base.postings.items():
            live = [p for p in postings if p[0] not in tombstones]
            if live:
                merged[term] = live
        for term, postings in self._delta_postings[shard_id].items():
            live = [p for p in postings if p[0] not in tombstones]
            if live:
                merged.setdefault(term, []).extend(live)
        postings_out = {
            term: tuple(sorted(merged[term])) for term in sorted(merged)
        }
        return IndexShard(
            shard_id=shard_id,
            doc_lengths=dict(sorted(doc_lengths.items())),
            postings=postings_out,
        )

    # ------------------------------------------------------------ mutation
    def apply_add(self, doc_id: int, text: str) -> None:
        """Insert ``text`` at exactly ``doc_id`` (the WAL-recorded id).

        Ids are append-only: ``doc_id`` must be at or past the current
        frontier.  Skipped ids (a crash tore an earlier record out of a
        batch whose later records survived) become permanent tombstoned
        gaps — they were never acknowledged, so nothing may surface them.
        """
        with self._lock:
            if doc_id < self._next_doc_id:
                raise ValueError(
                    f"doc id {doc_id} already allocated "
                    f"(next is {self._next_doc_id}); ids are append-only"
                )
            for gap in range(self._next_doc_id, doc_id):
                self._tombstones.add(gap)
            shard_id = doc_id % self._n_shards
            counts = Counter(word_tokens(text))
            length = sum(counts.values())
            # Publication order for lock-free readers: text and length
            # first, statistics next, postings last — the doc is only
            # *findable* once everything else about it is in place.
            self._extra_docs[doc_id] = text
            self._delta_lengths[shard_id][doc_id] = length
            self._total_len += length
            self._live += 1
            postings = self._delta_postings[shard_id]
            for term in sorted(counts):
                self._doc_freq[term] = self._doc_freq.get(term, 0) + 1
            for term in sorted(counts):
                postings.setdefault(term, []).append((doc_id, counts[term]))
            self._next_doc_id = doc_id + 1
            self._shards_cache = None

    def add(self, text: str) -> int:
        """Insert at the next free id; returns the assigned ``doc_id``."""
        with self._lock:
            doc_id = self._next_doc_id
            self.apply_add(doc_id, text)
            return doc_id

    def apply_delete(self, doc_id: int) -> None:
        """Tombstone a live document.

        Raises :class:`KeyError` for ids never allocated or already
        dead — the service maps that to ``404``.
        """
        with self._lock:
            if (
                doc_id < 0
                or doc_id >= self._next_doc_id
                or doc_id in self._tombstones
            ):
                raise KeyError(f"no live document {doc_id}")
            text = self.doc_text(doc_id)
            # Hide first, then retire the statistics: a concurrent
            # reader either still sees the fully live doc or none of it.
            self._tombstones.add(doc_id)
            self._subtract(doc_id, text)
            self._extra_docs.pop(doc_id, None)
            self._shards_cache = None

    def _subtract(self, doc_id: int, text: str) -> None:
        counts = Counter(word_tokens(text))
        self._total_len -= sum(counts.values())
        self._live -= 1
        for term in counts:
            remaining = self._doc_freq.get(term, 0) - 1
            if remaining > 0:
                self._doc_freq[term] = remaining
            else:
                self._doc_freq.pop(term, None)

    def rebase(
        self, base: InvertedIndex, tombstones: Iterable[int] = ()
    ) -> None:
        """Swap in a new base in place, emptying the delta.

        Compaction calls this after the segment swap so every holder of
        this index (retriever, ingest manager, service) sees the folded state
        without re-wiring references.  Object identity — and the write
        lock — are preserved; the internal state is replaced wholesale
        so lock-free readers see either the old overlay or the new one.
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

        Tombstoned slots keep their position in ``docs`` (as ``""``) but
        contribute no postings and no lengths — the returned index plus
        the tombstone id list is exactly a ``gced-index`` version-2
        segment.  Note plain :class:`InvertedIndex` counts the
        placeholder slots in ``n_docs``; serving always re-wraps the
        segment in :class:`MutableInvertedIndex`, which restores
        live-only statistics.
        """
        return InvertedIndex(
            shards=self.shards,
            docs=self.docs,
            metadata=dict(self._base.metadata),
        )

    def describe(self) -> str:
        return (
            f"{self.n_docs} live docs ({len(self._tombstones)} tombstoned, "
            f"{self.delta_docs} in delta), {self.n_terms} terms, "
            f"{self._n_shards} shards, "
            f"avg doc length {self.avg_doc_len:.1f} words"
        )
