"""Columnar inverted index over a paragraph corpus.

The index is the retrieval subsystem's data plane: each paragraph is
tokenized once (with :func:`repro.text.tokenizer.word_tokens`, the same
normalization every scorer in the repo uses) into per-term numpy columns
— ascending ``doc_ids`` and their ``tf`` — plus one document-length
array over the id space.  Scorers read them through a :class:`ReadView`.

Construction fans out over the engine's executors: contiguous doc-id
chunks are tokenized in parallel and concatenated in id order, so
serial, thread-pool, and process-pool builds produce *byte-identical*
indexes.  ``n_shards`` survives only as the layout of the persisted
``gced-index`` v1/v2 JSON (:meth:`InvertedIndex.to_dict` files each
posting under ``doc_id % n_shards``), so files and snapshot bytes are a
pure function of the corpus and the shard count.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.engine.executor import Executor, SerialExecutor
from repro.text.tokenizer import word_tokens

__all__ = ["InvertedIndex", "ReadView", "query_terms"]

Column = tuple[np.ndarray, np.ndarray]  # (doc_ids ascending, tfs)

_EMPTY: Column = (np.empty(0, np.int32), np.empty(0, np.int32))


@dataclass(frozen=True, eq=False)
class ReadView:
    """One consistent, immutable picture of an index, as searches see it.

    ``delta`` holds the columns of documents added after ``base`` was
    built (every delta id is above every base id); ``lengths`` is ``-1``
    where a slot holds no document; ``dead`` masks tombstoned ids (or is
    ``None``); ``n_docs`` and ``avg_doc_len`` are the ranking statistics.
    """

    base: Mapping[str, Column]
    delta: Mapping[str, Column]
    lengths: np.ndarray
    dead: np.ndarray | None
    n_docs: int
    avg_doc_len: float

    def live_column(self, term: str) -> Column:
        """``term``'s postings over live documents, ids ascending."""
        ids, tfs = self.base.get(term, _EMPTY)
        extra = self.delta.get(term)
        if extra is not None:
            ids = np.concatenate((ids, extra[0]))
            tfs = np.concatenate((tfs, extra[1]))
        if self.dead is not None:
            keep = ~self.dead[ids]
            ids, tfs = ids[keep], tfs[keep]
        return ids, tfs

    def doc_freq(self, term: str) -> int:
        return len(self.live_column(term)[0])

    @cached_property
    def n_terms(self) -> int:
        terms = self.base.keys() | self.delta.keys()
        return sum(1 for term in terms if self.doc_freq(term))


class _ViewStats:
    """Ranking statistics, read off the index's current :class:`ReadView`."""

    @property
    def n_docs(self) -> int:
        return self.read_view().n_docs

    @property
    def n_terms(self) -> int:
        return self.read_view().n_terms

    @property
    def avg_doc_len(self) -> float:
        return self.read_view().avg_doc_len

    def doc_freq(self, term: str) -> int:
        """Number of live documents containing ``term`` (0 if unseen)."""
        return self.read_view().doc_freq(term)


def _index_chunk(payload: tuple[int, tuple[str, ...]]) -> tuple:
    """Tokenize ``(first_doc_id, texts)`` into flat posting arrays.

    Returns ``(lengths, vocab, term_numbers, doc_ids, tfs)``, one posting
    per array entry.  Module-level and picklable on purpose: this is the
    unit of work the executor fans out, including to process pools.
    """
    first_id, texts = payload
    lengths = np.empty(len(texts), np.int32)
    vocab: dict[str, int] = {}
    terms: list[int] = []
    ids: list[int] = []
    tfs: list[int] = []
    for offset, text in enumerate(texts):
        counts = Counter(word_tokens(text))
        lengths[offset] = sum(counts.values())
        for term, tf in counts.items():
            terms.append(vocab.setdefault(term, len(vocab)))
            ids.append(first_id + offset)
            tfs.append(tf)
    return (
        lengths,
        tuple(vocab),
        np.asarray(terms, np.intp),
        np.asarray(ids, np.int32),
        np.asarray(tfs, np.int32),
    )


@dataclass(eq=False)
class InvertedIndex(_ViewStats):
    """A columnar inverted index plus the raw corpus it was built from.

    The raw paragraphs ride along (``docs``) so a persisted index is
    self-contained: ``repro ask`` can re-train the QA artifacts and serve
    retrieved paragraphs from the index file alone, fully offline.

    ``columns`` maps each term (sorted) to ``(doc_ids, tf)``; ``lengths``
    is ``-1`` at slots a compaction emptied (their ``docs`` entry is
    ``""``); ``n_shards`` is the persisted layout (see :meth:`to_dict`).
    """

    columns: dict[str, Column]
    lengths: np.ndarray
    docs: tuple[str, ...]
    n_shards: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.docs)
        total = int(self.lengths[self.lengths >= 0].sum())
        self._view = ReadView(
            self.columns, {}, self.lengths, None, n, total / n if n else 0.0
        )

    # -------------------------------------------------------- snapshot plane
    def __getstate__(self) -> dict:
        from repro.engine.snapshot import externalizing

        if externalizing():
            # Columns and docs ride the snapshot's shared segment (the
            # canonical JSON bytes, one copy for all workers); the pickle
            # carries a hollow shell that re-attaches on first lookup.
            return {"metadata": dict(self.metadata), "_hollow": True}
        return self.__dict__.copy()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __getattr__(self, name: str):
        # Reached only for *missing* attributes: a hollow instance lazily
        # rehydrates its data plane from the active snapshot.
        hollow = self.__dict__.get("_hollow")
        if hollow and name in ("columns", "lengths", "docs", "n_shards", "_view"):
            self._rehydrate()
            return self.__dict__[name]
        raise AttributeError(name)

    def _rehydrate(self) -> None:
        from repro.engine.snapshot import load_active_section

        blob = load_active_section("index")
        if blob is None:
            raise RuntimeError(
                "inverted index was externalized to a pipeline snapshot, "
                "but no snapshot is active in this process"
            )
        loaded = InvertedIndex.from_snapshot_bytes(blob)
        self.__dict__.update(loaded.__dict__, _hollow=False)

    def to_snapshot_bytes(self) -> bytes:
        """Canonical serialized form for the snapshot's ``index`` section.

        Reuses :meth:`to_dict` (the byte-identity reference form) encoded
        as deterministic JSON, so snapshot round trips are byte-identical
        and workers parse postings only if their traffic retrieves.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @classmethod
    def from_snapshot_bytes(cls, blob: bytes) -> "InvertedIndex":
        return cls.from_dict(json.loads(blob.decode("utf-8")))

    # ------------------------------------------------------------ building
    @classmethod
    def build(
        cls,
        docs: Iterable[str],
        n_shards: int = 4,
        executor: Executor | None = None,
        metadata: dict | None = None,
    ) -> "InvertedIndex":
        """Index ``docs``, fanning tokenization out on ``executor``.

        Each worker tokenizes one contiguous doc-id chunk; the chunks are
        concatenated in id order, so the executor choice (serial/thread/
        process) changes wall-clock, never bytes.
        """
        docs = tuple(docs)
        if not docs:
            raise ValueError("cannot index an empty corpus")
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        executor = executor or SerialExecutor()
        n_chunks = min(len(docs), max(1, executor.workers))
        size = -(-len(docs) // n_chunks)
        payloads = [
            (start, docs[start : start + size])
            for start in range(0, len(docs), size)
        ]
        chunks = executor.map(_index_chunk, payloads)
        vocab = sorted(set().union(*(chunk[1] for chunk in chunks)))
        number = {term: i for i, term in enumerate(vocab)}
        terms = np.concatenate(
            [
                np.array([number[t] for t in chunk_vocab], np.intp)[chunk_terms]
                for _, chunk_vocab, chunk_terms, _, _ in chunks
            ]
        )
        # One stable sort groups every posting by term with ids still
        # ascending (chunks arrive in id order); each term's column is a
        # slice of the two shared buffers.
        order = np.argsort(terms, kind="stable")
        ids = np.concatenate([chunk[3] for chunk in chunks])[order]
        tfs = np.concatenate([chunk[4] for chunk in chunks])[order]
        ends = np.cumsum(np.bincount(terms, minlength=len(vocab))).tolist()
        columns = {
            term: (ids[start:end], tfs[start:end])
            for term, start, end in zip(vocab, [0, *ends], ends)
        }
        return cls(
            columns=columns,
            lengths=np.concatenate([chunk[0] for chunk in chunks]),
            docs=docs,
            n_shards=min(n_shards, len(docs)),
            metadata=dict(metadata or {}),
        )

    # ------------------------------------------------------------- lookups
    def read_view(self) -> ReadView:
        """The view searches score against."""
        return self._view

    def doc_length(self, doc_id: int) -> int:
        return int(self.lengths[doc_id])

    def postings(self, term: str) -> tuple[tuple[int, int], ...]:
        """``(doc_id, tf)`` pairs for ``term``, ids ascending."""
        ids, tfs = self.columns.get(term, _EMPTY)
        return tuple(zip(ids.tolist(), tfs.tolist()))

    def doc_text(self, doc_id: int) -> str:
        return self.docs[doc_id]

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Canonical JSON-safe form (the byte-identity reference)."""
        n = self.n_shards
        present = np.flatnonzero(self.lengths >= 0)
        shards = []
        for shard_id in range(n):
            ids = present[present % n == shard_id]
            lengths = dict(zip(map(str, ids.tolist()), self.lengths[ids].tolist()))
            shard = {"shard_id": shard_id, "doc_lengths": lengths, "postings": {}}
            shards.append(shard)
        for term, (ids, tfs) in self.columns.items():
            shard_of = ids % n
            for shard_id in np.unique(shard_of).tolist():
                mine = shard_of == shard_id
                pairs = np.column_stack((ids[mine], tfs[mine])).tolist()
                shards[shard_id]["postings"][term] = pairs
        return {
            "n_shards": n,
            "metadata": dict(sorted(self.metadata.items())),
            "docs": list(self.docs),
            "shards": shards,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InvertedIndex":
        docs = tuple(payload["docs"])
        lengths = np.full(len(docs), -1, np.int32)
        parts: dict[str, list[list[int]]] = {}
        for shard in payload["shards"]:
            for doc_id, length in shard["doc_lengths"].items():
                lengths[int(doc_id)] = length
            for term, postings in shard["postings"].items():
                parts.setdefault(term, []).extend(postings)
        columns = {}
        for term in sorted(parts):
            pairs = np.array(parts[term], np.int32).reshape(-1, 2)
            pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
            columns[term] = (pairs[:, 0].copy(), pairs[:, 1].copy())
        return cls(
            columns=columns,
            lengths=lengths,
            docs=docs,
            n_shards=int(payload["n_shards"]),
            metadata=dict(payload.get("metadata", {})),
        )

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        return (
            f"{self.n_docs} docs, {self.n_terms} terms, {self.n_shards} shards, "
            f"avg doc length {self.avg_doc_len:.1f} words"
        )


def query_terms(query: str) -> Sequence[str]:
    """Tokenize a free-text query exactly like indexed documents."""
    return word_tokens(query)
