"""The retrieval facade: index + scorer → ranked paragraphs.

:class:`CorpusRetriever` is what the rest of the system talks to — the
``retrieve`` pipeline stage, the open-context distiller, the ``/ask``
endpoint, and the CLI all hold one of these.  It binds a columnar
:class:`~repro.retrieval.index.InvertedIndex` to a ranking scorer and
returns :class:`RetrievedParagraph` hits carrying everything downstream
ranking needs: the paragraph text, its corpus id, the retrieval score,
and the retrieval rank (the deterministic tie-break key for the evidence
re-ranking step).  A search either ranks over the whole index or
raises :class:`RetrievalUnavailableError`; there is no partial answer.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Iterable

from repro.engine.executor import build_executor
from repro.faults import CircuitBreaker, ShedError, fault_point
from repro.obs.logs import get_logger
from repro.obs.trace import span as obs_span
from repro.retrieval.bm25 import BM25Scorer, RankingScorer
from repro.retrieval.index import InvertedIndex
from repro.retrieval.mutable import MutableInvertedIndex
from repro.retrieval.store import load_segment, save_index

__all__ = [
    "CorpusRetriever",
    "RetrievalUnavailableError",
    "RetrievedParagraph",
]

_log = get_logger("retrieval")


@dataclass(frozen=True)
class RetrievedParagraph:
    """One retrieval hit.

    Attributes:
        doc_id: position of the paragraph in the indexed corpus.
        rank: 0-based retrieval rank (0 = best match).
        score: the scorer's relevance score.
        text: the paragraph itself.
    """

    doc_id: int
    rank: int
    score: float
    text: str

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "rank": self.rank,
            "score": self.score,
            "text": self.text,
        }


class RetrievalUnavailableError(ShedError):
    """Retrieval refused: the breaker is open or the search just failed.

    ``retry_after`` is the breaker's remaining cooldown; the HTTP front
    end answers ``503`` with a ``Retry-After`` header.
    """


class CorpusRetriever:
    """Top-k paragraph retrieval over an inverted index.

    Wraps the search in a :class:`~repro.faults.CircuitBreaker`:
    repeated scorer failures trip it open, and while it is open every
    search raises :class:`RetrievalUnavailableError` without scoring.
    The service surfaces the open breaker through ``degraded: true`` and
    ``/healthz``.
    """

    def __init__(
        self,
        index: InvertedIndex,
        scorer: RankingScorer | None = None,
        breaker_failures: int = 3,
        breaker_reset_s: float = 30.0,
    ) -> None:
        self.index = index
        self.scorer = scorer or BM25Scorer()
        self.breaker = CircuitBreaker(
            name="retrieval",
            failure_threshold=breaker_failures,
            reset_after_s=breaker_reset_s,
        )

    # ------------------------------------------------------------ building
    @classmethod
    def build(
        cls,
        corpus: Iterable[str],
        n_shards: int = 4,
        workers: int = 1,
        backend: str = "thread",
        scorer: RankingScorer | None = None,
        metadata: dict | None = None,
    ) -> "CorpusRetriever":
        """Index ``corpus`` on the engine executor and wrap it.

        ``workers``/``backend`` pick the executor exactly as the batch
        distiller does; the built index is byte-identical regardless.
        """
        with build_executor(workers=workers, backend=backend) as executor:
            index = InvertedIndex.build(
                corpus, n_shards=n_shards, executor=executor, metadata=metadata
            )
        return cls(index, scorer=scorer)

    @classmethod
    def load(
        cls, path: str | pathlib.Path, scorer: RankingScorer | None = None
    ) -> "CorpusRetriever":
        """Load an index or segment; a segment's dead slots never count or rank."""
        segment = load_segment(path)
        index = segment.index
        if segment.tombstones:
            index = MutableInvertedIndex(index, segment.tombstones)
        return cls(index, scorer=scorer)

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist the underlying index (scorers are config, not state)."""
        return save_index(self.index, path)

    # ----------------------------------------------------------- retrieval
    def retrieve(self, query: str, k: int = 3) -> list[RetrievedParagraph]:
        """The ``k`` paragraphs most relevant to ``query``, best first.

        Raises:
            RetrievalUnavailableError: the retrieval breaker is open (no
                scoring happens), or this search failed.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        with obs_span("retrieval.search", k=k) as search_span:
            if not self.breaker.allow():
                search_span.tag(unavailable=True)
                raise RetrievalUnavailableError(
                    "retrieval unavailable: circuit breaker open",
                    self.breaker.cooldown_remaining(),
                )
            try:
                fault_point("retrieval.search", detail=query)
                hits = self.scorer.top_k(self.index, query, k)
            except Exception as exc:
                self.breaker.record_failure()
                _log.warning(
                    "retrieval search failed",
                    exc_info=True,
                    breaker=self.breaker.state,
                )
                search_span.tag(unavailable=True)
                raise RetrievalUnavailableError(
                    f"retrieval search failed: {exc}",
                    self.breaker.cooldown_remaining(),
                ) from exc
            self.breaker.record_success()
            search_span.tag(hits=len(hits))
        return [
            RetrievedParagraph(
                doc_id=doc_id,
                rank=rank,
                score=score,
                text=self.index.doc_text(doc_id),
            )
            for rank, (doc_id, score) in enumerate(hits)
        ]

    @property
    def degraded(self) -> bool:
        """True while the retrieval breaker is open/half-open."""
        return self.breaker.degraded

    def recovery_info(self) -> dict:
        """Breaker state for ``/stats``."""
        return {"degraded": self.degraded, "breaker": self.breaker.stats()}

    def retrieve_for_qa(
        self, question: str, answer: str, k: int = 3
    ) -> list[RetrievedParagraph]:
        """Retrieve supporting paragraphs for a question-answer pair.

        The query concatenates question and answer: the answer terms are
        the strongest signal for *evidence* retrieval (the paragraph must
        contain the answer span to support it).
        """
        return self.retrieve(f"{question} {answer}", k=k)

    @property
    def corpus(self) -> tuple[str, ...]:
        """The live, non-empty paragraphs (positions are not doc ids)."""
        return tuple(text for text in self.index.docs if text)
