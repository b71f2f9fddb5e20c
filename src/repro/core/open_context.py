"""Open-context evidence distillation: retrieve → distill → re-rank.

The paper's pipeline consumes (question, answer, context) triples; the
open-context workload starts with only the QA pair.  The
:class:`OpenContextDistiller` closes the gap in three moves:

1. **retrieve** the top-k candidate paragraphs from the sharded corpus
   index (:class:`~repro.retrieval.retriever.CorpusRetriever`);
2. **distill** evidence from every candidate as one engine batch
   (:class:`~repro.core.batch.BatchDistiller` — dedup, memoization,
   context-grouped executor chunks all apply);
3. **re-rank** the distilled evidences by hybrid evidence score, so the
   final ordering reflects *evidence quality*, not just lexical overlap
   — a paragraph that merely mentions the answer loses to one whose
   distilled fragment actually supports it.

Ranking is deterministic: hybrid score descending, retrieval rank then
doc id breaking exact ties, failed/invalid candidates last.  The same
:func:`build_outcome` assembles results for the inline path here and the
served ``/ask`` path, which is what makes served-vs-inline byte
equivalence testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.batch import BatchDistiller
from repro.core.result import DistillationResult
from repro.core.serialize import result_to_dict
from repro.retrieval.retriever import CorpusRetriever, RetrievedParagraph

__all__ = [
    "AskCandidate",
    "AskOutcome",
    "OpenContextDistiller",
    "build_outcome",
]


@dataclass(frozen=True)
class AskCandidate:
    """One retrieved paragraph and what distillation made of it."""

    paragraph: RetrievedParagraph
    result: DistillationResult | None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_dict(self, question: str, answer: str) -> dict:
        retrieval = {
            "doc_id": self.paragraph.doc_id,
            "rank": self.paragraph.rank,
            "score": self.paragraph.score,
        }
        if self.result is None:
            return {"retrieval": retrieval, "error": self.error}
        payload = result_to_dict(self.result, question, answer)
        payload["retrieval"] = retrieval
        return payload


@dataclass(frozen=True)
class AskOutcome:
    """Ranked open-context distillations for one QA pair."""

    question: str
    answer: str
    candidates: tuple[AskCandidate, ...]

    @property
    def best(self) -> AskCandidate | None:
        """The top-ranked successful candidate, if any."""
        for candidate in self.candidates:
            if candidate.ok:
                return candidate
        return None

    @property
    def errors(self) -> int:
        return sum(1 for candidate in self.candidates if not candidate.ok)

    def to_dict(self) -> dict:
        best = self.best
        return {
            "question": self.question,
            "answer": self.answer,
            "retrieved": len(self.candidates),
            "errors": self.errors,
            "best_evidence": best.result.evidence if best else "",
            "candidates": [
                candidate.to_dict(self.question, self.answer)
                for candidate in self.candidates
            ],
        }


def _rank_key(candidate: AskCandidate) -> tuple:
    """Hybrid score desc; ties by retrieval rank, then doc id; failures last."""
    hit = candidate.paragraph
    if candidate.result is None:
        return (2, 0.0, hit.rank, hit.doc_id)
    hybrid = candidate.result.scores.hybrid
    if not candidate.result.scores.is_valid or not math.isfinite(hybrid):
        return (1, 0.0, hit.rank, hit.doc_id)
    return (0, -hybrid, hit.rank, hit.doc_id)


def build_outcome(
    question: str,
    answer: str,
    hits: list[RetrievedParagraph],
    results: list[DistillationResult | Exception],
) -> AskOutcome:
    """Pair retrieval hits with their distillations and rank by evidence.

    ``results`` is aligned with ``hits``; exceptions (the scheduler's
    per-request error isolation) become failed candidates that rank after
    every successful one instead of poisoning the whole ask.
    """
    candidates = []
    for hit, outcome in zip(hits, results):
        if isinstance(outcome, Exception):
            candidates.append(
                AskCandidate(
                    paragraph=hit,
                    result=None,
                    error=str(outcome) or type(outcome).__name__,
                )
            )
        else:
            candidates.append(AskCandidate(paragraph=hit, result=outcome))
    candidates.sort(key=_rank_key)
    return AskOutcome(
        question=question, answer=answer, candidates=tuple(candidates)
    )


class OpenContextDistiller:
    """Retrieves supporting paragraphs and distills the best evidence.

    Popular paragraphs are retrieved for many asks, so their compiled
    context artifacts (:attr:`compiler`) stay warm across requests and
    a new question over a known paragraph skips its span-table work.

    Args:
        distiller: the warm batch distiller every candidate set runs on.
        retriever: the corpus retriever answering top-k queries.
        top_k: default number of paragraphs to consider per ask.
    """

    def __init__(
        self,
        distiller: BatchDistiller,
        retriever: CorpusRetriever,
        top_k: int = 3,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        self.distiller = distiller
        self.retriever = retriever
        self.top_k = top_k
        # Convenience handle to the pipeline's compiled-context cache
        # (None for QA models without one): `compiler.snapshot()` shows
        # how much paragraph reuse this ask traffic is getting.  Stats
        # otherwise flow through the distiller's profile.
        self.compiler = distiller.gced.compiler

    def _distill_isolated(
        self, triples: list[tuple[str, str, str]]
    ) -> list[DistillationResult | Exception]:
        """One engine batch, with the scheduler's error-isolation fallback:
        if the batch fails, re-run per item so a single poisoned triple
        yields its exception without failing its batch-mates."""
        try:
            return list(self.distiller.distill_many(triples))
        except Exception:
            results: list[DistillationResult | Exception] = []
            for triple in triples:
                try:
                    results.append(self.distiller.distill_one(*triple))
                except Exception as exc:
                    results.append(exc)
            return results

    def ask(
        self, question: str, answer: str, k: int | None = None
    ) -> AskOutcome:
        """Answer one open-context query (question + answer, no context).

        All candidate paragraphs are distilled as one
        :meth:`BatchDistiller.distill_many` batch, so the configured
        executor (``workers``) does the fan-out.
        """
        if k is None:
            k = self.top_k
        hits = self.retriever.retrieve_for_qa(question, answer, k=k)
        results: list[DistillationResult | Exception] = []
        if hits:
            results = self._distill_isolated(
                [(question, answer, hit.text) for hit in hits]
            )
        return build_outcome(question, answer, hits, results)

    def ask_batch(
        self, pairs: list[tuple[str, str]], k: int | None = None
    ) -> list[AskOutcome]:
        """Answer many open-context queries on one engine batch.

        All candidate paragraphs across all pairs are distilled in a
        single :meth:`BatchDistiller.distill_many` call, so context
        grouping and dedup work across the whole request set.
        """
        if k is None:
            k = self.top_k
        per_pair_hits = [
            self.retriever.retrieve_for_qa(question, answer, k=k)
            for question, answer in pairs
        ]
        flat: list[tuple[str, str, str]] = []
        for (question, answer), hits in zip(pairs, per_pair_hits):
            flat.extend((question, answer, hit.text) for hit in hits)
        flat_results = self._distill_isolated(flat) if flat else []
        outcomes: list[AskOutcome] = []
        cursor = 0
        for (question, answer), hits in zip(pairs, per_pair_hits):
            results = flat_results[cursor : cursor + len(hits)]
            cursor += len(hits)
            outcomes.append(build_outcome(question, answer, hits, results))
        return outcomes

    def close(self) -> None:
        self.distiller.close()

    def __enter__(self) -> "OpenContextDistiller":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
