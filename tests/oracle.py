"""Naive reference scorers the optimized paths must match with exact ``==``.

Retrieval: the per-posting Python reference.  It reads nothing from the
index under test: given the live corpus as a ``{doc_id: text}``
mapping, it tokenizes every document, derives the BM25/TF-IDF
statistics from scratch, and scores one posting at a time with the
scalar :mod:`repro.retrieval.weighting` formulas, accumulating
``qtf * weight`` in sorted-term order.  ``top_k`` sorts every match by
``(-score, doc_id)``.  Exact ``==`` against these results is the
byte-identity contract of :mod:`repro.retrieval.bm25`.

QA: the per-span reference.  It derives every context table inline (no
compiled context) and calls the model's generic ``score_span`` once per
candidate span, then applies the span priors span by span.  Exact
``==`` against it is the contract of ``SpanScoringQA.score_spans``.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.qa.answer_types import AnswerType, candidate_spans, classify_question
from repro.qa.base import AnswerPrediction, SpanScoringQA
from repro.retrieval import BM25Scorer, RankingScorer, TfidfScorer
from repro.retrieval.weighting import bm25_idf, bm25_tf, log_tf, smoothed_idf
from repro.text.tokenizer import tokenize, word_tokens


def oracle_score_all(
    scorer: RankingScorer, live: Mapping[int, str], query: str
) -> dict[int, float]:
    """Score of every live document sharing a term with ``query``."""
    tokens = {doc_id: Counter(word_tokens(text)) for doc_id, text in live.items()}
    n_docs = len(tokens)
    total = sum(sum(counts.values()) for counts in tokens.values())
    avg_doc_len = total / n_docs if n_docs else 0.0
    doc_freq = Counter(term for counts in tokens.values() for term in counts)
    scores: dict[int, float] = {}
    query_counts = Counter(word_tokens(query))
    for term in sorted(query_counts):
        for doc_id in sorted(tokens):
            tf = tokens[doc_id][term]
            if not tf:
                continue
            if isinstance(scorer, BM25Scorer):
                weight = bm25_idf(n_docs, doc_freq[term]) * bm25_tf(
                    tf,
                    sum(tokens[doc_id].values()),
                    avg_doc_len,
                    k1=scorer.k1,
                    b=scorer.b,
                )
            elif isinstance(scorer, TfidfScorer):
                weight = smoothed_idf(n_docs, doc_freq[term]) * log_tf(tf)
            else:  # pragma: no cover - only the two shipped scorers
                raise TypeError(f"no oracle for {scorer!r}")
            scores[doc_id] = scores.get(doc_id, 0.0) + query_counts[term] * weight
    return scores


def oracle_top_k(
    scorer: RankingScorer, live: Mapping[int, str], query: str, k: int
) -> list[tuple[int, float]]:
    scores = oracle_score_all(scorer, live, query)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def oracle_ranked_spans(
    model: SpanScoringQA, question: str, context: str
) -> list[tuple[float, int, int]]:
    """Every candidate span's ``(raw, start, end)``, best first.

    The reference for ``SpanScoringQA._ranked_spans``: one generic
    ``score_span`` call per span, with every table derived inline.
    """
    tokens = tokenize(context)
    if not tokens:
        return []
    answer_type = classify_question(question)
    typed = set(candidate_spans(tokens, answer_type))
    spans = set(typed)
    if answer_type is AnswerType.ENTITY or not spans:
        spans |= set(candidate_spans(tokens, AnswerType.PHRASE))
    sent_bounds = model.sentence_bounds(tokens)
    tags = model._tagger.tag([t.text for t in tokens])
    terms = model.question_terms(question)
    nounish, bad_start = model._NOUNISH_TAGS, model._BAD_START_TAGS
    entity_like = answer_type in (
        AnswerType.PERSON,
        AnswerType.PLACE,
        AnswerType.ENTITY,
    )
    scored = []
    for start, end in spans:
        lo = sent_bounds[start][0]
        hi = sent_bounds[min(end, len(tokens) - 1)][1]
        raw = model.score_span(terms, tokens, start, end, bounds=(lo, hi))
        raw -= model.length_penalty * (end - start)
        if (start, end) in typed:
            raw += model.typed_prior
            if (
                entity_like
                and end + 1 < len(tokens)
                and model._is_verb(tokens[end + 1])
            ):
                raw += model.subject_bonus
        elif entity_like:
            raw -= 0.4
        if (start, end) not in typed:
            if tags[end] not in nounish:
                raw -= 0.6
            if tags[start] in bad_start:
                raw -= 0.3
            nxt = end + 1
            if (
                nxt < len(tokens)
                and tags[nxt] == "CC"
                and nxt + 1 < len(tokens)
                and tags[nxt + 1] in nounish
            ):
                raw -= 0.5
            elif nxt < len(tokens) and tags[nxt] in nounish:
                raw -= 0.5
        scored.append((raw, start, end))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    return scored


def oracle_predict_top_k(
    model: SpanScoringQA, question: str, context: str, k: int
) -> list[AnswerPrediction]:
    """The best ``k`` non-overlapping spans of :func:`oracle_ranked_spans`."""
    tokens = tokenize(context)
    results: list[AnswerPrediction] = []
    taken: list[tuple[int, int]] = []
    for score, start, end in oracle_ranked_spans(model, question, context):
        if any(not (end < s or start > e) for s, e in taken):
            continue
        begin, stop = tokens[start].start, tokens[end].end
        results.append(AnswerPrediction(context[begin:stop], begin, stop, score))
        taken.append((start, end))
        if len(results) == k:
            break
    return results
