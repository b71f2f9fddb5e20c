"""The per-posting Python reference scorer the vectorized scorers must match.

It reads nothing from the index under test: given the live corpus as a
``{doc_id: text}`` mapping, it tokenizes every document, derives the
BM25/TF-IDF statistics from scratch, and scores one posting at a time
with the scalar :mod:`repro.retrieval.weighting` formulas, accumulating
``qtf * weight`` in sorted-term order.  ``top_k`` sorts every match by
``(-score, doc_id)``.  Exact ``==`` against these results is the
byte-identity contract of :mod:`repro.retrieval.bm25`.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.retrieval import BM25Scorer, RankingScorer, TfidfScorer
from repro.retrieval.weighting import bm25_idf, bm25_tf, log_tf, smoothed_idf
from repro.text.tokenizer import word_tokens


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
