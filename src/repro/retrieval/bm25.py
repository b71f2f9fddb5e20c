"""Vectorized ranking scorers over the columnar inverted index.

Two scorers share the :mod:`repro.retrieval.weighting` utilities (the same
IDF family :class:`repro.qa.tfidf.TfidfQA` weighs spans with):

* :class:`BM25Scorer` — Okapi BM25 with the Lucene-style positive-IDF
  floor; the default retriever.
* :class:`TfidfScorer` — sublinear TF × smoothed IDF; a simpler reference
  point and an ablation partner for BM25.

Determinism is part of the scoring contract: each query term weighs its
whole posting column in the scalar formulas' operation order (``+ − × ÷``
round in numpy as in Python; logs come from :func:`math.log`), terms are
accumulated in sorted order (float addition is not associative), and
:meth:`RankingScorer.top_k` breaks score ties by ascending ``doc_id`` —
scores equal a per-posting Python scorer's bit for bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.retrieval.index import query_terms
from repro.retrieval.weighting import bm25_idf, bm25_tf, log_tf, smoothed_idf

__all__ = ["BM25Scorer", "RankingScorer", "TfidfScorer", "make_scorer"]


class RankingScorer:
    """Common query-scoring skeleton: score all matches, take top-k."""

    name = "abstract"

    def term_weights(self, n_docs: int, tf, dl, avg_doc_len: float):
        """Weights of one term's postings (``tf``/``dl`` are arrays)."""
        raise NotImplementedError

    def _accumulate(self, index, query: str) -> tuple[np.ndarray, np.ndarray]:
        """Scores over the id space, and the mask of ids any term matched."""
        view = index.read_view()
        scores = np.zeros(len(view.lengths))
        touched = np.zeros(len(view.lengths), dtype=bool)
        counts = Counter(query_terms(query))
        for term in sorted(counts):
            ids, tf = view.live_column(term)
            # Ids are unique within a column, so the scatter-add is exact.
            scores[ids] += counts[term] * self.term_weights(
                view.n_docs, tf, view.lengths[ids], view.avg_doc_len
            )
            touched[ids] = True
        return scores, touched

    def score_all(self, index, query: str) -> dict[int, float]:
        """Accumulated score per matching document (absent = no overlap)."""
        scores, touched = self._accumulate(index, query)
        ids = np.flatnonzero(touched)
        return dict(zip(ids.tolist(), scores[ids].tolist()))

    def top_k(self, index, query: str, k: int) -> list[tuple[int, float]]:
        """The ``k`` best ``(doc_id, score)`` pairs, deterministically.

        Ordered by score descending; exact ties resolve to the lower
        ``doc_id`` so rankings are reproducible across runs, backends,
        and persisted-index reloads.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        scores, touched = self._accumulate(index, query)
        ids = np.flatnonzero(touched)
        found = scores[ids]
        if len(ids) > k:
            # Tie-inclusive cut: every id scoring at least the k-th best
            # survives, so the doc_id tie-break sees the whole tied group.
            keep = found >= np.partition(found, len(found) - k)[len(found) - k]
            ids, found = ids[keep], found[keep]
        order = np.lexsort((ids, -found))[:k]
        return list(zip(ids[order].tolist(), found[order].tolist()))


class BM25Scorer(RankingScorer):
    """Okapi BM25 (k1 saturation, b length normalization)."""

    name = "bm25"

    def __init__(self, k1: float = 1.5, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.k1 = k1
        self.b = b

    def term_weights(self, n_docs, tf, dl, avg_doc_len):
        return bm25_idf(n_docs, len(tf)) * bm25_tf(
            tf, dl, avg_doc_len, k1=self.k1, b=self.b
        )


class TfidfScorer(RankingScorer):
    """Sublinear TF × add-one-smoothed IDF (no length normalization)."""

    name = "tfidf"

    def term_weights(self, n_docs, tf, dl, avg_doc_len):
        log_tfs = np.array([log_tf(n) for n in range(int(tf.max(initial=0)) + 1)])
        return smoothed_idf(n_docs, len(tf)) * log_tfs[tf]


_SCORERS = {"bm25": BM25Scorer, "tfidf": TfidfScorer}


def make_scorer(name: str, **kwargs) -> RankingScorer:
    """Instantiate a scorer by registry name (``bm25`` or ``tfidf``)."""
    try:
        factory = _SCORERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scorer {name!r}; known: {sorted(_SCORERS)}"
        ) from None
    return factory(**kwargs)
