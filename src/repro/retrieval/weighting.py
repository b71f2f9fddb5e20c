"""Term-weighting utilities shared across the retrieval and QA layers.

Every corpus-statistics consumer in the repo — the vectorized BM25/TF-IDF
retrievers in this package and the span-scoring :class:`repro.qa.tfidf.TfidfQA`
— weighs terms by some flavour of inverse document frequency.  Keeping the
formulas here, as pure functions of ``(n_docs, doc_freq)``, guarantees the
layers agree on what "rare" means and keeps each scorer's module about
*scoring*, not statistics.

All functions are deterministic and depend only on their arguments, so
weights computed in a process-pool worker are bit-identical to the
ones computed inline.
"""

from __future__ import annotations

import math
from typing import Mapping

__all__ = [
    "bm25_idf",
    "bm25_tf",
    "idf_table",
    "log_tf",
    "smoothed_idf",
    "unseen_idf",
]


def smoothed_idf(n_docs: int, doc_freq: int) -> float:
    """Add-one-smoothed IDF: ``log((1 + N) / (1 + df)) + 1``.

    The classic sklearn-style smoothing: never zero, never infinite, and
    defined even for ``df == 0``.  This is the weight
    :class:`repro.qa.tfidf.TfidfQA` applies to matched question terms and
    the TF-IDF retriever applies to query terms.
    """
    return math.log((1 + n_docs) / (1 + doc_freq)) + 1.0


def unseen_idf(n_docs: int) -> float:
    """IDF assigned to a term the corpus never produced (``df == 0``).

    Unseen terms are maximally discriminative: ``log(1 + N) + 1``, the
    supremum of :func:`smoothed_idf` over admissible document frequencies.
    """
    return math.log(1 + n_docs) + 1.0


def idf_table(doc_freq: Mapping[str, int], n_docs: int) -> dict[str, float]:
    """Smoothed IDF for every term in a document-frequency table."""
    return {
        term: smoothed_idf(n_docs, freq) for term, freq in doc_freq.items()
    }


def bm25_idf(n_docs: int, doc_freq: int) -> float:
    """BM25's probabilistic IDF with the +1 floor (Robertson/Lucene form).

    ``log(1 + (N - df + 0.5) / (df + 0.5))`` — the ``1 +`` inside the log
    keeps the weight positive even for terms appearing in more than half
    the corpus, so a common query term can never *subtract* relevance.
    """
    return math.log(1.0 + (n_docs - doc_freq + 0.5) / (doc_freq + 0.5))


def bm25_tf(
    tf: int,
    doc_len: int,
    avg_doc_len: float,
    k1: float = 1.5,
    b: float = 0.75,
) -> float:
    """BM25's saturated, length-normalized term-frequency component.

    ``tf·(k1 + 1) / (tf + k1·(1 - b + b·dl/avgdl))`` for ``tf ≥ 1``:
    repeated mentions saturate (k1) and long documents are penalized
    toward the corpus average length (b).  On numpy arrays the same
    ``+ − × ÷`` sequence runs elementwise, rounding as the scalar call does.
    """
    norm = 1.0 - b + b * (doc_len / avg_doc_len if avg_doc_len > 0 else 1.0)
    return tf * (k1 + 1.0) / (tf + k1 * norm)


def log_tf(tf: int) -> float:
    """Sublinear term-frequency damping ``1 + log(tf)`` (0 for absent)."""
    return 1.0 + math.log(tf) if tf > 0 else 0.0
