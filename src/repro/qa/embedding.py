"""Embedding-similarity QA: distributional matching beyond exact overlap.

Scores a span by the cosine similarity between the question's mean
embedding and the mean embedding of the span's surrounding window.
Catches paraphrases exact matchers miss ("defeated" vs "beat"), standing
in for the semantic matching a fine-tuned PLM performs.
"""

from __future__ import annotations

import numpy as np

from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.qa.base import QuestionProfile, SpanScoringQA
from repro.qa.compiled import word_lowers
from repro.text.tokenizer import Token
from repro.utils.cache import memoize_method

__all__ = ["EmbeddingQA"]


class EmbeddingQA(SpanScoringQA):
    """Mean-vector cosine matcher over a fitted embedding space.

    Args:
        embeddings: fitted :class:`CooccurrenceEmbeddings`.
        window: window (tokens) around the span contributing context.
    """

    name = "embedding"

    def __init__(self, embeddings: CooccurrenceEmbeddings, window: int = 12) -> None:
        if not embeddings.fitted:
            raise ValueError("embeddings must be fitted before use")
        self.embeddings = embeddings
        self.window = window

    def _mean_vector(self, words: list[str]) -> np.ndarray:
        if not words:
            return np.zeros(self.embeddings.dim)
        return self.embeddings.matrix(words).mean(axis=0)

    @memoize_method(maxsize=512)
    def _question_vector(self, terms: tuple[str, ...]) -> np.ndarray:
        return self._mean_vector(list(terms))

    def score_span(
        self,
        question_terms: list[str],
        tokens: list[Token],
        start: int,
        end: int,
        bounds: tuple[int, int] | None = None,
    ) -> float:
        qv = self._question_vector(tuple(question_terms))
        qn = np.linalg.norm(qv)
        if qn == 0.0:
            return 0.0
        lo_limit, hi_limit = bounds if bounds is not None else (0, len(tokens))
        lo = max(lo_limit, start - self.window)
        hi = min(hi_limit, end + self.window + 1)
        words = [tokens[i].lower for i in range(lo, hi) if tokens[i].is_word]
        return self._cosine(qv, qn, self._mean_vector(words))

    @staticmethod
    def _cosine(qv: np.ndarray, qn: float, sv: np.ndarray) -> float:
        """Cosine of question vector ``qv`` (norm ``qn``) and ``sv``."""
        sn = np.linalg.norm(sv)
        if sn == 0.0:
            return 0.0
        return float(qv @ sv / (qn * sn))

    # ------------------------------------------------- prepared scoring path
    def _context_matrix(
        self, lowers: list[str | None]
    ) -> tuple[np.ndarray, list[int]]:
        """The stacked word-embedding matrix + word-position prefix counts.

        A pure function of the context's :func:`word_lowers` table (no
        question side), so it is shareable across every question asked
        of one paragraph.
        """
        word_prefix = [0] * (len(lowers) + 1)
        rows = []
        for i, lower in enumerate(lowers):
            if lower is not None:
                rows.append(self.embeddings.vector(lower))
            word_prefix[i + 1] = len(rows)
        matrix = np.vstack(rows) if rows else np.zeros((0, self.embeddings.dim))
        return matrix, word_prefix

    def span_prep(
        self, profile: QuestionProfile, tokens: list[Token], compiled=None
    ):
        """Context word-embedding matrix plus word-position prefix counts.

        Window means become contiguous row slices of one stacked matrix
        (word tokens inside a token range are consecutive in word-only
        order), so each span pays one ``mean`` instead of rebuilding the
        matrix from per-token dictionary lookups.  The matrix is
        question-independent; with a compiled context it is derived once
        per paragraph and shared across questions.
        """
        qv = self._question_vector(tuple(profile.terms))
        qn = np.linalg.norm(qv)
        if compiled is not None:
            matrix, word_prefix = compiled.derive(
                (self.prep_key, "embedding-matrix"),
                lambda: self._context_matrix(compiled.word_lowers()),
            )
        else:
            matrix, word_prefix = self._context_matrix(word_lowers(tokens))
        return (qv, qn, matrix, word_prefix)

    def score_spans(self, prep, profile, tokens, spans, bounds) -> list[float]:
        """One cosine per distinct window row slice, shared by every span
        whose window covers the same word rows."""
        if prep is None:
            return super().score_spans(prep, profile, tokens, spans, bounds)
        qv, qn, matrix, word_prefix = prep
        if qn == 0.0:
            return [0.0] * len(spans)
        window = self.window
        cosines: dict[tuple[int, int], float] = {}
        scores = []
        for (start, end), (lo_limit, hi_limit) in zip(spans, bounds):
            rows = (
                word_prefix[max(lo_limit, start - window)],
                word_prefix[min(hi_limit, end + window + 1)],
            )
            cosine = cosines.get(rows)
            if cosine is None:
                a, b = rows
                cosine = cosines[rows] = (
                    self._cosine(qv, qn, matrix[a:b].mean(axis=0)) if a < b else 0.0
                )
            scores.append(cosine)
        return scores
