"""TF-IDF weighted span scorer.

Like :class:`repro.qa.lexical.LexicalOverlapQA` but each matched question
term is weighted by its corpus inverse document frequency, so rare,
discriminative terms ("Hastings") dominate frequent ones ("battle").
Fitting the IDF table on the training split is this model's "fine-tuning".
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.qa.base import QuestionProfile, SpanScoringQA
from repro.retrieval.weighting import idf_table, unseen_idf
from repro.text.tokenizer import Token, word_tokens

__all__ = ["TfidfQA"]


class TfidfQA(SpanScoringQA):
    """IDF-weighted proximity matcher.

    Args:
        decay: per-token distance decay (as in the lexical model).
        window: maximum matching distance in tokens.
    """

    name = "tfidf"

    def __init__(self, decay: float = 0.85, window: int = 25) -> None:
        self.decay = decay
        self.window = window
        self._idf: dict[str, float] = {}
        self._default_idf = 1.0
        self._fitted = False

    def fit(self, documents: Iterable[str]) -> "TfidfQA":
        """Compute IDF weights from an iterable of raw document strings."""
        doc_freq: Counter[str] = Counter()
        n_docs = 0
        for doc in documents:
            n_docs += 1
            doc_freq.update(set(word_tokens(doc)))
        if n_docs == 0:
            raise ValueError("cannot fit TF-IDF on an empty corpus")
        # The same smoothed-IDF family the retrieval layer ranks with
        # (:mod:`repro.retrieval.weighting`), so span scoring and corpus
        # retrieval agree on term rarity.
        self._idf = idf_table(doc_freq, n_docs)
        # Unseen terms are maximally discriminative.
        self._default_idf = unseen_idf(n_docs)
        self._fitted = True
        return self

    def idf(self, term: str) -> float:
        """IDF weight of ``term`` (default weight before fitting is 1.0)."""
        if not self._fitted:
            return 1.0
        return self._idf.get(term, self._default_idf)

    def _coverage(self, terms, matched: set[str]) -> float:
        """Summed IDF of the distinct matched terms, in question order.

        Summing in ``terms`` order rather than over the set keeps the
        float result independent of string hashing (``PYTHONHASHSEED``).
        """
        return sum(self.idf(t) for t in dict.fromkeys(terms) if t in matched)

    def score_span(
        self,
        question_terms: list[str],
        tokens: list[Token],
        start: int,
        end: int,
        bounds: tuple[int, int] | None = None,
    ) -> float:
        if not question_terms:
            return 0.0
        exact, stems, verbs = self.term_index(question_terms)
        lo_limit, hi_limit = bounds if bounds is not None else (0, len(tokens))
        lo = max(lo_limit, start - self.window)
        hi = min(hi_limit, end + self.window + 1)
        score = 0.0
        matched: set[str] = set()
        for idx in range(lo, hi):
            token = tokens[idx]
            if not token.is_word:
                continue
            term = self.match_term(token.lower, exact, stems)
            if term is None:
                continue
            weight = self.idf(token.lower)
            if start <= idx <= end:
                # Question-term echo inside the candidate span: penalize
                # (see LexicalOverlapQA.score_span).
                score -= 0.4 * weight
                continue
            distance = start - idx if idx < start else idx - end
            decayed = self.decay ** distance
            if term in verbs:
                # Verb matches anchor the answer position: full decay.
                score += self.verb_term_boost * weight * decayed
            else:
                # Noun/entity matches locate the clause; distance within
                # the sentence is a weak signal (see LexicalOverlapQA).
                score += weight * (0.75 + 0.25 * decayed)
            matched.add(term)
        coverage = self._coverage(question_terms, matched)
        score += 0.5 * coverage / max(1, len(question_terms))
        return score

    # ------------------------------------------------- prepared scoring path
    def span_prep(
        self, profile: QuestionProfile, tokens: list[Token], compiled=None
    ):
        """Per-token ``(term, idf)`` table, computed once per context.

        The table depends on the question's terms, so it cannot live on
        the compiled artifact directly; :meth:`CompiledContext.prep`
        memoizes it per (model, terms) instead.  Refit (:meth:`fit`)
        after serving traffic would stale those entries — fit before
        wiring the model into a pipeline.
        """
        if not profile.terms:
            return ()
        exact, stems = profile.exact, profile.stems
        table: list[tuple[str, float] | None] = []
        for tok in tokens:
            term = self.match_term(tok.lower, exact, stems) if tok.is_word else None
            table.append((term, self.idf(tok.lower)) if term is not None else None)
        return table

    def score_span_prepared(
        self,
        prep,
        profile: QuestionProfile,
        tokens: list[Token],
        start: int,
        end: int,
        bounds: tuple[int, int] | None = None,
    ) -> float:
        if not profile.terms:
            return 0.0
        lo_limit, hi_limit = bounds if bounds is not None else (0, len(tokens))
        lo = max(lo_limit, start - self.window)
        hi = min(hi_limit, end + self.window + 1)
        score = 0.0
        matched: set[str] = set()
        for idx in range(lo, hi):
            entry = prep[idx]
            if entry is None:
                continue
            term, weight = entry
            if start <= idx <= end:
                score -= 0.4 * weight
                continue
            distance = start - idx if idx < start else idx - end
            decayed = self.decay ** distance
            if term in profile.verbs:
                score += self.verb_term_boost * weight * decayed
            else:
                score += weight * (0.75 + 0.25 * decayed)
            matched.add(term)
        coverage = self._coverage(profile.terms, matched)
        score += 0.5 * coverage / max(1, len(profile.terms))
        return score
