"""TF-IDF weighted span scorer.

Like :class:`repro.qa.lexical.LexicalOverlapQA` but each matched question
term is weighted by its corpus inverse document frequency, so rare,
discriminative terms ("Hastings") dominate frequent ones ("battle").
Fitting the IDF table on the training split is this model's "fine-tuning".
"""

from __future__ import annotations

from bisect import bisect_left
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
        """The sorted hit list ``(positions, terms, idf)`` of
        :meth:`question_hits`, plus each hit token's IDF weight.

        The hits depend on the question's terms, so they cannot live on
        the compiled artifact directly; :meth:`CompiledContext.prep`
        memoizes them per (model, terms) instead.  Refit (:meth:`fit`)
        after serving traffic would stale those entries — fit before
        wiring the model into a pipeline.
        """
        positions, terms = self.question_hits(profile, tokens, compiled)
        return positions, terms, [self.idf(tokens[i].lower) for i in positions]

    def score_spans(self, prep, profile, tokens, spans, bounds) -> list[float]:
        """Each span bisects to the hits inside its window and replays
        :meth:`score_span`'s arithmetic over them in token order; the
        coverage sum reads one ``(term, idf)`` list in question order."""
        if prep is None:
            return super().score_spans(prep, profile, tokens, spans, bounds)
        positions, terms, weights = prep
        verbs, window, decay = profile.verbs, self.window, self.decay
        cover = [(t, self.idf(t)) for t in dict.fromkeys(profile.terms)]
        n_terms = max(1, len(profile.terms))
        scores = []
        for (start, end), (lo_limit, hi_limit) in zip(spans, bounds):
            score = 0.0
            matched: set[str] = set()
            for k in range(
                bisect_left(positions, max(lo_limit, start - window)),
                bisect_left(positions, min(hi_limit, end + window + 1)),
            ):
                idx, weight = positions[k], weights[k]
                if start <= idx <= end:
                    score -= 0.4 * weight
                    continue
                term = terms[k]
                distance = start - idx if idx < start else idx - end
                decayed = decay**distance
                if term in verbs:
                    score += self.verb_term_boost * weight * decayed
                else:
                    score += weight * (0.75 + 0.25 * decayed)
                matched.add(term)
            coverage = sum(w for t, w in cover if t in matched)
            score += 0.5 * coverage / n_terms
            scores.append(score)
        return scores
