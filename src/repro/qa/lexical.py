"""Lexical-overlap QA: proximity-weighted question-term matching.

The simplest real extractive reader: a candidate span is good if many
question terms occur near it.  Term influence decays with token distance,
so answers inside the sentence that restates the question outrank the
same-type spans in distractor sentences — the property ASE and the
informativeness metric rely on.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.qa.base import QuestionProfile, SpanScoringQA
from repro.text.tokenizer import Token

__all__ = ["LexicalOverlapQA"]


class LexicalOverlapQA(SpanScoringQA):
    """Proximity-decay lexical matcher.

    Args:
        decay: per-token multiplicative decay of a matched term's influence.
        window: maximum distance (tokens) at which a match still counts.
    """

    name = "lexical-overlap"

    def __init__(self, decay: float = 0.85, window: int = 25) -> None:
        if not (0.0 < decay < 1.0):
            raise ValueError("decay must be in (0, 1)")
        self.decay = decay
        self.window = window

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
        span_range = range(
            max(lo_limit, start - self.window),
            min(hi_limit, end + self.window + 1),
        )
        score = 0.0
        matched: set[str] = set()
        for idx in span_range:
            token = tokens[idx]
            if not token.is_word:
                continue
            term = self.match_term(token.lower, exact, stems)
            if term is None:
                continue
            if start <= idx <= end:
                # Answers rarely restate the question's own words; a span
                # *containing* question terms is likely the question's echo
                # in the context, not the answer.
                score -= 0.4
                continue
            distance = start - idx if idx < start else idx - end
            decayed = self.decay ** distance
            if term in verbs:
                # Verb matches anchor the answer position: full decay.
                score += self.verb_term_boost * decayed
            else:
                # Noun/entity matches mostly locate the right clause;
                # within the sentence their exact distance matters little.
                score += 0.75 + 0.25 * decayed
            matched.add(term)
        # Coverage bonus: spans near *distinct* question terms beat spans
        # near repeated occurrences of one term.
        score += 0.5 * len(matched)
        return score

    # ------------------------------------------------- prepared scoring path
    def span_prep(
        self, profile: QuestionProfile, tokens: list[Token], compiled=None
    ):
        """The sorted hit list ``(positions, terms)`` of
        :meth:`question_hits`: the per-span ``match_term`` outcomes,
        hoisted to one O(n) pass per context."""
        return self.question_hits(profile, tokens, compiled)

    def score_spans(self, prep, profile, tokens, spans, bounds) -> list[float]:
        """Each span bisects to the hits inside its window and replays
        :meth:`score_span`'s arithmetic over them in token order."""
        if prep is None:
            return super().score_spans(prep, profile, tokens, spans, bounds)
        positions, terms = prep
        verbs, window, decay = profile.verbs, self.window, self.decay
        scores = []
        for (start, end), (lo_limit, hi_limit) in zip(spans, bounds):
            score = 0.0
            matched: set[str] = set()
            for k in range(
                bisect_left(positions, max(lo_limit, start - window)),
                bisect_left(positions, min(hi_limit, end + window + 1)),
            ):
                idx = positions[k]
                if start <= idx <= end:
                    score -= 0.4
                    continue
                term = terms[k]
                distance = start - idx if idx < start else idx - end
                decayed = decay**distance
                if term in verbs:
                    score += self.verb_term_boost * decayed
                else:
                    score += 0.75 + 0.25 * decayed
                matched.add(term)
            score += 0.5 * len(matched)
            scores.append(score)
        return scores
