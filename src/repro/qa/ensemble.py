"""Weighted ensemble of span-scoring QA models.

The registry's "strong" baselines combine lexical, TF-IDF and embedding
signals; weights are per-member multipliers applied to (roughly
score-normalized) member outputs.
"""

from __future__ import annotations

from repro.qa.base import QuestionProfile, SpanScoringQA
from repro.text.tokenizer import Token

__all__ = ["EnsembleQA"]


class EnsembleQA(SpanScoringQA):
    """Linear combination of member span scores.

    Args:
        members: ``(model, weight)`` pairs; every model must be a
            :class:`SpanScoringQA` so spans are scored consistently.
    """

    name = "ensemble"

    def __init__(self, members: list[tuple[SpanScoringQA, float]]) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member")
        for model, weight in members:
            if not isinstance(model, SpanScoringQA):
                raise TypeError(f"{model!r} is not a SpanScoringQA")
            if weight < 0:
                raise ValueError("member weights must be non-negative")
        self.members = list(members)

    def score_span(
        self,
        question_terms: list[str],
        tokens: list[Token],
        start: int,
        end: int,
        bounds: tuple[int, int] | None = None,
    ) -> float:
        return sum(
            weight * model.score_span(question_terms, tokens, start, end, bounds)
            for model, weight in self.members
        )

    # ------------------------------------------------- prepared scoring path
    def span_prep(
        self, profile: QuestionProfile, tokens: list[Token], compiled=None
    ):
        """The members' preps, in member order.

        ``compiled`` passes through to the members, so question-shared
        artifacts (the embedding member's context matrix) are derived
        once per paragraph even though the ensemble-level prep is
        memoized per question.
        """
        return [
            model.span_prep(profile, tokens, compiled=compiled)
            for model, _weight in self.members
        ]

    def score_spans(self, prep, profile, tokens, spans, bounds) -> list[float]:
        """One :meth:`score_spans` call per member, then :meth:`score_span`'s
        weighted sum per span, in member order."""
        if prep is None:
            return super().score_spans(prep, profile, tokens, spans, bounds)
        columns = [
            model.score_spans(member_prep, profile, tokens, spans, bounds)
            for (model, _weight), member_prep in zip(self.members, prep)
        ]
        weights = [weight for _model, weight in self.members]
        return [
            sum(weight * score for weight, score in zip(weights, row))
            for row in zip(*columns)
        ]
