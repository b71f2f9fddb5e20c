"""QA model interface and the shared span-scoring harness.

Mirrors Step 1-2 of Sec. II-B1: the model receives a question and a text
(full context, single sentences during ASE, or a candidate evidence during
hybrid scoring) and returns the best answer span with a confidence score.
"""

from __future__ import annotations

import abc
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Sequence

from repro.parsing.pos import PosTagger, VERB_LEXICON
from repro.qa.answer_types import AnswerType, candidate_spans, classify_question
from repro.qa.compiled import CompiledContext, ContextCompiler, word_lowers
from repro.text.stem import light_stem
from repro.text.tokenizer import Token, tokenize
from repro.lexicon.stopwords import is_insignificant
from repro.utils.cache import MISSING, memoize_method

__all__ = ["AnswerPrediction", "QAModel", "QuestionProfile", "SpanScoringQA"]

# Process-wide identity sequence for compiled-prep cache keys, and the
# lock that makes lazily installed per-instance state single-assignment
# across concurrent threads.
_PREP_KEYS = itertools.count()
_INSTALL_LOCK = threading.Lock()


@dataclass(frozen=True)
class AnswerPrediction:
    """A predicted answer span.

    Attributes:
        text: surface answer string (as it appears in the context).
        start: character offset of the span start in the context.
        end: character offset one past the span end.
        score: model confidence (higher is better; scale is model-specific).
    """

    text: str
    start: int
    end: int
    score: float

    @classmethod
    def empty(cls) -> "AnswerPrediction":
        """The no-answer prediction (used for unanswerable questions)."""
        return cls(text="", start=0, end=0, score=float("-inf"))

    @property
    def is_empty(self) -> bool:
        return not self.text


class QAModel(abc.ABC):
    """Interface every answer predictor implements."""

    name: str = "qa-model"

    @abc.abstractmethod
    def predict(self, question: str, context: str) -> AnswerPrediction:
        """Predict the best answer span for ``question`` in ``context``."""

    def predict_batch(
        self, question: str, contexts: Sequence[str]
    ) -> list[AnswerPrediction]:
        """Predictions for one question over many candidate texts.

        The contract is *exact* equivalence with calling :meth:`predict`
        once per context; the batch entry point exists so callers (the
        clip search, ASE sentence ranking) can issue one call per
        iteration and models can amortize question-side work across the
        batch.  The default simply loops.
        """
        return [self.predict(question, context) for context in contexts]

    def predict_top_k(
        self, question: str, context: str, k: int = 5
    ) -> list[AnswerPrediction]:
        """Best ``k`` non-overlapping predictions; default returns just one."""
        return [self.predict(question, context)]


@dataclass(frozen=True)
class QuestionProfile:
    """Question-side artifacts shared by every span scored for a question.

    Everything here is a pure function of the question string, so one
    profile is computed per question (LRU-cached per model) instead of
    once per candidate span — the clip search scores hundreds of spans
    per question and used to rebuild these maps for each one.
    """

    terms: tuple[str, ...]
    exact: dict[str, str]
    stems: dict[str, str]
    verbs: frozenset[str]
    answer_type: AnswerType


class SpanScoringQA(QAModel):
    """Shared machinery: enumerate typed candidate spans, score, argmax.

    Subclasses implement :meth:`score_span`.  Scores combine with a small
    length penalty so that, all else equal, tighter spans win — the same
    inductive bias extractive PLM heads acquire from SQuAD training.

    Context-side work (tokenization, POS tags, sentence bounds, typed
    candidate-span sets, the :meth:`span_prep` hit lists) routes through a
    per-paragraph :class:`~repro.qa.compiled.CompiledContext` artifact
    cached in :attr:`context_compiler`, so repeated predictions against
    the same paragraph — several questions per SQuAD context, ASE
    re-asks, open-context traffic — derive them once.  Set
    ``model.context_compiler = None`` to force the inline derivation
    (used by the equivalence tests and the prepared-vs-compiled
    micro-benchmark); outputs are bit-identical either way.
    """

    length_penalty: float = 0.05

    # ------------------------------------------------- compiled-context hook
    @property
    def prep_key(self) -> int:
        """Stable per-instance identity for compiled-prep cache keys."""
        key = self.__dict__.get("_prep_key")
        if key is None:
            with _INSTALL_LOCK:
                key = self.__dict__.get("_prep_key")
                if key is None:
                    key = self.__dict__["_prep_key"] = next(_PREP_KEYS)
        return key

    @property
    def context_compiler(self) -> ContextCompiler | None:
        """The model's compiled-context cache (lazily created).

        Assign ``None`` to disable compiled-context reuse, or share one
        :class:`ContextCompiler` across models explicitly.
        """
        compiler = self.__dict__.get("_context_compiler", MISSING)
        if compiler is MISSING:
            with _INSTALL_LOCK:
                compiler = self.__dict__.get("_context_compiler", MISSING)
                if compiler is MISSING:
                    compiler = ContextCompiler()
                    self.__dict__["_context_compiler"] = compiler
        return compiler

    @context_compiler.setter
    def context_compiler(self, value: ContextCompiler | None) -> None:
        self.__dict__["_context_compiler"] = value

    def compiled_context(self, context: str) -> CompiledContext | None:
        """Compile (or fetch) ``context``; None when the compiler is off.

        The compiler routes short-lived texts (predictions made under
        :meth:`ContextCompiler.transient`, e.g. the informativeness
        scorer's candidate evidences) to its scratch cache so they never
        evict paragraph artifacts.
        """
        compiler = self.context_compiler
        if compiler is None:
            return None
        return compiler.compile(context)

    def question_terms(self, question: str) -> list[str]:
        """Significant (non-stopword) lowercased question terms."""
        return [
            t.lower for t in tokenize(question) if t.is_word and not is_insignificant(t.text)
        ]

    # Matched question verbs anchor the answer more strongly than matched
    # entities ("Beyonce *performed* in X" — X is near the verb, while many
    # irrelevant spans sit near the entity mention).
    verb_term_boost: float = 1.6

    @staticmethod
    def term_index(
        question_terms: list[str],
    ) -> tuple[dict[str, str], dict[str, str], frozenset[str]]:
        """Build (exact map, stem map, verb-term set) for fast matching.

        Both maps send a surface key to the canonical question term, so the
        caller can track *distinct* matched terms for coverage bonuses.
        """
        exact = {t: t for t in question_terms}
        stems = {light_stem(t): t for t in question_terms}
        verbs = frozenset(
            t for t in question_terms
            if t in VERB_LEXICON or light_stem(t) in VERB_LEXICON
        )
        return exact, stems, verbs

    @staticmethod
    def match_term(
        token_lower: str,
        exact: dict[str, str],
        stems: dict[str, str],
    ) -> str | None:
        """The question term matched by a context token, or None."""
        if token_lower in exact:
            return exact[token_lower]
        return stems.get(light_stem(token_lower))

    def question_hits(
        self,
        profile: QuestionProfile,
        tokens: list[Token],
        compiled: CompiledContext | None = None,
    ) -> tuple[list[int], list[str]]:
        """The sorted question-term hit list of ``tokens``.

        Returns ``(positions, terms)``: ascending indexes of the word
        tokens that :meth:`match_term` maps to a question term, and that
        term for each.  Span windows bisect into it, so a span visits
        only its hits instead of scanning every token of its window.
        """
        positions: list[int] = []
        terms: list[str] = []
        if profile.terms:
            lowers = (
                word_lowers(tokens) if compiled is None else compiled.word_lowers()
            )
            exact, stems = profile.exact, profile.stems
            for i, lower in enumerate(lowers):
                if lower is not None:
                    term = self.match_term(lower, exact, stems)
                    if term is not None:
                        positions.append(i)
                        terms.append(term)
        return positions, terms

    @memoize_method(maxsize=512)
    def _question_profile(self, question: str) -> QuestionProfile:
        """The cached :class:`QuestionProfile` for ``question``."""
        terms = tuple(self.question_terms(question))
        exact, stems, verbs = self.term_index(list(terms))
        return QuestionProfile(
            terms=terms,
            exact=exact,
            stems=stems,
            verbs=verbs,
            answer_type=classify_question(question),
        )

    # ------------------------------------------------- prepared span scoring
    def span_prep(
        self,
        profile: QuestionProfile,
        tokens: list[Token],
        compiled: CompiledContext | None = None,
    ) -> Any:
        """Per-(question, context) precomputation for span scoring.

        Subclasses return an opaque object (sorted question-term hit
        lists, embedding matrices, ...) that :meth:`score_spans`
        consumes; every span of the context then shares one O(n) pass
        instead of each paying it.  Returning ``None`` (the default)
        routes every span through the generic :meth:`score_span`, so
        subclasses that only implement ``score_span`` keep their exact
        behaviour.  When ``compiled`` is given, question-independent
        pieces may be memoized on it via :meth:`CompiledContext.derive`
        so different questions against the same paragraph share them.
        """
        return None

    def score_spans(
        self,
        prep: Any,
        profile: QuestionProfile,
        tokens: list[Token],
        spans: Sequence[tuple[int, int]],
        bounds: Sequence[tuple[int, int]],
    ) -> list[float]:
        """Scores of every ``(start, end)`` span, one call per context.

        ``bounds[i]`` is span ``i``'s sentence range (see
        :meth:`score_span`).  Overrides consume their own
        :meth:`span_prep` output and must return exactly
        ``[score_span(terms, tokens, start, end, bounds=b) ...]``, bit
        for bit; this default is that loop, and a ``None`` prep routes
        any override back to it.
        """
        terms = list(profile.terms)
        return [
            self.score_span(terms, tokens, start, end, bounds=bound)
            for (start, end), bound in zip(spans, bounds)
        ]

    @abc.abstractmethod
    def score_span(
        self,
        question_terms: list[str],
        tokens: list[Token],
        start: int,
        end: int,
        bounds: tuple[int, int] | None = None,
    ) -> float:
        """Score the candidate span ``tokens[start..end]`` (inclusive).

        ``bounds`` restricts question-term matching to the token range of
        the span's own sentence — question words in a *neighbouring*
        sentence are not evidence for this span.
        """

    @staticmethod
    def sentence_bounds(tokens: list[Token]) -> list[tuple[int, int]]:
        """Per-token (start, end-exclusive) bounds of the containing sentence."""
        bounds: list[tuple[int, int]] = [None] * len(tokens)  # type: ignore[list-item]
        start = 0
        for i, tok in enumerate(tokens):
            if tok.text in (".", "!", "?"):
                for k in range(start, i + 1):
                    bounds[k] = (start, i + 1)
                start = i + 1
        for k in range(start, len(tokens)):
            bounds[k] = (start, len(tokens))
        return bounds

    # Prior for typed (capitalized / numeric) candidates over generic
    # phrase spans, and bonus for spans in subject position before a verb.
    typed_prior: float = 0.5
    subject_bonus: float = 1.2
    _tagger = PosTagger()
    _NOUNISH_TAGS = frozenset({"NN", "NNS", "NNP", "CD", "VBG"})
    _BAD_START_TAGS = frozenset({"CC", "IN", "TO", "PUNCT", "POS"})

    def _is_verb(self, token: Token) -> bool:
        lower = token.lower
        if lower in VERB_LEXICON:
            return True
        return lower.endswith("ed") and len(lower) > 4

    def _ranked_spans(
        self, question: str, context: str
    ) -> tuple[list[Token], list[tuple[float, int, int]]]:
        compiled = self.compiled_context(context)
        tokens = compiled.tokens if compiled is not None else tokenize(context)
        if not tokens:
            return tokens, []
        profile = self._question_profile(question)
        answer_type = profile.answer_type
        if compiled is not None:
            typed, spans = compiled.span_sets(answer_type)
            prep = compiled.prep(self, profile)
            sent_bounds = compiled.sentence_bounds(self)
            tags = compiled.pos_tags(self._tagger)
        else:
            typed = set(candidate_spans(tokens, answer_type))
            spans = set(typed)
            if answer_type is AnswerType.ENTITY or not spans:
                # "what/which" answers are frequently common-noun phrases
                # that the capitalized-run extractor cannot produce.
                spans |= set(candidate_spans(tokens, AnswerType.PHRASE))
            prep = self.span_prep(profile, tokens)
            sent_bounds = self.sentence_bounds(tokens)
            tags = self._tagger.tag([t.text for t in tokens])
        entity_like = answer_type in (
            AnswerType.PERSON,
            AnswerType.PLACE,
            AnswerType.ENTITY,
        )
        spans = list(spans)
        last = len(tokens) - 1
        bounds = [
            (sent_bounds[start][0], sent_bounds[min(end, last)][1])
            for start, end in spans
        ]
        raws = self.score_spans(prep, profile, tokens, spans, bounds)
        scored = []
        for (start, end), raw in zip(spans, raws):
            raw -= self.length_penalty * (end - start)
            if (start, end) in typed:
                raw += self.typed_prior
                if (
                    entity_like
                    and end + 1 < len(tokens)
                    and self._is_verb(tokens[end + 1])
                ):
                    # Subject preference: "which team ...?" answers sit
                    # before the predicate ("Denver Broncos defeated ...").
                    raw += self.subject_bonus
            else:
                if entity_like:
                    # Generic phrase spans are a fallback for entity
                    # questions.
                    raw -= 0.4
                # Completeness prior: answers are (close to) constituents —
                # a span ending mid-phrase ("various", "singing and") or
                # starting on a conjunction is rarely a full answer.
                if tags[end] not in self._NOUNISH_TAGS:
                    raw -= 0.6
                if tags[start] in self._BAD_START_TAGS:
                    raw -= 0.3
                # Ending mid-noun-phrase ("various singing" of "various
                # singing and dancing competitions") is also incomplete.
                nxt = end + 1
                if nxt < len(tokens) and tags[nxt] == "CC" and nxt + 1 < len(
                    tokens
                ) and tags[nxt + 1] in self._NOUNISH_TAGS:
                    raw -= 0.5
                elif nxt < len(tokens) and tags[nxt] in self._NOUNISH_TAGS:
                    raw -= 0.5
            scored.append((raw, start, end))
        scored.sort(key=lambda item: (-item[0], item[1], item[2]))
        return tokens, scored

    def predict(self, question: str, context: str) -> AnswerPrediction:
        # The final prediction is a pure function of (trained model,
        # question, context), so the compiled context memoizes it whole:
        # ASE's subset loop repeats the same (question, text) pairs, and
        # a memo hit skips span scoring.
        compiled = self.compiled_context(context)
        if compiled is not None:
            return compiled.prediction(
                self.name, question, lambda: self._predict_direct(question, context)
            )
        return self._predict_direct(question, context)

    def _predict_direct(self, question: str, context: str) -> AnswerPrediction:
        tokens, scored = self._ranked_spans(question, context)
        if not scored:
            return AnswerPrediction.empty()
        score, start, end = scored[0]
        return AnswerPrediction(
            text=context[tokens[start].start : tokens[end].end],
            start=tokens[start].start,
            end=tokens[end].end,
            score=score,
        )

    # predict_batch: the inherited serial loop is already amortized here —
    # every predict shares the memoized QuestionProfile and pays span
    # scoring through one score_spans call per context, so question-side
    # work is hoisted whether calls arrive one at a time or as a batch.

    def predict_top_k(
        self, question: str, context: str, k: int = 5
    ) -> list[AnswerPrediction]:
        tokens, scored = self._ranked_spans(question, context)
        results: list[AnswerPrediction] = []
        taken: list[tuple[int, int]] = []
        for score, start, end in scored:
            if any(not (end < s or start > e) for s, e in taken):
                continue
            results.append(
                AnswerPrediction(
                    text=context[tokens[start].start : tokens[end].end],
                    start=tokens[start].start,
                    end=tokens[end].end,
                    score=score,
                )
            )
            taken.append((start, end))
            if len(results) == k:
                break
        return results
