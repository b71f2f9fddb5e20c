"""Compiled-context equivalence and cache behaviour.

The per-paragraph :class:`~repro.qa.compiled.CompiledContext` artifact
must be invisible to callers: predictions (and therefore clip searches
and full distillations) with the compiler on and off are bit-identical
for every span-scoring model, over randomized paragraphs that exercise
capitalized runs, numbers, hyphens, punctuation, and sentence breaks.
"""

from __future__ import annotations

import random

import pytest

from repro import GCED
from repro.core.config import GCEDConfig
from repro.qa.answer_types import AnswerType
from repro.qa.compiled import CompiledContext, ContextCompiler
from repro.qa.base import SpanScoringQA

from tests.conftest import QA_CASES

# Word soup covering every candidate-span extractor: capitalized runs
# (with "of"/"the" bridges), numbers with units, hyphen compounds,
# phrases, pronouns, punctuation, and sentence terminators.
_WORDS = [
    "Denver", "Broncos", "defeated", "the", "champion", "Battle", "of",
    "Hastings", "in", "1066", "Santa", "Clara", "stadium", "game", "won",
    "title", "a", "crowd", "50", "points", "nearly", "3.5", "percent",
    "Knowles-Carter", "performed", "various", "singing", "competitions",
    "she", "they", "history", "famous", "Norman", "conquest",
]
_PUNCT = [",", ".", "!", "?", ";"]

_QUESTIONS = [
    "Who won the battle?",                      # PERSON
    "Where was the game played?",               # PLACE
    "When was the Battle of Hastings?",         # NUMBER
    "Which team earned the title?",             # ENTITY
    "What did she perform in?",                 # ENTITY
    "Describe the famous conquest result",      # PHRASE
]


def _random_paragraph(rng: random.Random) -> str:
    parts: list[str] = []
    for _ in range(rng.randrange(8, 45)):
        parts.append(rng.choice(_WORDS))
        if rng.random() < 0.18:
            parts.append(rng.choice(_PUNCT))
    parts.append(".")
    return " ".join(parts)


def _all_models(artifacts):
    reader = artifacts.reader
    return [reader] + [model for model, _weight in reader.members]


@pytest.fixture()
def fresh_models(artifacts):
    """The four span-scoring models, compilers reset around each test."""
    models = _all_models(artifacts)
    saved = [m.__dict__.get("_context_compiler") for m in models]
    for model in models:
        model.context_compiler = ContextCompiler()
    yield models
    _restore_compilers(models, saved)


def _restore_compilers(models, saved) -> None:
    """Put back each model's saved compiler slot.

    A slot saved as None was never filled, so it is deleted rather than
    set to None: a None compiler would disable compilation for every
    later test sharing the session-scoped reader.
    """
    for model, compiler in zip(models, saved):
        if compiler is None:
            model.__dict__.pop("_context_compiler", None)
        else:
            model.context_compiler = compiler


class TestCompiledEquivalence:
    """Compiled-path predictions are bit-identical to the inline path."""

    def test_randomized_paragraphs_all_models(self, fresh_models):
        rng = random.Random(0)
        paragraphs = [_random_paragraph(rng) for _ in range(12)]
        for model in fresh_models:
            compiled = [
                model.predict(q, p) for q in _QUESTIONS for p in paragraphs
            ]
            model.context_compiler = None
            inline = [
                model.predict(q, p) for q in _QUESTIONS for p in paragraphs
            ]
            assert compiled == inline

    def test_predict_top_k_matches(self, fresh_models):
        rng = random.Random(1)
        paragraphs = [_random_paragraph(rng) for _ in range(6)]
        for model in fresh_models:
            compiled = [
                model.predict_top_k(q, p, k=4)
                for q in _QUESTIONS[:3]
                for p in paragraphs
            ]
            model.context_compiler = None
            inline = [
                model.predict_top_k(q, p, k=4)
                for q in _QUESTIONS[:3]
                for p in paragraphs
            ]
            assert compiled == inline

    def test_conftest_cases_match(self, fresh_models):
        for model in fresh_models:
            compiled = [model.predict(q, c) for q, _a, c in QA_CASES]
            model.context_compiler = None
            inline = [model.predict(q, c) for q, _a, c in QA_CASES]
            assert compiled == inline

    def test_empty_and_degenerate_contexts(self, fresh_models):
        for model in fresh_models:
            for context in ("", "   ", "...", "?"):
                with_compiler = model.predict("Who won?", context)
                model.context_compiler = None
                without = model.predict("Who won?", context)
                model.context_compiler = ContextCompiler()
                assert with_compiler == without


class TestDistillationEquivalence:
    """Full pipeline outputs are identical with the compiler on and off."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_distill_matches(self, artifacts, incremental):
        models = _all_models(artifacts)
        saved = [m.__dict__.get("_context_compiler") for m in models]
        config = GCEDConfig(incremental_scoring=incremental)
        try:
            for model in models:
                model.context_compiler = ContextCompiler()
            on = GCED(
                qa_model=artifacts.reader, artifacts=artifacts, config=config
            )
            with_compiler = [on.distill(*case) for case in QA_CASES]
            for model in models:
                model.context_compiler = None
            off = GCED(
                qa_model=artifacts.reader, artifacts=artifacts, config=config
            )
            without = [off.distill(*case) for case in QA_CASES]
        finally:
            _restore_compilers(models, saved)
        for r_on, r_off in zip(with_compiler, without):
            assert r_on.evidence == r_off.evidence
            assert r_on.scores == r_off.scores
            assert r_on.clip_trace == r_off.clip_trace


class TestCompiledContextTables:
    def test_span_sets_match_inline_derivation(self):
        from repro.qa.answer_types import candidate_spans
        from repro.text.tokenizer import tokenize

        rng = random.Random(2)
        for _ in range(10):
            text = _random_paragraph(rng)
            compiled = CompiledContext(text)
            tokens = tokenize(text)
            for answer_type in AnswerType:
                typed, spans = compiled.span_sets(answer_type)
                want_typed = set(candidate_spans(tokens, answer_type))
                want_spans = set(want_typed)
                if answer_type is AnswerType.ENTITY or not want_spans:
                    want_spans |= set(
                        candidate_spans(tokens, AnswerType.PHRASE)
                    )
                assert typed == want_typed
                assert spans == want_spans

    def test_capitalized_kinds_share_one_extraction(self):
        compiled = CompiledContext("Denver Broncos won the Battle of Hastings.")
        person = compiled.span_sets(AnswerType.PERSON)
        place = compiled.span_sets(AnswerType.PLACE)
        assert person[0] is place[0]  # same frozenset object, not a copy

    def test_sentence_bounds_and_tags_computed_once(self):
        compiled = CompiledContext("Denver won. The crowd cheered.")
        model_tagger = SpanScoringQA._tagger

        class CountingTagger:
            def __init__(self):
                self.calls = 0

            def tag(self, texts):
                self.calls += 1
                return model_tagger.tag(texts)

        tagger = CountingTagger()
        first = compiled.pos_tags(tagger)
        assert compiled.pos_tags(tagger) is first
        assert tagger.calls == 1
        bounds = compiled.sentence_bounds(SpanScoringQA)
        assert compiled.sentence_bounds(SpanScoringQA) is bounds
        assert bounds == SpanScoringQA.sentence_bounds(compiled.tokens)


class TestCompilerCache:
    def test_repeat_contexts_hit(self, artifacts):
        reader = artifacts.reader
        saved = reader.context_compiler
        try:
            reader.context_compiler = ContextCompiler()
            question, _answer, context = QA_CASES[0]
            reader.predict(question, context)
            snap1 = reader.context_compiler.snapshot()
            assert snap1.misses >= 1 and snap1.size >= 1
            # Same paragraph, different question: compiled tables reused.
            reader.predict("Where was the game played?", context)
            snap2 = reader.context_compiler.snapshot()
            assert snap2.hits > snap1.hits
            assert snap2.misses == snap1.misses
        finally:
            reader.context_compiler = saved

    def test_prep_memoized_per_question(self, artifacts):
        reader = artifacts.reader
        compiled = CompiledContext(QA_CASES[0][2])
        profile = reader._question_profile(QA_CASES[0][0])
        first = compiled.prep(reader, profile)
        assert compiled.prep(reader, profile) is first

    def test_informativeness_predictions_use_scratch_cache(self, artifacts):
        from repro.metrics.informativeness import InformativenessScorer

        reader = artifacts.reader
        saved = reader.context_compiler
        try:
            reader.context_compiler = ContextCompiler()
            scorer = InformativenessScorer(reader)
            # Candidate evidences are short-lived texts: they compile
            # into the scratch cache, never the paragraph-artifact LRU.
            scorer.score_batch(
                "Who won the game?",
                "the champion",
                [
                    "The champion won the game.",
                    "A crowd cheered in the stadium.",
                ],
            )
            scorer.score("Who won the game?", "the champion", "Denver won.")
            compiler = reader.context_compiler
            assert compiler.snapshot().size == 0
            assert compiler.scratch.snapshot().size == 3
            # The same candidate text for another question of the shared
            # paragraph reuses the scratch artifact.
            scorer.score("Who lost the game?", "Denver", "Denver won.")
            assert compiler.scratch.snapshot().hits > 0
            # Transient probes leave the paragraph cache's counters
            # untouched (they peek), so the /stats hit rate reflects
            # real paragraph traffic only.
            assert compiler.snapshot().hits == 0
            assert compiler.snapshot().misses == 0
            # Ordinary predictions still compile into the main cache.
            reader.predict("Who won the game?", "The champion won the game.")
            assert compiler.snapshot().size == 1
        finally:
            reader.context_compiler = saved

    def test_count_bound_keeps_lru_order(self, artifacts):
        compiler = ContextCompiler(capacity=4)
        rng = random.Random(3)
        paragraphs = [_random_paragraph(rng) for _ in range(6)]
        for text in paragraphs:
            compiler.compile(text)
        assert [key for key, _v in compiler.cache.items()] == paragraphs[2:]
        # Lazy tables filling in never evict: growth is not a bound.
        reader = artifacts.reader
        saved, reader.context_compiler = reader.context_compiler, compiler
        try:
            for text in paragraphs[2:]:
                reader.predict("Who won the Battle of Hastings?", text)
        finally:
            reader.context_compiler = saved
        assert [key for key, _v in compiler.cache.items()] == paragraphs[2:]
        assert compiler.cache.items()[0][1]._preps


# ------------------------------------------------------- ASE sentence artifacts


class TestASECompiledSentences:
    def test_sentences_memoized_on_compiled_context(self, gced):
        question, answer, context = QA_CASES[0]
        compiled = gced.qa_model.compiled_context(context)
        first = compiled.sentences()
        assert compiled.sentences() is first
        result = gced.ase.extract(question, answer, context)
        assert result.sentences  # artifact-backed split produced output
        # The per-question sentence prediction batch is memoized too.
        assert question in compiled._sentence_preds
        calls = []
        preds = compiled.sentence_predictions(
            question, lambda: calls.append(1) or ()
        )
        assert calls == []  # factory not invoked on the memo hit
        assert len(preds) == len(first)
