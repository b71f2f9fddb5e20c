"""Unit tests for the QA substrate: typing, scorers, ensemble, registry."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.qa import (
    AnswerType,
    EnsembleQA,
    LexicalOverlapQA,
    TfidfQA,
    classify_question,
    candidate_spans,
)
from repro.qa.base import AnswerPrediction, SpanScoringQA
from repro.qa.compiled import ContextCompiler
from repro.qa.embedding import EmbeddingQA
from repro.qa.registry import (
    SQUAD_BASELINES,
    TRIVIAQA_BASELINES,
    SimulatedBaseline,
    build_baseline,
)
from repro.text.tokenizer import tokenize
from tests.conftest import CORPUS, QA_CASES
from tests.oracle import oracle_predict_top_k, oracle_ranked_spans


class TestClassifyQuestion:
    @pytest.mark.parametrize(
        "question,expected",
        [
            ("Who led the conquest?", AnswerType.PERSON),
            ("Where was she born?", AnswerType.PLACE),
            ("When was the battle?", AnswerType.NUMBER),
            ("How many people attended?", AnswerType.NUMBER),
            ("Which team won the title?", AnswerType.ENTITY),
            ("Name the thing.", AnswerType.PHRASE),
        ],
    )
    def test_types(self, question, expected):
        assert classify_question(question) == expected


class TestCandidateSpans:
    def test_number_spans(self):
        tokens = tokenize("The battle was fought in 1066 with 7,000 men.")
        spans = candidate_spans(tokens, AnswerType.NUMBER)
        surfaces = {" ".join(t.text for t in tokens[s : e + 1]) for s, e in spans}
        assert "1066" in surfaces
        assert "7,000" in surfaces

    def test_entity_runs(self):
        tokens = tokenize("champion Denver Broncos defeated Carolina Panthers")
        spans = candidate_spans(tokens, AnswerType.PERSON)
        surfaces = {" ".join(t.text for t in tokens[s : e + 1]) for s, e in spans}
        assert "Denver Broncos" in surfaces
        assert "Carolina Panthers" in surfaces

    def test_of_bridge(self):
        tokens = tokenize("He won the Battle of Hastings easily.")
        spans = candidate_spans(tokens, AnswerType.ENTITY)
        surfaces = {" ".join(t.text for t in tokens[s : e + 1]) for s, e in spans}
        assert "Battle of Hastings" in surfaces

    def test_pronoun_excluded(self):
        tokens = tokenize("She performed in competitions.")
        spans = candidate_spans(tokens, AnswerType.PERSON)
        surfaces = {" ".join(t.text for t in tokens[s : e + 1]) for s, e in spans}
        assert "She" not in surfaces

    def test_phrase_anchored_on_content(self):
        tokens = tokenize("the battle of the river")
        spans = candidate_spans(tokens, AnswerType.PHRASE)
        for s, e in spans:
            assert tokens[s].lower not in ("the", "of")
            assert tokens[e].lower not in ("the", "of")

    def test_empty_tokens(self):
        assert candidate_spans([], AnswerType.PHRASE) == []


class TestReaders:
    def test_lexical_predicts_case(self, artifacts):
        qa = LexicalOverlapQA()
        pred = qa.predict(
            "Who led the Norman conquest of England?", CORPUS[2]
        )
        assert "William" in pred.text

    def test_ensemble_predicts_all_cases(self, artifacts):
        correct = 0
        for question, answer, context in QA_CASES:
            pred = artifacts.reader.predict(question, context)
            from repro.metrics import f1_score

            if f1_score(pred.text, answer) > 0.6:
                correct += 1
        assert correct >= len(QA_CASES) - 1

    def test_empty_context(self, artifacts):
        pred = artifacts.reader.predict("Who?", "")
        assert pred.is_empty

    def test_top_k_non_overlapping(self, artifacts):
        preds = artifacts.reader.predict_top_k(
            "Which NFL team won the Super Bowl title?", CORPUS[0], k=3
        )
        assert len(preds) >= 2
        for i, a in enumerate(preds):
            for b in preds[i + 1 :]:
                assert a.end <= b.start or b.end <= a.start

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            LexicalOverlapQA(decay=1.5)

    def test_tfidf_unfitted_default(self):
        qa = TfidfQA()
        assert qa.idf("anything") == 1.0

    def test_tfidf_fit_rare_beats_common(self):
        qa = TfidfQA().fit(["the cat sat", "the dog ran", "the bird Hastings"])
        assert qa.idf("hastings") > qa.idf("the")

    def test_tfidf_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfidfQA().fit([])

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            EnsembleQA([])
        with pytest.raises(ValueError):
            EnsembleQA([(LexicalOverlapQA(), -1.0)])


# Scores every span (up to 3 tokens) of 40 squad11 paragraphs on both
# TF-IDF scoring paths and prints one digest of the exact float bits.
_TFIDF_DIGEST_SCRIPT = """
import hashlib
from repro.datasets import load_dataset
from repro.qa.tfidf import TfidfQA
from repro.text.tokenizer import tokenize
ds = load_dataset("squad11", seed=1, n_train=40, n_dev=20)
qa = TfidfQA().fit(ds.contexts())
digest = hashlib.sha256()
for ex in ds.train[:40]:
    profile = qa._question_profile(ex.question)
    tokens = tokenize(ex.context)
    prep = qa.span_prep(profile, tokens)
    spans = [
        (start, end)
        for start in range(len(tokens))
        for end in range(start, min(start + 3, len(tokens)))
    ]
    whole = [(0, len(tokens))] * len(spans)
    fast = qa.score_spans(prep, profile, tokens, spans, whole)
    for (start, end), b in zip(spans, fast):
        a = qa.score_span(list(profile.terms), tokens, start, end)
        assert a == b, (a, b)
        digest.update(a.hex().encode())
print(digest.hexdigest())
"""


class TestTfidfHashSeed:
    def test_scores_do_not_depend_on_string_hashing(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            done = subprocess.run(
                [sys.executable, "-c", _TFIDF_DIGEST_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout.strip())
        assert len(digests) == 1


# Paragraph soup: capitalized runs with "of"/"the" bridges, numbers with
# units, hyphen compounds, pronouns, conjunctions, punctuation and
# sentence breaks, so every candidate-span extractor and span prior
# fires.  No word is a question-type cue, so the question's leading cue
# alone fixes its AnswerType.
_SOUP_WORDS = [
    "Denver", "Broncos", "defeated", "the", "champion", "Battle", "of",
    "Hastings", "in", "1066", "Santa", "Clara", "stadium", "game", "won",
    "title", "a", "crowd", "50", "points", "3.5", "Knowles-Carter",
    "performed", "various", "singing", "and", "dancing", "competitions",
    "she", "they", "Norman", "conquest", "born", "raised", "Houston",
    "Texas", "led", "England", "comet", "discovered", "Super", "Bowl",
]
_SOUP = _SOUP_WORDS + [",", ".", "!", "?", ";", "%", "-"]
_TYPE_CUES = {
    AnswerType.PERSON: "Who",
    AnswerType.PLACE: "Where",
    AnswerType.NUMBER: "When",
    AnswerType.ENTITY: "Which",
    AnswerType.PHRASE: "Describe",
}


class _ScoreSpanOnlyReader(SpanScoringQA):
    """A reader implementing only the generic ``score_span`` hook."""

    name = "score-span-only"

    def score_span(self, question_terms, tokens, start, end, bounds=None):
        lo, hi = bounds if bounds is not None else (0, len(tokens))
        terms = set(question_terms)
        score = 0.0
        for idx in range(max(lo, start - 8), min(hi, end + 9)):
            if tokens[idx].lower in terms and not start <= idx <= end:
                score += 0.9 ** abs(idx - start)
        return score


def _narrow_window_models(artifacts) -> list[SpanScoringQA]:
    """The three member readers with 2-token windows.

    The shipped windows (12 and 25 tokens) rarely bind inside a short
    sentence, so these make every window edge, not only sentence
    bounds, clip the scored hits and embedding rows.
    """
    return [
        LexicalOverlapQA(window=2),
        TfidfQA(window=2).fit(CORPUS),
        EmbeddingQA(artifacts.embeddings, window=2),
    ]


class TestSpanScoringOracle:
    """``_ranked_spans`` and ``predict_top_k`` equal the per-span oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        answer_type=st.sampled_from(list(AnswerType)),
        question_words=st.lists(st.sampled_from(_SOUP_WORDS), max_size=5),
        paragraph=st.lists(st.sampled_from(_SOUP), max_size=45),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_matches_oracle(
        self, artifacts, answer_type, question_words, paragraph, k
    ):
        question = " ".join([_TYPE_CUES[answer_type], *question_words]) + "?"
        assert classify_question(question) is answer_type
        context = " ".join(paragraph)
        reader = artifacts.reader
        models = [
            reader,
            *(m for m, _w in reader.members),
            _ScoreSpanOnlyReader(),
            *_narrow_window_models(artifacts),
        ]
        for model in models:
            want = oracle_ranked_spans(model, question, context)
            want_top = oracle_predict_top_k(model, question, context, k)
            saved = model.__dict__.get("_context_compiler")
            try:
                for compiler in (ContextCompiler(), None):
                    model.context_compiler = compiler
                    assert model._ranked_spans(question, context)[1] == want
                    assert model.predict_top_k(question, context, k) == want_top
            finally:
                if saved is None:
                    model.__dict__.pop("_context_compiler", None)
                else:
                    model.context_compiler = saved


class TestEmbeddingQuestionMemo:
    def test_question_vectors_are_bounded_and_exact(self):
        embeddings = CooccurrenceEmbeddings(dim=8).fit(
            [sentence.split() for sentence in CORPUS]
        )
        qa = EmbeddingQA(embeddings)
        words = sorted(embeddings._index)
        term_tuples = [
            (words[i % len(words)], words[(7 * i + 3) % len(words)], f"q{i}")
            for i in range(600)
        ]
        for terms in term_tuples:
            assert np.array_equal(
                qa._question_vector(terms), qa._mean_vector(list(terms))
            )
        memo = qa._memo__question_vector
        assert len(memo) <= 512


class TestSimulatedBaseline:
    @pytest.fixture(scope="class")
    def model(self, artifacts):
        triples = [(q, c, a) for q, a, c in QA_CASES]
        return build_baseline("BERT-large", "squad11", artifacts.reader, triples)

    def test_known_specs(self):
        assert len(SQUAD_BASELINES) == 9
        assert len(TRIVIAQA_BASELINES) == 9

    def test_unknown_name_rejected(self, artifacts):
        with pytest.raises(KeyError):
            build_baseline("GPT-9", "squad11", artifacts.reader, [])

    def test_difficulty_drops_on_evidence(self, model):
        question, answer, context = QA_CASES[0]
        evidence = "The Denver Broncos defeated the Panthers to earn the Super Bowl title."
        assert model.difficulty(question, evidence, answer) <= model.difficulty(
            question, context, answer
        )

    def test_p_correct_monotone_in_skill(self, model):
        question, answer, context = QA_CASES[0]
        low = SimulatedBaseline(model.spec, model.reader, skill=0.5)
        high = SimulatedBaseline(model.spec, model.reader, skill=50.0)
        assert low.p_correct(question, context, answer) < high.p_correct(
            question, context, answer
        )

    def test_predict_example_deterministic(self, model):
        question, answer, context = QA_CASES[0]
        p1 = model.predict_example(question, context, answer, "ex1")
        p2 = model.predict_example(question, context, answer, "ex1")
        assert p1 == p2

    def test_gold_missing_falls_back_to_reader(self, model):
        pred = model.predict_example(
            "Who led the conquest?", "A sentence without the answer.", "Zorp", "ex2"
        )
        assert pred.text != "Zorp"

    def test_unanswerable_usually_abstains(self, model):
        abstained = 0
        for i in range(20):
            pred = model.predict_example(
                "Which award did he receive?", CORPUS[2], "", f"imp{i}"
            )
            if pred.is_empty:
                abstained += 1
        assert abstained >= 10

    def test_calibration_reaches_target(self, artifacts, squad_dataset):
        triples = squad_dataset.calibration_triples(limit=40)
        model = build_baseline("T5", "squad11", artifacts.reader, triples)
        import numpy as np

        mean_p = np.mean([model.p_correct(q, c, g) for q, c, g in triples])
        assert abs(100 * mean_p - 90.1) < 3.0

    def test_calibration_empty_rejected(self, model):
        with pytest.raises(ValueError):
            model.calibrate([], 80.0)

    def test_error_prediction_is_wrong(self, model):
        # Force errors with zero skill; predictions must not equal gold.
        from repro.metrics import exact_match

        weak = SimulatedBaseline(model.spec, model.reader, skill=1e-6, seed=3)
        question, answer, context = QA_CASES[2]
        wrong = 0
        for i in range(10):
            pred = weak.predict_example(question, context, answer, f"e{i}")
            if not exact_match(pred.text, answer):
                wrong += 1
        assert wrong >= 8


class TestAnswerPrediction:
    def test_empty_factory(self):
        pred = AnswerPrediction.empty()
        assert pred.is_empty
        assert pred.score == float("-inf")
