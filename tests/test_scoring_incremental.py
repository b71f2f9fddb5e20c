"""Incremental-vs-direct scoring equivalence (the engine's contract).

The incremental candidate-scoring engine (:mod:`repro.core.scoring` +
:mod:`repro.metrics.incremental`) must match the direct path: identical
informativeness and conciseness for any node set, readability (and the
hybrid total) within 1e-9 — the prefix-sum readability path regroups
float additions by surviving run (the summation-order contract in
:mod:`repro.metrics.incremental`) — and the same clip decisions and
final distilled text.  These tests assert that over randomized trees and
clip sequences (including hazard tokens that force the fallback mode)
and over a real squad11 slice with the engine toggled on and off, plus
the per-call lifetime of scoring sessions.
"""

from __future__ import annotations

import gc
import json
import random
import weakref

import pytest

from repro import GCED, QATrainer
from repro.core.config import GCEDConfig
from repro.core.oec import OptimalEvidenceDistiller
from repro.core import scoring
from repro.core.scoring import CandidateScoringEngine
from repro.core.serialize import result_to_dict
from repro.datasets import load_dataset
from repro.metrics.incremental import TreeTokenArtifacts, TrigramTermCache
from repro.metrics.informativeness import InformativenessScorer
from repro.parsing.tree import DependencyTree
from repro.qa.base import QAModel

from tests.conftest import QA_CASES

# Vocabulary mixing in-domain words, punctuation, numbers, and the hazard
# tokens ("-", "%") that defeat per-node token independence.
_SAFE_VOCAB = [
    "Denver", "Broncos", "defeated", "the", "champion", "title", "Super",
    "Bowl", "earn", "game", "played", "stadium", "in", "Santa", "Clara",
    "1066", "Battle", "of", "Hastings", "won", ",", ".", "and", "a",
    "history", "don't", "Knowles-Carter",
]
_HAZARD_VOCAB = _SAFE_VOCAB + ["-", "%", "50"]

# The readability summation-order contract: engine-vs-direct totals agree
# to this absolute tolerance (bit-identical for everything else).
_READABILITY_TOL = 1e-9


def assert_scores_match(got, want):
    """Engine scores vs direct scores, under the 1e-9 readability contract."""
    assert got.informativeness == want.informativeness
    assert got.conciseness == want.conciseness
    if not want.is_valid:
        assert got == want
        return
    assert got.readability == pytest.approx(
        want.readability, abs=_READABILITY_TOL
    )
    assert got.hybrid == pytest.approx(want.hybrid, abs=_READABILITY_TOL)


def assert_clip_traces_match(got, want):
    """Clip decisions must be identical; achieved hybrids within 1e-9."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.clipped_root == w.clipped_root
        assert g.removed_nodes == w.removed_nodes
        assert g.edge_weight == w.edge_weight
        assert g.hybrid_after == pytest.approx(
            w.hybrid_after, abs=_READABILITY_TOL
        )


def _random_tree(rng: random.Random, vocab: list[str], n: int) -> DependencyTree:
    """A random rooted tree over ``n`` tokens (node 0 is the root)."""
    tokens = [rng.choice(vocab) for _ in range(n)]
    parents = [-1] + [rng.randrange(0, i) for i in range(1, n)]
    tree = DependencyTree(tokens, parents)
    for node in range(1, n):
        tree.set_weight(node, rng.random())
    return tree


def _random_evidence(
    rng: random.Random, tree: DependencyTree
) -> tuple[set[int], frozenset[int]]:
    """A random evidence set containing the root, plus protected nodes."""
    n = len(tree)
    evidence = {0} | {i for i in range(1, n) if rng.random() < 0.8}
    pool = sorted(evidence - {0})
    protected = frozenset(rng.sample(pool, k=min(2, len(pool))))
    return evidence, protected


class TestScoreEquivalence:
    """session.score(nodes) equals HybridScorer.score on the rendered text."""

    @pytest.mark.parametrize("vocab", [_SAFE_VOCAB, _HAZARD_VOCAB])
    def test_random_node_sets(self, gced, vocab):
        rng = random.Random(0)
        engine = CandidateScoringEngine(gced.scorer)
        question, answer = "Which team won the title?", "Denver Broncos"
        for _trial in range(25):
            tree = _random_tree(rng, vocab, rng.randrange(4, 30))
            session = engine.session(tree, question, answer)
            universe = list(range(len(tree)))
            for _subset in range(6):
                k = rng.randrange(1, len(tree) + 1)
                nodes = frozenset(rng.sample(universe, k))
                text = OptimalEvidenceDistiller.render(tree, set(nodes))
                direct = gced.scorer.score(question, answer, text)
                assert_scores_match(session.score(nodes), direct)

    def test_short_evidence_is_invalid_both_ways(self, gced):
        tree = DependencyTree(["Denver", "Broncos"], [-1, 0])
        engine = CandidateScoringEngine(gced.scorer)
        session = engine.session(tree, "Who won?", "Denver Broncos")
        nodes = frozenset({0, 1})
        direct = gced.scorer.score(
            "Who won?",
            "Denver Broncos",
            OptimalEvidenceDistiller.render(tree, set(nodes)),
        )
        scores = session.score(nodes)
        assert scores == direct
        assert not scores.is_valid


class TestClipEquivalence:
    """Full clip sequences agree with the engine on and off."""

    def test_randomized_clip_sequences(self, gced):
        rng = random.Random(1)
        scorer = gced.scorer
        direct_oec = OptimalEvidenceDistiller(scorer, clip_times=3)
        engine_oec = OptimalEvidenceDistiller(
            scorer, clip_times=3, engine=CandidateScoringEngine(scorer)
        )
        question, answer = "Who won the Battle of Hastings?", "the champion"
        for _trial in range(20):
            vocab = _HAZARD_VOCAB if _trial % 3 == 0 else _SAFE_VOCAB
            tree = _random_tree(rng, vocab, rng.randrange(6, 28))
            evidence, protected = _random_evidence(rng, tree)
            got_e, got_t = engine_oec.clip(
                tree, set(evidence), 0, protected, question, answer
            )
            want_e, want_t = direct_oec.clip(
                tree, set(evidence), 0, protected, question, answer
            )
            assert got_e == want_e
            assert_clip_traces_match(got_t, want_t)


class TestIncrementalMetrics:
    def test_trigram_term_cache_matches_lm(self, artifacts):
        lm = artifacts.language_model
        cache = TrigramTermCache(lm)
        rng = random.Random(2)
        words = [w.lower() for w in _SAFE_VOCAB if w.isalpha()]
        for _trial in range(30):
            seq = [rng.choice(words) for _ in range(rng.randrange(1, 20))]
            assert cache.log_probability(seq) == lm.log_probability(seq)
            assert cache.perplexity(seq) == lm.perplexity(seq)
        # Second pass over the same sequences must serve from the term
        # cache and still be exact.
        rng = random.Random(2)
        for _trial in range(30):
            seq = [rng.choice(words) for _ in range(rng.randrange(1, 20))]
            assert cache.log_probability(seq) == lm.log_probability(seq)

    def test_separability_flags_hazard_tokens(self):
        assert TreeTokenArtifacts(["big", "wide", "."]).separable
        assert not TreeTokenArtifacts(["big", "-", "wide"]).separable
        assert not TreeTokenArtifacts(["5", "%"]).separable
        assert not TreeTokenArtifacts(["trailing-"]).separable

    def test_separable_sequence_matches_retokenization(self):
        from repro.text.tokenizer import detokenize, word_tokens

        tokens = ["Denver", "Broncos", ",", "won", "the", "title", ".", "50%"]
        artifacts = TreeTokenArtifacts(tokens)
        assert artifacts.separable
        order = list(range(len(tokens)))
        assert artifacts.sequence(order) == word_tokens(detokenize(tokens))


class TestBatchedInformativeness:
    def test_score_batch_matches_serial(self, artifacts):
        serial = InformativenessScorer(artifacts.reader)
        batched = InformativenessScorer(artifacts.reader)
        question, answer = QA_CASES[0][0], QA_CASES[0][1]
        evidences = [
            QA_CASES[0][2],
            "Denver Broncos won the Super Bowl title.",
            "   ",  # blank short-circuits to 0.0
            "Denver Broncos won the Super Bowl title.",  # duplicate
            "The game was played at a stadium in Santa Clara.",
        ]
        want = [serial.score(question, answer, e) for e in evidences]
        assert batched.score_batch(question, answer, evidences) == want
        # A second call is served fully from the cache.
        hits0 = batched._cache.snapshot()[0]
        assert batched.score_batch(question, answer, evidences) == want
        assert batched._cache.snapshot()[0] > hits0


class TestPredictBatch:
    def test_default_predict_batch_loops(self, artifacts):
        class OneAnswer(QAModel):
            def predict(self, question, context):
                from repro.qa.base import AnswerPrediction

                return AnswerPrediction(context[:3], 0, 3, 1.0)

        model = OneAnswer()
        preds = model.predict_batch("q", ["abcdef", "xyz"])
        assert [p.text for p in preds] == ["abc", "xyz"]

    def test_span_models_batch_equals_serial(self, artifacts):
        question, _answer, context = QA_CASES[0]
        texts = [context, "Denver Broncos earned the title.", ""]
        models = [artifacts.reader] + [m for m, _w in artifacts.reader.members]
        for model in models:
            serial = [model.predict(question, t) for t in texts]
            assert model.predict_batch(question, texts) == serial

    def test_prepared_path_matches_generic_score_span(
        self, artifacts, monkeypatch
    ):
        reader = artifacts.reader
        fast = [reader.predict(q, c) for q, _a, c in QA_CASES]
        # Forcing span_prep to None routes every span through the generic
        # score_span path the prepared tables must replicate exactly; the
        # compiler is disabled so the None prep is not served from a
        # compiled cache populated before the patch.
        for cls in {type(reader)} | {type(m) for m, _w in reader.members}:
            monkeypatch.setattr(
                cls,
                "span_prep",
                lambda self, profile, tokens, compiled=None: None,
            )
        monkeypatch.setitem(reader.__dict__, "_context_compiler", None)
        slow = [reader.predict(q, c) for q, _a, c in QA_CASES]
        assert fast == slow


class TestPerCallSessions:
    """No clip scoring state outlives the clip search that built it."""

    def test_no_session_outlives_distill(self, artifacts, monkeypatch):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        built: list[weakref.ref] = []
        real_init = scoring.ScoringSession.__init__

        def tracking_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(scoring.ScoringSession, "__init__", tracking_init)
        question, answer, context = QA_CASES[0]
        first = gced.distill(question, answer, context)
        gc.collect()
        assert built, "the clip search built no session"
        assert all(ref() is None for ref in built)
        # GCED.distill has no result memo: this re-distill is a cold clip
        # search over fresh sessions, and must reproduce the first byte
        # for byte.
        again = gced.distill(question, answer, context)
        assert len(built) == 2
        assert json.dumps(result_to_dict(again)) == json.dumps(
            result_to_dict(first)
        )
        assert again.clip_trace == first.clip_trace


class TestPipelineEquivalence:
    """The squad11 harness: identical outputs with the engine on and off."""

    @pytest.fixture(scope="class")
    def squad_setup(self):
        dataset = load_dataset("squad11", seed=1, n_train=40, n_dev=20)
        artifacts = QATrainer(seed=1).train(dataset.contexts())
        return dataset, artifacts

    def test_squad_eval_set_byte_identical(self, squad_setup):
        dataset, artifacts = squad_setup
        on = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            config=GCEDConfig(incremental_scoring=True),
        )
        off = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            config=GCEDConfig(incremental_scoring=False),
        )
        assert on.scoring_engine is not None and off.scoring_engine is None
        for example in dataset.answerable_dev():
            triple = (example.question, example.primary_answer, example.context)
            r_on = on.distill(*triple)
            r_off = off.distill(*triple)
            assert r_on.evidence == r_off.evidence
            assert_scores_match(r_on.scores, r_off.scores)
            assert_clip_traces_match(r_on.clip_trace, r_off.clip_trace)
            assert r_on.reduction == r_off.reduction

    def test_conftest_cases_byte_identical(self, artifacts):
        on = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            config=GCEDConfig(incremental_scoring=True),
        )
        off = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            config=GCEDConfig(incremental_scoring=False),
        )
        for question, answer, context in QA_CASES:
            r_on = on.distill(question, answer, context)
            r_off = off.distill(question, answer, context)
            assert r_on.evidence == r_off.evidence
            assert_scores_match(r_on.scores, r_off.scores)
            assert_clip_traces_match(r_on.clip_trace, r_off.clip_trace)
