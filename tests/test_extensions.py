"""Unit tests for the extension modules: knowledge graph, batch, serialize, viz."""

import pytest

from repro.core import BatchDistiller, read_results_jsonl, write_results_jsonl
from repro.core.serialize import result_to_dict
from repro.datasets import KnowledgeBase
from repro.lexicon import KnowledgeGraph, graph_from_kb
from repro.viz import evidence_html, render_distillation, render_tree
from tests.conftest import QA_CASES


class TestKnowledgeGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        graph = KnowledgeGraph()
        graph.add_triples(
            [
                ("Solomon", "child_of", "David"),
                ("David", "married_to", "Bathsheba"),
                ("Solomon", "built", "the Temple"),
                ("David", "ruled", "Israel"),
            ]
        )
        return graph

    def test_counts(self, graph):
        assert len(graph) == 5
        assert graph.n_edges == 4

    def test_resolve_multiword(self, graph):
        assert "the temple" in graph.resolve("temple")

    def test_contains(self, graph):
        assert "solomon" in graph
        assert "nobody" not in graph

    def test_one_hop_neighbors(self, graph):
        neighbors = graph.neighbors("Solomon", hops=1)
        assert "david" in neighbors
        assert "bathsheba" not in neighbors

    def test_two_hop_neighbors(self, graph):
        neighbors = graph.neighbors("Solomon", hops=2)
        assert "bathsheba" in neighbors

    def test_related_words(self, graph):
        words = graph.related_words("Solomon", hops=2)
        assert "bathsheba" in words
        assert "david" in words

    def test_relation_path(self, graph):
        path = graph.relation_path("Solomon", "Bathsheba")
        assert path is not None
        assert len(path) == 2
        assert "child_of" in path[0]

    def test_no_path(self, graph):
        graph2 = KnowledgeGraph()
        graph2.add_entity("alone")
        graph2.add_relation("x", "r", "y")
        assert graph2.relation_path("alone", "x") is None

    def test_unknown_entity_path(self, graph):
        assert graph.relation_path("Solomon", "Zeus") is None

    def test_empty_entity_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph().add_entity("   ")

    def test_invalid_hops(self, graph):
        with pytest.raises(ValueError):
            graph.neighbors("Solomon", hops=0)

    def test_graph_from_kb(self):
        kb = KnowledgeBase(seed=1, n_people=10, n_teams=4, n_cities=6)
        graph = graph_from_kb(kb)
        person = kb.people[0]
        birth_city = person.attributes["birth_city"].lower()
        assert birth_city in graph.neighbors(person.name)

    def test_knowledge_enhanced_qws(self):
        from repro.core import QuestionRelevantWordsSelector
        from repro.text.tokenizer import tokenize

        graph = KnowledgeGraph()
        graph.add_relation("Solomon", "child_of", "David")
        graph.add_relation("David", "married_to", "Bathsheba")
        qws_plain = QuestionRelevantWordsSelector()
        qws_knowing = QuestionRelevantWordsSelector(
            knowledge=graph, knowledge_hops=2
        )
        tokens = tokenize("Bathsheba raised her son in the palace.")
        question = "Who was the mother of Solomon?"
        plain = qws_plain.select(question, tokens)
        knowing = qws_knowing.select(question, tokens)
        assert "Bathsheba" not in plain.clue_words
        assert "Bathsheba" in knowing.clue_words


class TestBatchDistiller:
    def test_results_match_single(self, gced):
        batch = BatchDistiller(gced)
        triples = [(q, a, c) for q, a, c in QA_CASES[:3]]
        results = batch.distill_many(triples)
        for (question, answer, context), result in zip(triples, results):
            single = gced.distill(question, answer, context)
            assert result.evidence == single.evidence

    def test_preserves_input_order(self, gced):
        batch = BatchDistiller(gced)
        triples = [(q, a, c) for q, a, c in QA_CASES[:4]]
        results = batch.distill_many(triples)
        for (question, answer, _context), result in zip(triples, results):
            # The evidence must belong to its own QA pair: the answer's
            # first normalized word appears in the evidence.
            from repro.text.normalize import normalize_answer

            word = normalize_answer(answer).split()[0]
            assert word in normalize_answer(result.evidence)

    def test_cache_hits_on_repeat(self, gced):
        batch = BatchDistiller(gced)
        question, answer, context = QA_CASES[0]
        batch.distill_one(question, answer, context)
        batch.distill_one(question, answer, context)
        stats = batch.stats()
        assert stats.n_distilled == 1
        assert stats.n_cache_hits == 1

    def test_mean_reduction_equals_mean_over_results(self, gced):
        batch = BatchDistiller(gced)
        results = batch.distill_many(QA_CASES)
        assert len(set(QA_CASES)) == len(results) > 1
        assert batch.stats().mean_reduction == sum(
            r.reduction for r in results
        ) / len(results)

    def test_stats_summary(self, gced):
        batch = BatchDistiller(gced)
        batch.distill_one(*[QA_CASES[1][i] for i in (0, 1, 2)])
        summary = batch.stats().summary()
        assert "distilled" in summary and "ms/example" in summary


class TestSerialize:
    def test_round_trip_jsonl(self, gced, tmp_path):
        path = tmp_path / "results.jsonl"
        items = []
        for question, answer, context in QA_CASES[:3]:
            items.append((question, answer, gced.distill(question, answer, context)))
        count = write_results_jsonl(path, items)
        assert count == 3
        loaded = read_results_jsonl(path)
        assert len(loaded) == 3
        for (question, answer, result), row in zip(items, loaded):
            assert row["question"] == question
            assert row["evidence"] == result.evidence
            assert row["scores"]["hybrid"] == pytest.approx(result.scores.hybrid)

    def test_invalid_scores_become_null(self, gced):
        from repro.core.pipeline import DistillationResult
        from repro.core.ase import ASEResult
        from repro.core.qws import QWSResult
        from repro.metrics.hybrid import EvidenceScores

        empty = DistillationResult(
            evidence="",
            scores=EvidenceScores(0.0, float("-inf"), 0.0, float("-inf")),
            ase=ASEResult((), "", False, 0.0, 0),
            qws=QWSResult((), frozenset(), (), {}),
            forest_size=0,
        )
        payload = result_to_dict(empty)
        assert payload["scores"]["conciseness"] is None
        assert payload["scores"]["hybrid"] is None

    def test_trace_serialized(self, gced):
        question, answer, context = QA_CASES[2]
        result = gced.distill(question, answer, context)
        payload = result_to_dict(result, question, answer)
        assert isinstance(payload["clip_steps"], list)
        assert payload["clue_words"]


class TestViz:
    def test_render_tree_markers(self, gced):
        question, answer, context = QA_CASES[2]
        result = gced.distill(question, answer, context)
        tree = gced.wsptc.build(result.aos_tokens)
        text = render_tree(
            tree, kept=result.evidence_nodes, protected=frozenset()
        )
        assert "+ " in text or "* " in text
        assert f"{tree.root}-{tree.token(tree.root)}" in text

    def test_render_distillation_sections(self, gced):
        question, answer, context = QA_CASES[0]
        result = gced.distill(question, answer, context)
        report = render_distillation(result)
        for section in ("Answer-oriented", "clue words", "Evidence", "Scores"):
            assert section in report

    def test_evidence_html_highlights(self, gced):
        question, answer, context = QA_CASES[0]
        result = gced.distill(question, answer, context)
        markup = evidence_html(question, answer, context, result)
        assert "<mark" in markup
        assert 'class="answer"' in markup
        assert "Denver" in markup

    def test_evidence_html_escapes(self, gced):
        question, answer, context = QA_CASES[0]
        result = gced.distill(question, answer, context)
        markup = evidence_html("<script>?", answer, context, result)
        assert "<script>" not in markup
