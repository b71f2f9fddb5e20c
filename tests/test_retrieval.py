"""Columnar retrieval subsystem: index, scorers, store, stage, open-context.

The load-bearing invariants, each pinned here:

* index builds are byte-identical across serial/thread/process executors;
* save → load is an identity (bytes and retrieval results);
* top-k ranking is deterministic, ties broken by ascending doc id;
* the QA layer's TF-IDF and the retrieval layer share one IDF formula;
* the open-context plan reproduces the closed pipeline's evidence once
  retrieval picks the same paragraph.
"""

from __future__ import annotations

import json

import pytest

from repro import GCED
from repro.core import BatchDistiller, OpenContextDistiller, open_context_plan
from repro.core.config import GCEDConfig
from repro.qa.tfidf import TfidfQA
from repro.retrieval import (
    BM25Scorer,
    CorpusRetriever,
    InvertedIndex,
    TfidfScorer,
    index_to_json,
    load_index,
    make_scorer,
    save_index,
    smoothed_idf,
    unseen_idf,
)
from tests.conftest import CORPUS, QA_CASES

DOCS = [
    "the battle of hastings was fought in 1066 by william the conqueror",
    "denver broncos won the super bowl title in santa clara",
    "beyonce was born and raised in houston texas",
    "the norman conquest of england followed the battle of hastings",
    "a second paragraph about the super bowl and the broncos victory",
]


@pytest.fixture(scope="module")
def index() -> InvertedIndex:
    return InvertedIndex.build(DOCS, n_shards=2)


class TestInvertedIndex:
    def test_document_stats(self, index):
        assert index.n_docs == len(DOCS)
        assert index.doc_length(0) == len(DOCS[0].split())
        assert index.avg_doc_len == pytest.approx(
            sum(len(d.split()) for d in DOCS) / len(DOCS)
        )
        assert index.doc_text(2) == DOCS[2]

    def test_postings_merged_across_shards_ascending(self, index):
        postings = index.postings("the")
        assert [doc_id for doc_id, _tf in postings] == sorted(
            doc_id for doc_id, _tf in postings
        )
        # "the" appears twice in doc 0 ("the battle", "the conqueror").
        assert dict(postings)[0] == 2
        assert index.doc_freq("the") == len(postings)
        assert index.doc_freq("zeppelin") == 0

    def test_shard_layout_is_round_robin(self, index):
        # The shard layout lives on only in the persisted v1/v2 form.
        shards = index.to_dict()["shards"]
        assert len(shards) == index.n_shards
        for shard in shards:
            for doc_id in shard["doc_lengths"]:
                assert int(doc_id) % index.n_shards == shard["shard_id"]
            for postings in shard["postings"].values():
                assert all(
                    doc_id % index.n_shards == shard["shard_id"]
                    for doc_id, _tf in postings
                )

    def test_rejects_empty_corpus_and_bad_shards(self):
        with pytest.raises(ValueError, match="empty corpus"):
            InvertedIndex.build([])
        with pytest.raises(ValueError, match="n_shards"):
            InvertedIndex.build(DOCS, n_shards=0)

    def test_more_shards_than_docs_clamps(self):
        small = InvertedIndex.build(DOCS[:2], n_shards=16)
        assert small.n_shards == 2


class TestBuildEquivalence:
    def test_serial_thread_process_builds_byte_identical(self):
        serial = CorpusRetriever.build(DOCS, n_shards=3, workers=1)
        threaded = CorpusRetriever.build(
            DOCS, n_shards=3, workers=4, backend="thread"
        )
        processed = CorpusRetriever.build(
            DOCS, n_shards=3, workers=2, backend="process"
        )
        reference = index_to_json(serial.index)
        assert index_to_json(threaded.index) == reference
        assert index_to_json(processed.index) == reference

    def test_parallel_build_retrieves_identically(self):
        serial = CorpusRetriever.build(DOCS, n_shards=3, workers=1)
        threaded = CorpusRetriever.build(
            DOCS, n_shards=3, workers=4, backend="thread"
        )
        for query in ("battle of hastings", "super bowl broncos", "houston"):
            assert [
                (h.doc_id, h.score) for h in serial.retrieve(query, k=4)
            ] == [(h.doc_id, h.score) for h in threaded.retrieve(query, k=4)]


class TestStore:
    def test_save_load_round_trip_identity(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_index(index, path)
        reloaded = load_index(path)
        assert index_to_json(reloaded) == index_to_json(index)
        # Saving the reload reproduces the file byte-for-byte.
        save_index(reloaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_reloaded_index_retrieves_identically(self, index, tmp_path):
        path = tmp_path / "index.json"
        warm = CorpusRetriever(index)
        warm.save(path)
        cold = CorpusRetriever.load(path)
        for query in ("battle of hastings", "super bowl title"):
            assert [
                (h.doc_id, h.score, h.text) for h in warm.retrieve(query, k=5)
            ] == [(h.doc_id, h.score, h.text) for h in cold.retrieve(query, k=5)]

    def test_load_rejects_foreign_and_future_files(self, index, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a gced-index"):
            load_index(bogus)
        future = tmp_path / "future.json"
        envelope = json.loads(index_to_json(index))
        envelope["version"] = 999
        future.write_text(json.dumps(envelope))
        with pytest.raises(ValueError, match="version"):
            load_index(future)


class TestRanking:
    def test_bm25_ranks_relevant_doc_first(self, index):
        retriever = CorpusRetriever(index)
        hits = retriever.retrieve("who fought the battle of hastings in 1066", k=3)
        assert hits[0].doc_id == 0
        assert hits[0].rank == 0
        assert hits[0].score >= hits[-1].score

    def test_tfidf_scorer_also_ranks_relevant_doc_first(self, index):
        retriever = CorpusRetriever(index, scorer=TfidfScorer())
        hits = retriever.retrieve("born in houston texas", k=2)
        assert hits[0].doc_id == 2

    def test_deterministic_tie_breaking_prefers_lower_doc_id(self):
        duplicated = ["alpha beta gamma", "delta epsilon", "alpha beta gamma"]
        retriever = CorpusRetriever.build(duplicated, n_shards=2)
        hits = retriever.retrieve("alpha beta", k=3)
        # Docs 0 and 2 are identical, so their scores tie exactly; the
        # lower doc id must come first, every time.
        assert [h.doc_id for h in hits[:2]] == [0, 2]
        assert hits[0].score == pytest.approx(hits[1].score)
        for _ in range(5):
            again = retriever.retrieve("alpha beta", k=3)
            assert [h.doc_id for h in again] == [h.doc_id for h in hits]

    def test_no_overlap_means_no_hits(self, index):
        retriever = CorpusRetriever(index)
        assert retriever.retrieve("zzz qqq xyzzy", k=3) == []

    def test_k_must_be_positive(self, index):
        with pytest.raises(ValueError, match="k must be"):
            CorpusRetriever(index).retrieve("battle", k=0)

    def test_make_scorer_registry(self):
        assert isinstance(make_scorer("bm25", k1=1.2), BM25Scorer)
        assert isinstance(make_scorer("tfidf"), TfidfScorer)
        with pytest.raises(KeyError, match="unknown scorer"):
            make_scorer("neural")


class TestSharedWeighting:
    def test_qa_tfidf_uses_the_shared_idf_formula(self):
        model = TfidfQA().fit(CORPUS)
        n_docs = len(CORPUS)
        # "beyonce" appears in exactly one document of the fixture corpus.
        assert model.idf("beyonce") == pytest.approx(smoothed_idf(n_docs, 1))
        assert model.idf("the") == pytest.approx(smoothed_idf(n_docs, n_docs))
        assert model.idf("xyzzy") == pytest.approx(unseen_idf(n_docs))


@pytest.fixture(scope="module")
def corpus_retriever() -> CorpusRetriever:
    return CorpusRetriever.build(CORPUS, n_shards=2)


class TestRetrieveStage:
    def test_open_context_plan_matches_closed_pipeline(
        self, artifacts, corpus_retriever
    ):
        open_gced = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            plan=open_context_plan(GCEDConfig()),
            retriever=corpus_retriever,
        )
        closed_gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        for question, answer, context in QA_CASES[:3]:
            top = corpus_retriever.retrieve_for_qa(question, answer, k=1)[0]
            assert top.text == context  # retrieval found the gold paragraph
            open_result = open_gced.distill(question, answer)
            closed_result = closed_gced.distill(question, answer, context)
            assert open_result.evidence == closed_result.evidence
            assert open_result.scores == closed_result.scores
            # The retrieval decision is part of the result trace.
            assert open_result.retrieval["doc_id"] == top.doc_id
            assert closed_result.retrieval is None
            assert "retrieved context" in open_result.explain()

    def test_given_context_passes_through_untouched(
        self, artifacts, corpus_retriever
    ):
        gced = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            plan=open_context_plan(GCEDConfig()),
            retriever=corpus_retriever,
        )
        question, answer, context = QA_CASES[0]
        ctx = gced.make_context(question, answer, context)
        result = gced.run_stages(ctx)
        assert ctx.extras["retrieval"] == {"skipped": True}
        assert result.evidence

    def test_empty_context_without_retriever_still_rejected(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with pytest.raises(ValueError, match="context must be non-empty"):
            gced.distill("q", "a", "")

    def test_open_plan_without_retriever_raises_cleanly(self, artifacts):
        gced = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            plan=open_context_plan(GCEDConfig()),
        )
        with pytest.raises(RuntimeError, match="no retriever"):
            gced.distill("q", "a")

    def test_unmatched_query_halts_with_empty_result(
        self, artifacts, corpus_retriever
    ):
        gced = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            plan=open_context_plan(GCEDConfig()),
            retriever=corpus_retriever,
        )
        result = gced.distill("xyzzy quux?", "frobnicate")
        assert result.evidence == ""
        assert result.forest_size == 0


class TestOpenContextDistiller:
    def test_ask_ranks_by_hybrid_evidence_score(
        self, artifacts, corpus_retriever
    ):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with OpenContextDistiller(
            BatchDistiller(gced), corpus_retriever, top_k=3
        ) as distiller:
            question, answer, context = QA_CASES[0]
            outcome = distiller.ask(question, answer)
        assert outcome.best is not None
        assert outcome.best.paragraph.text == context
        hybrids = [
            candidate.result.scores.hybrid
            for candidate in outcome.candidates
            if candidate.ok and candidate.result.scores.is_valid
        ]
        assert hybrids == sorted(hybrids, reverse=True)
        payload = outcome.to_dict()
        assert payload["best_evidence"] == outcome.best.result.evidence
        assert payload["errors"] == 0
        assert len(payload["candidates"]) == len(outcome.candidates)

    def test_ask_batch_matches_individual_asks(
        self, artifacts, corpus_retriever
    ):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        pairs = [(q, a) for q, a, _c in QA_CASES[:3]]
        with OpenContextDistiller(
            BatchDistiller(gced), corpus_retriever, top_k=2
        ) as distiller:
            batched = distiller.ask_batch(pairs)
            singles = [distiller.ask(q, a) for q, a in pairs]
        for one, many in zip(singles, batched):
            assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
                many.to_dict(), sort_keys=True
            )

    def test_k_zero_is_rejected_not_coerced(self, artifacts, corpus_retriever):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with OpenContextDistiller(
            BatchDistiller(gced), corpus_retriever
        ) as distiller:
            with pytest.raises(ValueError, match="k must be"):
                distiller.ask("q", "a", k=0)

    def test_unmatched_ask_has_no_candidates(self, artifacts, corpus_retriever):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with OpenContextDistiller(
            BatchDistiller(gced), corpus_retriever
        ) as distiller:
            outcome = distiller.ask("xyzzy?", "quux")
        assert outcome.candidates == ()
        assert outcome.best is None
        assert outcome.to_dict()["best_evidence"] == ""
