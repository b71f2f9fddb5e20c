"""Differential tests: vectorized retrieval against the per-posting oracle.

Every ranking the columnar index and its vectorized scorers produce must
equal, with exact float ``==``, what :mod:`tests.oracle` computes from
the live corpus alone — for built indexes, for the mutable overlay after
random add/delete/compact sequences, and after a reopen that replays the
WAL.  Small vocabularies and duplicated documents make exact score ties
at the top-k boundary common, so the ``(-score, doc_id)`` tie-break is
exercised, not assumed.  Persisted bytes are pinned by digest, and
readers racing a writer must never see a deleted document.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import tempfile
import threading

from hypothesis import given, settings, strategies as st

from repro.retrieval import (
    BM25Scorer,
    CorpusRetriever,
    IngestManager,
    InvertedIndex,
    MutableInvertedIndex,
    Segment,
    TfidfScorer,
    index_to_json,
    load_index,
    load_segment,
    segment_to_json,
)
from tests.oracle import oracle_score_all, oracle_top_k

DATA = pathlib.Path(__file__).parent / "data"

SCORERS = (BM25Scorer(), BM25Scorer(k1=1.2, b=0.3), TfidfScorer())
VOCAB = ("alpha", "beta", "gamma", "delta", "the", "of")
QUERIES = ("alpha beta", "the the of", "gamma delta alpha", "zeta", "beta beta")

words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=6).map(" ".join)
# A few fixed texts recur so identical documents tie exactly.
texts = st.one_of(words, st.sampled_from(("alpha beta", "the of gamma")))
corpora = st.lists(st.one_of(texts, st.just("!!!")), min_size=1, max_size=10)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), texts),
        st.tuples(st.just("delete"), st.integers(0, 63)),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("reopen"), st.none()),
    ),
    max_size=12,
)


def assert_matches_oracle(index, live: dict[int, str]) -> None:
    n = max(1, len(live))
    for scorer in SCORERS:
        for query in QUERIES:
            assert scorer.score_all(index, query) == oracle_score_all(
                scorer, live, query
            )
            for k in sorted({1, 3, n}):
                assert scorer.top_k(index, query, k) == oracle_top_k(
                    scorer, live, query, k
                )


class TestBuiltIndexAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(corpus=corpora, n_shards=st.integers(1, 4))
    def test_scores_and_rankings_match(self, corpus, n_shards):
        index = InvertedIndex.build(corpus, n_shards=n_shards)
        assert_matches_oracle(index, dict(enumerate(corpus)))
        reloaded = InvertedIndex.from_dict(index.to_dict())
        assert index_to_json(reloaded) == index_to_json(index)
        assert_matches_oracle(reloaded, dict(enumerate(corpus)))

    def test_ties_at_the_cut_resolve_to_lower_ids(self):
        corpus = ["beta", "alpha beta", "alpha", "alpha beta", "alpha beta"]
        index = InvertedIndex.build(corpus, n_shards=2)
        top = BM25Scorer().top_k(index, "alpha beta", 2)
        assert [doc_id for doc_id, _ in top] == [1, 3]
        assert top[0][1] == top[1][1]
        live = dict(enumerate(corpus))
        assert top == oracle_top_k(BM25Scorer(), live, "alpha beta", 2)


class TestLiveIndexAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(corpus=corpora, operations=ops)
    def test_random_mutations_compactions_and_replay(self, corpus, operations):
        live = dict(enumerate(corpus))
        with tempfile.TemporaryDirectory() as directory:
            manager = IngestManager.open(directory, base_corpus=corpus)
            try:
                for op, arg in operations:
                    if op == "add":
                        [doc_id] = manager.add_documents([arg])
                        live[doc_id] = arg
                    elif op == "delete" and live:
                        doc_id = sorted(live)[arg % len(live)]
                        manager.delete_document(doc_id)
                        del live[doc_id]
                    elif op == "compact":
                        manager.compact()
                    elif op == "reopen":
                        manager.close()
                        manager = IngestManager.open(directory)
                    index = manager.index
                    assert index.n_docs == len(live)
                    assert index.n_tombstones == index.next_doc_id - len(live)
                    assert_matches_oracle(index, live)
            finally:
                manager.close()


class TestReadersDuringWrites:
    def test_readers_never_see_a_deleted_document(self):
        corpus = [f"alpha beta filler{i}" for i in range(50)]
        index = MutableInvertedIndex(InvertedIndex.build(corpus, n_shards=4))
        deleted: list[int] = []
        failures: list[BaseException] = []
        done = threading.Event()

        def reader() -> None:
            try:
                while not done.is_set():
                    dead_before = set(deleted)
                    for scorer in (BM25Scorer(), TfidfScorer()):
                        hits = scorer.top_k(index, "alpha beta", 1000)
                        assert not dead_before & {doc_id for doc_id, _ in hits}
                        # The writer alternates add/delete: 50 or 51 live.
                        assert len({doc_id for doc_id, _ in hits}) in (50, 51)
            except BaseException as exc:  # surfaced in the main thread
                failures.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for step in range(200):
                if step % 2:
                    victim = min(
                        doc_id
                        for doc_id in range(index.next_doc_id)
                        if index.is_live(doc_id)
                    )
                    index.apply_delete(victim)
                    deleted.append(victim)
                else:
                    index.add(f"alpha beta written{step}")
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not failures, failures[0]
        assert index.n_tombstones == len(deleted) == 100
        assert index.n_docs == len(corpus)
        assert len(BM25Scorer().top_k(index, "alpha beta", 1000)) == len(corpus)


class TestWriteBuffers:
    def test_unsearched_writes_leave_published_views_alone(self):
        corpus = ["alpha beta", "beta gamma", "the of alpha", "delta"]
        index = MutableInvertedIndex(InvertedIndex.build(corpus, n_shards=2))
        live = dict(enumerate(corpus))
        index.apply_delete(0)
        del live[0]
        live[index.add("alpha gamma")] = "alpha gamma"
        view = index.read_view()
        frozen = (
            view.lengths.copy(),
            view.dead.copy(),
            {term: (i.copy(), t.copy()) for term, (i, t) in view.delta.items()},
        )
        # Many writes, no search between them: a delete inside the
        # published mask, buffers growing past their first capacity,
        # deletes of base and delta ids, and an add that skips ids (they
        # become tombstoned gaps).
        index.apply_delete(1)
        del live[1]
        for i in range(40):
            live[index.add(f"alpha beta extra{i % 7}")] = f"alpha beta extra{i % 7}"
        for doc_id in (2, 5, 17, 43):
            index.apply_delete(doc_id)
            del live[doc_id]
        gap_start = index.next_doc_id
        index.apply_add(gap_start + 3, "gamma gamma alpha")
        live[gap_start + 3] = "gamma gamma alpha"
        assert not any(index.is_live(gap_start + i) for i in range(3))
        assert (view.lengths == frozen[0]).all()
        assert (view.dead == frozen[1]).all()
        assert view.delta.keys() == frozen[2].keys() == {"alpha", "gamma"}
        for term, (ids, tfs) in frozen[2].items():
            assert (view.delta[term][0] == ids).all()
            assert (view.delta[term][1] == tfs).all()
        assert index.n_tombstones == index.next_doc_id - len(live)
        assert_matches_oracle(index, live)
        folded = MutableInvertedIndex(index.compacted(), index.tombstones)
        assert_matches_oracle(folded, live)

    def test_adds_reallocate_logarithmically_often(self):
        index = MutableInvertedIndex(InvertedIndex.build(["alpha"], n_shards=1))
        # Private buffers on purpose: an add must not copy the id-space
        # arrays or a term's delta column (that made replay quadratic).
        reallocations = {"lengths": 0, "delta": 0}
        lengths, column = index._lengths, None
        for i in range(2000):
            index.add(f"alpha beta {i}")
            if i % 50 == 0:
                BM25Scorer().top_k(index, "alpha", 3)  # publish a view
            if index._lengths is not lengths:
                reallocations["lengths"] += 1
                lengths = index._lengths
            if index._delta_buf["alpha"][0] is not column:
                reallocations["delta"] += 1
                column = index._delta_buf["alpha"][0]
        assert reallocations["lengths"] <= 12 and reallocations["delta"] <= 12
        assert index.doc_freq("alpha") == 2001


# Digests of the v1/v2 bytes this corpus produced before the index
# became columnar; the persisted format must not move.
PINNED_DOCS = [
    "the battle of hastings was fought in 1066 by william the conqueror",
    "denver broncos won the super bowl title in santa clara",
    "beyonce was born and raised in houston texas",
    "the norman conquest of england followed the battle of hastings",
    "a second paragraph about the super bowl and the broncos victory",
    "!!! ???",
    "the the the battle battle",
]
INDEX_SHA256 = "9841bc52ce4e60cd1250c0aebd891968629b012b7200d9698c087d8573e81f75"
SEGMENT_SHA256 = "94983039f2b092cebc23943b17671b0481b9e53c3d7b4328beb0753b1d5e0725"
SNAPSHOT_SHA256 = "1f38b9cd5fc51f3205259d2159b34bb0a18220a1baaf299aa4fcfb5bed6b214b"
SCORES_SHA256 = "f9eb5d1faf2aa6acbe31d974b0d192d6f539b4199eecc5158deea07ea2c72008"
INDEX_SNAPSHOT_SHA256 = (
    "691ca809bc5f457ca5351f4322ad77b52b96ffedfa7d64b3c0f261ecdb5d2199"
)


def _pinned_state() -> tuple[InvertedIndex, MutableInvertedIndex, Segment]:
    index = InvertedIndex.build(PINNED_DOCS, n_shards=3, metadata={"seed": 7})
    live = MutableInvertedIndex(index)
    live.add("payload record zero the battle")
    live.apply_delete(1)
    live.apply_add(10, "gap record after a torn batch the broncos")
    live.apply_delete(7)
    segment = Segment(
        index=live.compacted(),
        tombstones=tuple(sorted(live.tombstones)),
        applied_seq=9,
        generation=2,
    )
    return index, live, segment


def _sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


class TestPersistedBytes:
    def test_v1_v2_and_snapshot_digests_are_pinned(self):
        index, live, segment = _pinned_state()
        assert _sha256(index_to_json(index)) == INDEX_SHA256
        assert _sha256(segment_to_json(segment)) == SEGMENT_SHA256
        assert _sha256(live.to_snapshot_bytes()) == SNAPSHOT_SHA256
        assert _sha256(index.to_snapshot_bytes()) == INDEX_SNAPSHOT_SHA256

    def test_files_written_by_the_previous_index_still_load(self):
        live = _pinned_state()[1]
        v1 = (DATA / "index_v1.json").read_text()
        v2 = (DATA / "segment_v2.json").read_text()
        assert index_to_json(load_index(DATA / "index_v1.json")) == v1
        assert segment_to_json(load_segment(DATA / "segment_v2.json")) == v2
        reloaded = CorpusRetriever.load(DATA / "segment_v2.json").index
        survivors = {
            doc_id: text
            for doc_id, text in enumerate(live.docs)
            if live.is_live(doc_id)
        }
        assert_matches_oracle(reloaded, survivors)

    def test_scores_match_the_previous_scorer(self):
        # The oracle shares the weighting formulas; this digest of the
        # per-posting scorer's output before the columnar index pins the
        # formulas themselves.
        live = _pinned_state()[1]
        queries = [
            " ".join(doc.split()[i : i + 3])
            for doc in PINNED_DOCS
            for i in (0, 2, 4, 6, 8)
        ] + ["payload gap record the", "the the battle"]
        rows = [
            sorted(scorer.score_all(live, query).items())
            for scorer in (BM25Scorer(), BM25Scorer(k1=1.2, b=0.3), TfidfScorer())
            for query in queries
        ]
        assert _sha256(repr(rows)) == SCORES_SHA256
