"""Pipeline-snapshot plane: byte identity, shared-memory hygiene, staleness.

Covers the contracts the snapshot plane (:mod:`repro.engine.snapshot`)
states: save→load→save byte identity for every serialized section,
process-backend distillation byte-identical with the snapshot on or off,
a snapshot that carries only the LM and index, no leaked ``/dev/shm``
segments (including after a worker crash), stale snapshots refused on
config change, and the byte-accurate accounting of lazily-growing
compiled artifacts.
"""

from __future__ import annotations

import os
import pickle

import pytest
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

from repro import GCED, QATrainer
from repro.core.batch import BatchDistiller
from repro.core.config import GCEDConfig
from repro.engine.executor import ParallelExecutor
from repro.engine.snapshot import (
    PipelineSnapshot,
    activate,
    deactivate,
    dump_for_workers,
    load_active_section,
)
from repro.lm.ngram import FlatNGramTables, NGramLanguageModel
from repro.qa.compiled import ContextCompiler, estimate_compiled_bytes
from repro.retrieval.index import InvertedIndex
from repro.utils.cache import LRUCache

from tests.conftest import CORPUS, QA_CASES


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def _boom(_item) -> None:
    # Hard worker death (no exception propagation): the pool breaks.
    os._exit(13)


# --------------------------------------------------------------- snapshot core


class TestPipelineSnapshot:
    def test_sections_round_trip_via_shared_memory(self):
        sections = {"a": b"alpha", "b": b"", "c": b"gamma-gamma"}
        snap = PipelineSnapshot(sections, fingerprint="fp")
        try:
            assert snap.section_names() == ("a", "b", "c")
            attached = PipelineSnapshot.attach(snap.handle)
            try:
                for name, blob in sections.items():
                    assert attached.section(name) == blob
                with pytest.raises(KeyError):
                    attached.section("missing")
            finally:
                attached.close()
        finally:
            snap.close(unlink=True)

    def test_inline_fallback_round_trip(self):
        snap = PipelineSnapshot({"x": b"12345"}, use_shared_memory=False)
        assert snap.shm_name is None
        attached = PipelineSnapshot.attach(snap.handle)
        assert attached.section("x") == b"12345"
        snap.close(unlink=True)

    def test_close_unlinks_segment(self):
        snap = PipelineSnapshot({"x": b"payload"})
        name = snap.shm_name
        assert name is not None and _segment_exists(name)
        snap.close(unlink=True)
        assert not _segment_exists(name)
        with pytest.raises(RuntimeError):
            snap.section("x")
        snap.close(unlink=True)  # idempotent

    def test_active_registry(self):
        snap = PipelineSnapshot({"lm": b"tables"}, use_shared_memory=False)
        activate(snap)
        try:
            assert load_active_section("lm") == b"tables"
            assert load_active_section("nope") is None
        finally:
            snap.close(unlink=True)
        # close() deactivates, so hollow objects fail loudly, not stalely.
        assert load_active_section("lm") is None
        deactivate()


# ----------------------------------------------------------- section identity


class TestSectionByteIdentity:
    def test_flat_lm_save_load_save(self, artifacts):
        lm = artifacts.language_model
        first = lm.snapshot_bytes()
        loaded = NGramLanguageModel.from_flat(FlatNGramTables.from_bytes(first))
        assert loaded.snapshot_bytes() == first
        assert loaded.vocab_size == lm.vocab_size
        assert loaded.unigrams == lm.unigrams
        assert loaded.bigrams == lm.bigrams
        assert loaded.trigrams == lm.trigrams
        tokens = CORPUS[0].lower().split()[:12]
        assert loaded.perplexity(tokens) == lm.perplexity(tokens)

    def test_hollow_lm_rehydrates_from_active_snapshot(self, artifacts):
        lm = artifacts.language_model
        payload = dump_for_workers(lm)
        snap = PipelineSnapshot({"lm": lm.snapshot_bytes()})
        try:
            activate(snap)
            hollow = pickle.loads(payload)
            assert hollow.unigrams is None
            assert hollow.probability("the") == lm.probability("the")
        finally:
            snap.close(unlink=True)
        orphan = pickle.loads(payload)
        with pytest.raises(RuntimeError, match="no snapshot is active"):
            orphan.probability("the")

    def test_index_save_load_save(self):
        index = InvertedIndex.build(CORPUS, n_shards=2)
        first = index.to_snapshot_bytes()
        loaded = InvertedIndex.from_snapshot_bytes(first)
        assert loaded.to_snapshot_bytes() == first
        assert loaded.postings("the") == index.postings("the")

# --------------------------------------------------------- distill equivalence


class TestDistillEquivalence:
    def test_process_backend_byte_identical_snapshot_on_off(self, artifacts):
        cases = QA_CASES[:4]
        warm = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        serial = [warm.distill(*case) for case in cases]

        # Snapshot ON: workers take the LM from the shared segment.
        with BatchDistiller(warm, workers=2, backend="process") as batch:
            snapshotted = batch.distill_many(cases)
            info = batch.snapshot_info()
        # Snapshot OFF: the full pipeline rides the initializer.
        cold_pipeline = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(
            cold_pipeline, workers=2, backend="process", snapshot=False
        ) as batch:
            cold = batch.distill_many(cases)

        for expected, on, off in zip(serial, snapshotted, cold):
            assert on.evidence == expected.evidence == off.evidence
            assert on.scores == expected.scores == off.scores
            assert pickle.dumps(on.scores) == pickle.dumps(expected.scores)

        assert info is not None
        assert info["bytes"] > 0
        assert info["build_ms"] >= 0
        for worker in info["workers"]:
            assert worker["snapshot"] is True
            assert worker["snapshot_load_ms"] >= 0

    def test_warm_parent_ships_only_lm_and_index(self, artifacts):
        # However warm the parent's caches, the snapshot carries only the
        # read-only tables workers read: caches travel empty.
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        for case in QA_CASES:
            gced.distill(*case)
        with BatchDistiller(gced, workers=2) as batch:
            info = batch.snapshot_info()
        assert set(info["sections"]) <= {"lm", "index"}
        assert "hydration" not in info

    def test_snapshot_off_reports_no_snapshot_info(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(
            gced, workers=2, backend="process", snapshot=False
        ) as batch:
            assert batch.snapshot_info() is None


# ------------------------------------------------------------- staleness


class TestStaleness:
    def test_adopt_snapshot_refuses_fingerprint_mismatch(self, artifacts):
        base = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        snap = base.build_snapshot(use_shared_memory=False)
        try:
            other = GCED(
                qa_model=artifacts.reader,
                artifacts=artifacts,
                config=GCEDConfig().ablate("r"),
            )
            assert other.adopt_snapshot(snap) is False
            assert other.profile.counters.get("snapshot_stale") == 1
            assert base.adopt_snapshot(snap) is True
        finally:
            snap.close(unlink=True)

# ----------------------------------------------------- shared-memory hygiene


class TestSharedMemoryCleanup:
    def test_distiller_close_unlinks_owned_segment(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        batch = BatchDistiller(gced, workers=2, backend="process")
        name = batch._snapshot.shm_name
        assert name is not None and _segment_exists(name)
        batch.close()
        assert not _segment_exists(name)

    def test_segment_unlinked_even_after_worker_crash(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        batch = BatchDistiller(gced, workers=2, backend="process")
        name = batch._snapshot.shm_name
        assert name is not None
        with pytest.raises(BrokenProcessPool):
            batch.executor.map(_boom, [1, 2, 3])
        batch.close()
        assert not _segment_exists(name)

# --------------------------------------------------------- executor lifecycle


class TestExecutorLifecycle:
    def test_map_after_close_raises(self):
        executor = ParallelExecutor(workers=2)
        executor.warmup()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(str, [1, 2, 3])
        with pytest.raises(RuntimeError, match="closed"):
            executor.warmup()
        executor.close()  # idempotent

    def test_warmup_report_collects_probe_results(self):
        executor = ParallelExecutor(workers=2)
        try:
            report = executor.warmup(probe=os.getpid)
            assert report.seconds >= 0
            assert len(report.worker_infos) == 2
            assert executor.last_warmup is report
        finally:
            executor.close()


# ----------------------------------------------------- byte-accurate accounting


class TestCompiledAccounting:
    def test_lru_bytes_track_lazy_growth(self, artifacts):
        reader = artifacts.reader
        compiler = ContextCompiler()
        saved, reader.context_compiler = reader.context_compiler, compiler
        try:
            for question, _answer, context in QA_CASES:
                reader.predict(question, context)
        finally:
            reader.context_compiler = saved
        cache = compiler.cache
        measured = sum(
            estimate_compiled_bytes(value) for _key, value in cache.items()
        )
        # The invariant: accounted bytes equal the estimator applied to
        # the *current* (lazily grown) values, and respect the budget.
        assert cache._bytes == measured
        assert cache.max_bytes is None or cache._bytes <= cache.max_bytes

    def test_reaccount_evicts_on_growth(self):
        cache = LRUCache(
            capacity=8, size_estimator=lambda v: v["size"], max_bytes=100
        )
        small = {"size": 40}
        other = {"size": 40}
        cache.put("a", small)
        cache.put("b", other)
        assert cache._bytes == 80
        small["size"] = 90  # "a" grew in place
        assert cache.reaccount("a") == 90
        # Over budget now: the LRU entry that is not most-recent evicts.
        assert "b" in cache and "a" not in cache
        assert cache._bytes == 40
        assert cache.reaccount("missing") == 0

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

# ----------------------------------------------------- snapshot generations


class TestSnapshotGeneration:
    def test_handle_carries_generation(self):
        snap = PipelineSnapshot(
            {"x": b"1"}, use_shared_memory=False, generation=3
        )
        attached = PipelineSnapshot.attach(snap.handle)
        assert attached.generation == 3
        snap.close(unlink=True)

    def test_readopting_same_generation_is_noop(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        snap = gced.build_snapshot(use_shared_memory=False, generation=1)
        try:
            assert gced.adopt_snapshot(snap) is True
            adopted = gced.profile.counters.get("snapshot_adopted")
            assert gced.adopt_snapshot(snap) is True
            assert gced.profile.counters.get("snapshot_readopt_noop") == 1
            assert gced.profile.counters.get("snapshot_adopted") == adopted
        finally:
            snap.close(unlink=True)

    def test_newer_generation_rebases_index_in_place(self, artifacts):
        from repro.retrieval import CorpusRetriever
        from repro.retrieval.mutable import MutableInvertedIndex

        main_index = MutableInvertedIndex(
            InvertedIndex.build(CORPUS, n_shards=2)
        )
        main = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            retriever=CorpusRetriever(main_index),
        )
        worker_index = MutableInvertedIndex(
            InvertedIndex.build(CORPUS, n_shards=2)
        )
        worker = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            retriever=CorpusRetriever(worker_index),
        )
        first = main.build_snapshot(use_shared_memory=False, generation=0)
        second = None
        try:
            assert worker.adopt_snapshot(first) is True
            new_text = "a freshly ingested paragraph about compaction"
            new_id = main_index.add(new_text)
            second = main.build_snapshot(use_shared_memory=False, generation=1)
            assert worker.adopt_snapshot(second) is True
            # Same object, new content: the pool's references stay valid.
            assert worker.retriever.index is worker_index
            assert worker_index.doc_text(new_id) == new_text
            assert worker.profile.counters.get("snapshot_refreshed") == 1
        finally:
            first.close(unlink=True)
            if second is not None:
                second.close(unlink=True)

    def test_refresh_snapshot_rehydrates_live_pool_in_place(self, artifacts):
        from repro.retrieval import CorpusRetriever
        from repro.retrieval.mutable import MutableInvertedIndex

        index = MutableInvertedIndex(InvertedIndex.build(CORPUS, n_shards=2))
        gced = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            retriever=CorpusRetriever(index),
        )
        with BatchDistiller(gced, workers=2, backend="process") as batch:
            before = batch.snapshot_info()
            batch.executor.warmup()  # ensure every worker process is up
            pool_pids = set(batch.executor._pool._processes)
            index.add("a brand new live document about snapshots")
            outcome = batch.refresh_snapshot()
            assert outcome is not None
            assert outcome["generation"] == before["generation"] + 1
            # Same pids: the pool was re-hydrated, not respawned.
            assert set(batch.executor._pool._processes) == pool_pids
            assert {w["pid"] for w in outcome["workers"]} <= pool_pids
            info = batch.snapshot_info()
            assert info["refreshes"] == 1
            assert info["generation"] == outcome["generation"]
            assert info["last_refresh"]["broadcast_ms"] >= 0

    def test_refresh_snapshot_noop_for_serial(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(gced, workers=1) as batch:
            assert batch.refresh_snapshot() is None
