"""Tests for the staged execution engine: stages, registry, executors,
instrumentation, and the executor-backed batch distiller."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core import BatchDistiller, GCEDConfig, stage_plan
from repro.core.pipeline import GCED
from repro.engine import (
    ParallelExecutor,
    PipelineProfile,
    SerialExecutor,
    StageRegistry,
    build_executor,
    default_registry,
)
from repro.engine.instrumentation import CacheStats
from repro.utils.cache import LRUCache, MISSING
from tests.conftest import QA_CASES


# ------------------------------------------------------------- stage plans
class TestStagePlan:
    def test_full_plan(self):
        assert stage_plan(GCEDConfig()) == (
            "ase", "tokenize", "qws", "wsptc", "efc", "oec", "finalize"
        )

    @pytest.mark.parametrize(
        "component, substituted, replaced",
        [
            ("ase", "ase-passthrough", "ase"),
            ("qws", "qws-passthrough", "qws"),
            ("grow", "oec-no-grow", "oec"),
            ("clip", "oec-no-clip", "oec"),
        ],
    )
    def test_ablations_substitute_stages(self, component, substituted, replaced):
        plan = stage_plan(GCEDConfig().ablate(component))
        assert substituted in plan
        assert replaced not in plan
        assert len(plan) == 7

    def test_grow_and_clip_both_off(self):
        config = GCEDConfig(use_grow=False, use_clip=False)
        assert "oec-minimal" in stage_plan(config)

    def test_all_plan_stages_registered(self):
        for config in (GCEDConfig(), GCEDConfig().ablate("ase"),
                       GCEDConfig().ablate("qws"), GCEDConfig().ablate("grow"),
                       GCEDConfig().ablate("clip")):
            for name in stage_plan(config):
                assert name in default_registry

    def test_gced_resolves_plan(self, gced):
        assert gced.plan == stage_plan(gced.config)
        assert [s.name for s in gced.stages] == list(gced.plan)


# --------------------------------------------------------------- registry
class TestStageRegistry:
    def test_register_and_create(self):
        registry = StageRegistry()

        @registry.register("noop")
        class Noop:
            name = "noop"

            def run(self, ctx):
                pass

        assert "noop" in registry
        assert registry.create("noop").name == "noop"

    def test_duplicate_name_rejected(self):
        registry = StageRegistry()
        registry.register("x", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: None)

    def test_unknown_stage(self):
        with pytest.raises(KeyError, match="unknown stage"):
            StageRegistry().create("nope")

    def test_custom_stage_plugs_into_pipeline(self, artifacts):
        registry = default_registry.clone()

        @registry.register("annotate")
        class Annotate:
            name = "annotate"

            def run(self, ctx):
                ctx.extras["n_aos_tokens"] = len(ctx.aos_tokens)

        config = GCEDConfig()
        plan = stage_plan(config)
        plan = plan[:-1] + ("annotate",) + plan[-1:]
        gced = GCED(
            qa_model=artifacts.reader,
            artifacts=artifacts,
            registry=registry,
            plan=plan,
        )
        question, answer, context = QA_CASES[0]
        ctx = gced.make_context(question, answer, context)
        result = gced.run_stages(ctx)
        assert result.evidence
        assert ctx.extras["n_aos_tokens"] == len(result.aos_tokens)
        assert gced.profile.stages["annotate"].calls == 1


# --------------------------------------------------------------- executors
# Process-pool work must pickle, so the mapped functions live at module
# level (key functions run in the parent and may be lambdas).
def _square(x):
    return x * x


def _tagged_pid(x):
    return x, os.getpid()


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestExecutors:
    def test_serial_preserves_order(self):
        assert SerialExecutor().map(lambda x: x * 2, range(7)) == [
            0, 2, 4, 6, 8, 10, 12
        ]

    def test_parallel_preserves_order_with_grouping(self):
        with ParallelExecutor(workers=2) as executor:
            items = list(range(40))
            out = executor.map(_square, items, key=lambda x: x % 5)
        assert out == [x * x for x in items]

    def test_locality_groups_share_a_chunk(self):
        # One chunk per worker: each key group lands whole in one chunk,
        # so each group runs in exactly one worker process.
        items = [i % 2 for i in range(20)]
        with ParallelExecutor(workers=2, chunks_per_worker=1) as executor:
            out = executor.map(_tagged_pid, items, key=lambda x: x)
        assert [x for x, _pid in out] == items
        for group in (0, 1):
            assert len({pid for x, pid in out if x == group}) == 1
        assert os.getpid() not in {pid for _x, pid in out}

    def test_serial_and_parallel_agree(self):
        items = ["b", "a", "c", "a", "b"] * 4
        serial = SerialExecutor().map(str.upper, items, key=lambda s: s)
        with ParallelExecutor(workers=2) as executor:
            parallel = executor.map(str.upper, items, key=lambda s: s)
        assert serial == parallel

    def test_empty_input(self):
        with ParallelExecutor(workers=2) as executor:
            assert executor.map(_square, []) == []

    def test_exceptions_propagate(self):
        with ParallelExecutor(workers=2) as executor:
            with pytest.raises(RuntimeError, match="boom"):
                executor.map(_boom, [1, 2, 3])

    def test_build_executor(self):
        assert isinstance(build_executor(1), SerialExecutor)
        assert isinstance(build_executor(3), ParallelExecutor)
        assert build_executor(3).workers == 3
        assert build_executor(0).workers >= 1

    def test_invalid_backend(self, gced):
        with pytest.raises(ValueError, match="thread backend was removed"):
            BatchDistiller(gced, workers=2, backend="thread")


# --------------------------------------------------------- LRU cache fixes
class TestCacheSentinel:
    def test_cached_none_is_a_hit(self):
        cache = LRUCache(capacity=4)
        cache.put("k", None)
        assert cache.get("k", MISSING) is None
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_key_is_a_miss(self):
        cache = LRUCache(capacity=4)
        assert cache.get("k", MISSING) is MISSING
        assert cache.hits == 0 and cache.misses == 1

    def test_missing_survives_pickle(self):
        assert pickle.loads(pickle.dumps(MISSING)) is MISSING

    def test_cache_survives_pickle(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("a") == 1
        assert clone.hits == 2


# ------------------------------------------------- empty-forest fallback
class TestEmptyForestFallback:
    CONTEXT = (
        "The cat sat on the mat. A dog barked at the moon. "
        "Rain fell all night long. The old clock ticked away."
    )

    def test_fallback_to_sentence_evidence(self, gced):
        # No question word matches the context and the answer string is
        # absent, so EFC finds no seed nodes: the pipeline must fall back
        # to the AOS text instead of returning nothing.
        result = gced.distill("Did zylophant quorble?", "plugh", self.CONTEXT)
        assert result.forest_size == 0
        assert result.evidence == result.ase.text
        assert result.evidence
        assert result.grow_trace == [] and result.clip_trace == []
        assert result.evidence_nodes == set()
        assert result.aos_tokens

    def test_fallback_reduction_counts_dropped_sentences(self, gced):
        result = gced.distill("Did zylophant quorble?", "plugh", self.CONTEXT)
        # ASE caps the subset at max_answer_sentences=3 of 4 sentences.
        assert 0.0 < result.reduction < 1.0

    def test_fallback_halts_at_efc_in_profile(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        gced.distill("Did zylophant quorble?", "plugh", self.CONTEXT)
        assert gced.profile.stages["efc"].halts == 1
        assert "oec" not in gced.profile.stages


# ------------------------------------------------------ executor lifecycle
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

    def test_warmup_report_collects_probe_results(self, gced):
        # The start barrier holds each warm-up task until every worker
        # has one, so no worker answers twice: each start lists both.
        for _ in range(10):
            with BatchDistiller(gced, workers=2) as batch:
                report = batch.executor.last_warmup
            assert report.seconds >= 0
            assert len(report.worker_infos) == 2
            assert len(set(report.worker_infos)) == 2
            assert os.getpid() not in report.worker_infos


# ------------------------------------------------------ batch + executors
class TestBatchDistillerParallel:
    def _triples(self, n=6):
        return [(q, a, c) for q, a, c in QA_CASES[:n]]

    def test_parallel_matches_serial(self, gced):
        triples = self._triples()
        serial = BatchDistiller(gced).distill_many(triples)
        with BatchDistiller(gced, workers=2) as batch:
            parallel = batch.distill_many(triples)
        assert [r.evidence for r in parallel] == [r.evidence for r in serial]
        assert [r.scores for r in parallel] == [r.scores for r in serial]
        assert [r.reduction for r in parallel] == [r.reduction for r in serial]

    def test_parallel_preserves_input_order(self, gced):
        triples = self._triples()
        expected = [gced.distill(q, a, c).evidence for q, a, c in triples]
        with BatchDistiller(gced, workers=2) as batch:
            results = batch.distill_many(triples)
        assert [r.evidence for r in results] == expected

    def test_parallel_cache_hit_accounting(self, gced):
        triples = self._triples(4) * 3
        with BatchDistiller(gced, workers=2) as batch:
            batch.distill_many(triples)
            stats = batch.stats()
        assert stats.n_distilled == 4
        assert stats.n_cache_hits == 8

    def test_repeat_batch_hits_memo(self, gced):
        triples = self._triples(3)
        batch = BatchDistiller(gced, workers=2)
        with batch:
            batch.distill_many(triples)
            batch.distill_many(triples)
            stats = batch.stats()
        assert stats.n_distilled == 3
        assert stats.n_cache_hits == 3
        # The shared results memo must account the repeat batch as hits:
        # its key is pure (question, answer, context) content, so reruns
        # of the same triples land on it.
        results_cache = next(
            c for c in stats.cache_stats if c.name == "results"
        )
        assert results_cache.hits == 3
        assert results_cache.misses == 3

    def test_process_backend_matches_serial(self, gced, artifacts):
        triples = self._triples(3)
        serial = BatchDistiller(gced).distill_many(triples)
        fresh = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(fresh, workers=2, backend="process") as batch:
            parallel = batch.distill_many(triples)
            stats = batch.stats()
        assert [r.evidence for r in parallel] == [r.evidence for r in serial]
        assert [r.scores for r in parallel] == [r.scores for r in serial]
        assert stats.n_distilled == 3
        # Worker profiles travel back: stage timings exist despite the
        # work having run in other processes.
        assert stats.profile.stages["oec"].calls == 3

    def test_workers_zero_means_per_cpu(self, gced):
        # workers=0 must resolve to the CPU count *before* the process
        # initializer guard, so worker processes get a pipeline installed.
        triples = self._triples(2)
        serial = BatchDistiller(gced).distill_many(triples)
        with BatchDistiller(gced, workers=0, backend="process") as batch:
            results = batch.distill_many(triples)
        assert [r.evidence for r in results] == [r.evidence for r in serial]

    def test_duplicate_accounting_on_results_cache(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        batch = BatchDistiller(gced)
        batch.distill_many([self._triples(1)[0]] * 3)
        stats = batch.stats()
        results_cache = next(
            c for c in stats.cache_stats if c.name == "results"
        )
        assert (results_cache.hits, results_cache.misses) == (2, 1)
        assert stats.n_distilled == 1 and stats.n_cache_hits == 2

    def test_stats_surface_shared_caches(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        batch = BatchDistiller(gced)
        batch.distill_many(self._triples(4))
        stats = batch.stats()
        names = {c.name for c in stats.cache_stats}
        assert {
            "parse",
            "informativeness",
            "readability",
            "results",
            "compiled_contexts",
        } <= names
        assert not {"clip_scores", "clip_sessions"} & names
        summary = stats.summary()
        assert "shared caches" in summary
        assert "informativeness" in summary


# --------------------------------------------------------- instrumentation
class TestInstrumentation:
    def test_profile_records_stage_sequence(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        question, answer, context = QA_CASES[0]
        gced.distill(question, answer, context)
        assert list(gced.profile.stages) == list(gced.plan)
        assert all(t.calls == 1 for t in gced.profile.stages.values())
        assert gced.profile.counters["contexts"] == 1

    def test_finalize_is_not_an_early_halt(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        question, answer, context = QA_CASES[0]
        gced.distill(question, answer, context)
        assert gced.profile.stages["finalize"].halts == 0

    def test_merge_adds_timings_and_caches(self):
        a, b = PipelineProfile(), PipelineProfile()
        a.record_stage("ase", 0.5)
        b.record_stage("ase", 0.25)
        b.record_stage("oec", 1.0, halted=True)
        a.record_cache(CacheStats("parse", hits=3, misses=1, size=4))
        b.record_cache(CacheStats("parse", hits=1, misses=1, size=2))
        a.merge(b)
        assert a.stages["ase"].calls == 2
        assert a.stages["ase"].seconds == pytest.approx(0.75)
        assert a.stages["oec"].halts == 1
        assert a.caches["parse"].hits == 4
        assert a.caches["parse"].misses == 2

    def test_report_lists_stages_and_caches(self):
        profile = PipelineProfile()
        profile.record_stage("ase", 0.1)
        profile.record_cache(CacheStats("parse", hits=9, misses=1, size=10))
        report = profile.report()
        assert "ase" in report
        assert "90%" in report

    def test_profile_pickles_without_lock(self):
        profile = PipelineProfile()
        profile.record_stage("ase", 0.1)
        clone = pickle.loads(pickle.dumps(profile))
        clone.record_stage("ase", 0.1)
        assert clone.stages["ase"].calls == 2

    def test_unanswerable_counted(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        question, _answer, context = QA_CASES[0]
        result = gced.distill(question, "   ", context)
        assert result.evidence == ""
        assert gced.profile.counters["unanswerable"] == 1
