"""The end-to-end GCED pipeline (Fig. 3), composed from engine stages.

``GCED.distill(question, answer, context)`` runs the registered stage
plan ASE → tokenize → QWS → WSPTC → EFC → OEC → finalize over a
:class:`~repro.engine.stage.StageContext` and returns a
:class:`DistillationResult` carrying the evidence, its quality scores, and
a full trace of every decision — the traceability the paper lists as an
advantage over end-to-end neural explainers.

The pipeline body holds no per-module branching: ablation switches select
stage names in :func:`repro.core.stages.stage_plan`, and per-stage
wall-clock plus shared-cache hit rates accumulate in ``GCED.profile``.
"""

from __future__ import annotations

import time

from repro.core.config import GCEDConfig
from repro.core.efc import EvidenceForestConstructor
from repro.core.oec import OptimalEvidenceDistiller
from repro.core.qws import QuestionRelevantWordsSelector
from repro.core.result import DistillationResult
from repro.core.scoring import CandidateScoringEngine
from repro.core.stages import empty_result, stage_plan
from repro.core.ase import AnswerOrientedSentenceExtractor
from repro.core.wsptc import WeightedTreeConstructor
from repro.engine.instrumentation import CacheStats, PipelineProfile
from repro.engine.registry import StageRegistry, default_registry
from repro.engine.stage import PipelineResources, StageContext
from repro.obs.trace import span as obs_span
from repro.lexicon.wordnet import MiniWordNet
from repro.metrics.hybrid import HybridScorer
from repro.metrics.informativeness import InformativenessScorer
from repro.metrics.readability import ReadabilityScorer
from repro.parsing.dependency import SyntacticParser
from repro.qa.base import QAModel
from repro.qa.training import TrainedArtifacts
from repro.utils.cache import LRUCache

__all__ = ["GCED", "DistillationResult"]


class GCED:
    """Grow-and-Clip Evidence Distillation.

    Args:
        qa_model: the answer predictor used by ASE and the informativeness
            metric (the paper's fine-tuned PLM).
        artifacts: trained corpus statistics (attention, LM) from
            :class:`repro.qa.training.QATrainer`.
        config: pipeline configuration / ablation switches.
        wordnet: lexical database for QWS (defaults to the embedded one).
        parser: syntactic parser (defaults to a fresh one).
        knowledge: optional entity knowledge graph for knowledge-enhanced
            QWS (the paper's future-work extension; see
            :mod:`repro.lexicon.knowledge`).
        registry: stage registry to resolve the plan against (defaults to
            the process-wide one; pass a custom registry to splice in
            custom stages).
        plan: explicit stage-name sequence overriding
            :func:`repro.core.stages.stage_plan`; this is how custom
            registered stages (baseline selectors, extra annotators)
            enter the pipeline.

    The classic component handles (``gced.ase``, ``gced.qws``,
    ``gced.wsptc``, ``gced.efc``, ``gced.oec``, ``gced.scorer``) remain
    available; they are the same objects the stages reach through
    ``resources``.
    """

    def __init__(
        self,
        qa_model: QAModel,
        artifacts: TrainedArtifacts,
        config: GCEDConfig | None = None,
        wordnet: MiniWordNet | None = None,
        parser: SyntacticParser | None = None,
        knowledge=None,
        knowledge_hops: int = 2,
        registry: StageRegistry | None = None,
        plan: tuple[str, ...] | None = None,
        retriever=None,
    ) -> None:
        self.config = config or GCEDConfig()
        self.qa_model = qa_model
        self.artifacts = artifacts
        self.ase = AnswerOrientedSentenceExtractor(
            qa_model, max_sentences=self.config.max_answer_sentences
        )
        self.qws = QuestionRelevantWordsSelector(
            wordnet, knowledge=knowledge, knowledge_hops=knowledge_hops
        )
        self.wsptc = WeightedTreeConstructor(
            parser or SyntacticParser(), artifacts.attention
        )
        self.efc = EvidenceForestConstructor()
        self.scorer = HybridScorer(
            informativeness=InformativenessScorer(qa_model),
            readability=ReadabilityScorer(artifacts.language_model),
            weights=self.config.effective_weights(),
        )
        self.scoring_engine = (
            CandidateScoringEngine(self.scorer)
            if self.config.incremental_scoring
            else None
        )
        self.oec = OptimalEvidenceDistiller(
            self.scorer,
            clip_times=self.config.clip_times,
            engine=self.scoring_engine,
        )
        self.retriever = retriever
        # The reader's compiled-context cache (created lazily by
        # SpanScoringQA; None for QA models without one).  Referenced from
        # the resource bundle so batch/serving layers can surface its
        # hit rates next to the other shared caches.
        self.compiler = getattr(qa_model, "context_compiler", None)
        self.resources = PipelineResources(
            config=self.config,
            qa_model=self.qa_model,
            artifacts=self.artifacts,
            ase=self.ase,
            qws=self.qws,
            wsptc=self.wsptc,
            efc=self.efc,
            oec=self.oec,
            scorer=self.scorer,
            retriever=retriever,
            compiler=self.compiler,
        )
        # Resolve the plan to stage instances eagerly: GCED must stay
        # picklable for process executors, and registries may hold
        # non-picklable factories, so the registry itself is not retained.
        self.plan = tuple(plan) if plan is not None else stage_plan(self.config)
        self.stages = (registry or default_registry).build(self.plan)
        self.profile = PipelineProfile()

    # ------------------------------------------------------------ pipeline
    def make_context(self, question: str, answer: str, context: str) -> StageContext:
        """A fresh stage context wired to this pipeline's resources."""
        return StageContext(
            question=question,
            answer=answer,
            context=context,
            resources=self.resources,
        )

    @property
    def open_context(self) -> bool:
        """True when the plan can resolve its own context via retrieval."""
        return "retrieve" in self.plan

    def distill(
        self, question: str, answer: str, context: str = ""
    ) -> DistillationResult:
        """Distill an informative-yet-concise evidence for the QA pair.

        An empty ``context`` is only admissible on an open-context plan
        (one containing the ``retrieve`` stage), which resolves it
        against the corpus retriever.
        """
        if not context.strip() and not self.open_context:
            raise ValueError("context must be non-empty")
        ctx = self.make_context(question, answer, context)
        if not answer.strip():
            # Unanswerable question: there is nothing to support.  The
            # contract mirrors Eq. 2's discard rule — no valid evidence.
            self.profile.count("unanswerable")
            return empty_result(ctx)
        with obs_span("engine.distill"):
            return self.run_stages(ctx)

    def run_stages(self, ctx: StageContext) -> DistillationResult:
        """Execute the stage plan over ``ctx``, timing each stage."""
        self.profile.count("contexts")
        last = len(self.stages) - 1
        for position, stage in enumerate(self.stages):
            started = time.perf_counter()
            with obs_span(f"stage.{stage.name}") as stage_span:
                stage.run(ctx)
                if ctx.halted and position < last:
                    stage_span.tag(halted=True)
            self.profile.record_stage(
                stage.name,
                time.perf_counter() - started,
                halted=ctx.halted and position < last,
            )
            if ctx.halted:
                break
        if ctx.result is None:
            raise RuntimeError(
                f"stage plan {self.plan} finished without producing a result"
            )
        retrieval = ctx.extras.get("retrieval")
        if retrieval is not None and ctx.result.retrieval is None:
            # Fold the retrieve stage's decision into the result trace
            # (memoized results keep their original retrieval record).
            ctx.result.retrieval = retrieval
        return ctx.result

    # ------------------------------------------------------ instrumentation
    def shared_caches(self) -> dict[str, LRUCache]:
        """The live shared caches, by instrumentation name."""
        caches = {
            "parse": self.wsptc.parser.parse_cache(),
            "informativeness": self.scorer.informativeness._cache,
            "readability": self.scorer.readability._cache,
        }
        if self.compiler is not None:
            caches["compiled_contexts"] = self.compiler.cache
        return {name: cache for name, cache in caches.items() if cache is not None}

    def snapshot_caches(self) -> PipelineProfile:
        """Refresh ``profile`` with current shared-cache hit/miss counts."""
        for name, cache in self.shared_caches().items():
            snap = cache.snapshot()
            self.profile.record_cache(
                CacheStats(
                    name=name,
                    hits=snap.hits,
                    misses=snap.misses,
                    size=snap.size,
                )
            )
        return self.profile
