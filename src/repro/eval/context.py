"""Shared experiment state: dataset + trained artifacts + models + GCED.

Building a context is the expensive part of every experiment (dataset
generation, corpus fitting, baseline calibration), so one context is built
per dataset key and shared by all table/figure runners.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.batch import BatchDistiller
from repro.core.config import GCEDConfig
from repro.core.pipeline import GCED, DistillationResult
from repro.datasets.loader import load_dataset
from repro.datasets.types import QADataset, QAExample
from repro.eval.human import RatingRecord
from repro.lexicon.stopwords import is_insignificant
from repro.qa.registry import (
    SQUAD_BASELINES,
    TRIVIAQA_BASELINES,
    SimulatedBaseline,
    build_baseline,
)
from repro.qa.training import QATrainer, TrainedArtifacts
from repro.text.tokenizer import word_tokens

__all__ = ["ExperimentContext"]


@dataclass
class ExperimentContext:
    """Everything an experiment needs for one dataset.

    Use :meth:`build` — the constructor fields are wired there.
    """

    dataset: QADataset
    artifacts: TrainedArtifacts
    gced: GCED
    baselines: dict[str, SimulatedBaseline]
    seed: int
    distiller: BatchDistiller = None  # type: ignore[assignment]

    @classmethod
    def build(
        cls,
        dataset_key: str,
        seed: int = 0,
        n_train: int = 100,
        n_dev: int = 50,
        config: GCEDConfig | None = None,
        calibration_limit: int = 60,
        workers: int = 1,
    ) -> "ExperimentContext":
        """Construct the full experiment state for ``dataset_key``.

        ``workers`` sizes the engine executor every experiment's
        distillation fans out on (1 = serial, more = a process pool).
        """
        dataset = load_dataset(dataset_key, seed=seed, n_train=n_train, n_dev=n_dev)
        artifacts = QATrainer(seed=seed).train(dataset.contexts())
        gced = GCED(
            qa_model=artifacts.reader, artifacts=artifacts, config=config
        )
        specs = (
            SQUAD_BASELINES
            if dataset_key.startswith("squad")
            else TRIVIAQA_BASELINES
        )
        triples = dataset.calibration_triples(limit=calibration_limit)
        baselines = {
            spec.name: build_baseline(
                spec.name, dataset_key, artifacts.reader, triples, seed=seed
            )
            for spec in specs
        }
        # The results memo must hold every (gold + predicted) distillation
        # for the context's lifetime — experiments re-read gold evidences
        # across tables, and an undersized LRU would thrash on sequential
        # multi-pass scans.  Worst case is one gold plus one predicted
        # triple per baseline per dev example; size for that (with slack),
        # floored at the distiller default.
        memo_size = max(4096, (len(baselines) + 3) * len(dataset.dev))
        return cls(
            dataset=dataset,
            artifacts=artifacts,
            gced=gced,
            baselines=baselines,
            seed=seed,
            distiller=BatchDistiller(
                gced, cache_size=memo_size, workers=workers
            ),
        )

    def close(self) -> None:
        """Shut down the distiller's worker pool, if one was created."""
        self.distiller.close()

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ evidence
    def prewarm_gold(self, examples: list[QAExample]) -> None:
        """Distill gold evidences for ``examples`` as one batch.

        Routes through the engine executor (context-grouped, parallel when
        ``workers > 1``); the distiller's content-keyed ``results`` memo
        makes subsequent per-example access free.
        """
        self.distiller.distill_examples(examples)

    def gold_evidence(self, example: QAExample) -> DistillationResult:
        """GCED evidence distilled from the ground-truth answer (memoized).

        Served by the distiller's shared ``results`` cache, keyed on the
        (question, answer, context) content.  A per-``example_id`` shadow
        cache used to sit in front of it: ids are dataset/seed-scoped
        run state, so cross-experiment reuse of the same content never
        registered — ``--profile`` reported a structural 0% hit rate on
        ``results`` while the real reuse hid here, uncounted.
        """
        return self.distiller.distill_one(
            example.question, example.primary_answer, example.context
        )

    def predicted_evidence(
        self, example: QAExample, model: SimulatedBaseline
    ) -> tuple[DistillationResult, str]:
        """Evidence distilled from ``model``'s predicted answer.

        Returns (distillation, predicted answer).  If the model predicts an
        empty answer (abstention), distillation is skipped and an empty
        result placeholder is produced by distilling from the gold answer's
        question with no basis — callers should filter on ``predicted``.
        """
        prediction = model.predict_example(
            example.question,
            example.context,
            example.primary_answer,
            example.example_id,
        )
        predicted = prediction.text
        if not predicted.strip():
            return self.gold_evidence(example), ""
        result = self.distiller.distill_one(
            example.question, predicted, example.context
        )
        return result, predicted

    # ------------------------------------------------------------- ratings
    def expected_evidence_length(self, question: str, answer: str) -> int:
        """The Table I rubric's "expected evidence" length estimate.

        An ideal evidence restates the question's significant content with
        the answer plus minimal syntactic glue.
        """
        significant = [
            w for w in word_tokens(question) if not is_insignificant(w)
        ]
        return max(4, len(word_tokens(answer)) + len(significant) + 3)

    def question_coverage(self, question: str, evidence: str) -> float:
        """Fraction of significant question words matched in the evidence.

        Matching reuses QWS (surface, stem, or lexicon relative), which is
        exactly what a human checks when judging whether an evidence is
        "related to the QA pair" (Table I rubric).
        """
        from repro.text.tokenizer import tokenize

        qws = self.gced.qws
        significant = qws.significant_question_words(question)
        if not significant:
            return 1.0
        result = qws.select(question, tokenize(evidence))
        return len(result.matches) / len(significant)

    def rating_record(
        self, result: DistillationResult, question: str, answer: str
    ) -> RatingRecord:
        """Machine-score inputs for the simulated rater panel."""
        expected = self.expected_evidence_length(question, answer)
        length = max(1, len(word_tokens(result.evidence)))
        return RatingRecord(
            informativeness=result.scores.informativeness,
            length_ratio=length / expected,
            readability=result.scores.readability,
            question_coverage=self.question_coverage(question, result.evidence),
        )

    def rating_record_for_text(
        self, evidence: str, question: str, answer: str
    ) -> RatingRecord:
        """Rating record for a baseline evidence (plain text, not GCED)."""
        scores = self.gced.scorer.score(question, answer, evidence)
        expected = self.expected_evidence_length(question, answer)
        length = max(1, len(word_tokens(evidence)))
        return RatingRecord(
            informativeness=scores.informativeness,
            length_ratio=length / expected,
            readability=scores.readability,
            question_coverage=self.question_coverage(question, evidence),
        )
