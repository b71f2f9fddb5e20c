"""Experiment runners — one function per paper table/figure.

Every runner takes an :class:`ExperimentContext` plus sample-size knobs and
returns structured rows; the benchmark modules format and print them.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import BatchDistiller
from repro.core.pipeline import GCED
from repro.datasets.types import QAExample
from repro.eval.context import ExperimentContext
from repro.eval.human import RaterPanel, RatingRecord
from repro.metrics.overlap import exact_match, f1_score
from repro.text.tokenizer import word_tokens
from repro.utils.rng import rng_from

__all__ = [
    "human_evaluation_table",
    "qa_augmentation_table",
    "ablation_table",
    "degradation_curves",
    "reduction_statistics",
    "agreement_table",
]


def _eval_examples(ctx: ExperimentContext, n: int) -> list[QAExample]:
    examples = ctx.dataset.answerable_dev()
    if not examples:
        raise ValueError("dataset has no answerable dev examples")
    return examples[:n]


# --------------------------------------------------------------- Tables IV/V
def human_evaluation_table(
    ctx: ExperimentContext,
    n_examples: int = 24,
    panel: RaterPanel | None = None,
) -> list[dict]:
    """Tables IV/V: human-eval I/C/R/H per answer source (9 models + gt).

    Predicted-answer rows distill evidence from each model's prediction;
    the ground-truth row distills from gold answers.  Informativeness is
    always measured against the *input* answer (the paper's definition).
    """
    panel = panel or RaterPanel(seed=ctx.seed)
    examples = _eval_examples(ctx, n_examples)
    ctx.prewarm_gold(examples)
    rows: list[dict] = []
    for name, model in ctx.baselines.items():
        records: list[RatingRecord] = []
        for example in examples:
            result, predicted = ctx.predicted_evidence(example, model)
            answer = predicted or example.primary_answer
            if not result.evidence:
                continue
            records.append(
                ctx.rating_record(result, example.question, answer)
            )
        outcome = panel.rate(records, label=f"{ctx.dataset.key}:{name}")
        i, c, r, h = outcome.row()
        rows.append(
            {"source": name, "I": i, "C": c, "R": r, "H": h,
             "n": outcome.n_items, "discarded": outcome.n_discarded}
        )
    # Ground-truth row.
    records = []
    for example in examples:
        result = ctx.gold_evidence(example)
        if not result.evidence:
            continue
        records.append(
            ctx.rating_record(result, example.question, example.primary_answer)
        )
    outcome = panel.rate(records, label=f"{ctx.dataset.key}:ground-truth")
    i, c, r, h = outcome.row()
    rows.append(
        {"source": "Ground-truth", "I": i, "C": c, "R": r, "H": h,
         "n": outcome.n_items, "discarded": outcome.n_discarded}
    )
    return rows


# -------------------------------------------------------------- Tables VI/VII
def qa_augmentation_table(
    ctx: ExperimentContext, n_examples: int = 40
) -> list[dict]:
    """Tables VI/VII: EM/F1 of each baseline vs its +GCED variant.

    The +GCED variant answers from the evidence distilled with the
    ground-truth answer (the paper's ideal-setting experiment); the gain is
    mechanistic — distilled evidences carry fewer distractor spans.
    """
    examples = _eval_examples(ctx, n_examples)
    ctx.prewarm_gold(examples)
    evidences = {e.example_id: ctx.gold_evidence(e).evidence for e in examples}
    rows: list[dict] = []
    for name, model in ctx.baselines.items():
        base_em = base_f1 = aug_em = aug_f1 = 0.0
        for example in examples:
            gold = example.primary_answer
            base_pred = model.predict_example(
                example.question, example.context, gold, example.example_id
            )
            base_em += exact_match(base_pred.text, gold)
            base_f1 += f1_score(base_pred.text, gold)
            evidence = evidences[example.example_id] or example.context
            aug_pred = model.predict_example(
                example.question, evidence, gold, example.example_id
            )
            aug_em += exact_match(aug_pred.text, gold)
            aug_f1 += f1_score(aug_pred.text, gold)
        n = len(examples)
        rows.append(
            {
                "model": name,
                "EM": 100.0 * base_em / n,
                "F1": 100.0 * base_f1 / n,
                "EM+GCED": 100.0 * aug_em / n,
                "F1+GCED": 100.0 * aug_f1 / n,
            }
        )
    return rows


# ----------------------------------------------------------------- Table VIII
def ablation_table(
    ctx: ExperimentContext,
    model_name: str = "BERT-large",
    n_examples: int = 24,
    panel: RaterPanel | None = None,
) -> list[dict]:
    """Table VIII: effect of removing each GCED component.

    Run on one baseline model (the paper uses BERT on SQuAD-2.0): for each
    ablation, distill ground-truth-based evidences, rate them with the
    panel, and measure the model's EM/F1 with the evidence as context.

    Each ablated config resolves to a different engine stage plan
    (``stage_plan(config)``) — e.g. "w/o ASE" substitutes the
    ``ase-passthrough`` stage — and each condition's distillation runs as
    one context-grouped batch on the engine executor.
    """
    panel = panel or RaterPanel(seed=ctx.seed)
    model = ctx.baselines[model_name]
    examples = _eval_examples(ctx, n_examples)
    components = ["ase", "qws", "grow", "clip", "i", "c", "r", None]
    rows: list[dict] = []
    for component in components:
        config = ctx.gced.config if component is None else ctx.gced.config.ablate(component)
        gced = GCED(
            qa_model=ctx.artifacts.reader,
            artifacts=ctx.artifacts,
            config=config,
        )
        with BatchDistiller(
            gced, workers=ctx.distiller.executor.workers
        ) as distiller:
            results = distiller.distill_examples(examples)
        records: list[RatingRecord] = []
        em = f1 = 0.0
        for example, result in zip(examples, results):
            gold = example.primary_answer
            evidence = result.evidence or example.context
            records.append(
                ctx.rating_record(result, example.question, gold)
                if result.evidence
                else ctx.rating_record_for_text(evidence, example.question, gold)
            )
            pred = model.predict_example(
                example.question, evidence, gold, example.example_id
            )
            em += exact_match(pred.text, gold)
            f1 += f1_score(pred.text, gold)
        outcome = panel.rate(records, label=f"ablate:{component}")
        i, c, r, h = outcome.row()
        label = "full" if component is None else f"w/o {component.upper()}"
        n = len(examples)
        rows.append(
            {"source": label, "I": i, "C": c, "R": r, "H": h,
             "EM": 100.0 * em / n, "F1": 100.0 * f1 / n}
        )
    return rows


# --------------------------------------------------------------------- Fig. 7
def degradation_curves(
    ctx: ExperimentContext,
    deltas: tuple[float, ...] = (0.0, 0.2, 0.5, 0.8, 1.0),
    n_examples: int = 30,
    model_names: tuple[str, ...] | None = None,
) -> list[dict]:
    """Fig. 7: QA performance vs fraction δ of predicted-answer evidences.

    For each δ, a deterministic δ-fraction of examples has its evidence
    distilled from the model's *predicted* answer instead of the gold one;
    the model is then evaluated with those evidences as contexts.  Wrong
    predicted answers yield evidences that may omit the gold span, which is
    the degradation mechanism.
    """
    examples = _eval_examples(ctx, n_examples)
    ctx.prewarm_gold(examples)
    names = list(model_names or ctx.baselines)
    rows: list[dict] = []
    for name in names:
        model = ctx.baselines[name]
        # Deterministic substitution order shared across deltas so curves
        # are nested (pred20 ⊂ pred50 ⊂ ...), as in the paper's setup.
        order = rng_from(ctx.seed, f"degradation:{name}").permutation(
            len(examples)
        )
        pred_results: dict[str, tuple] = {}
        for example in examples:
            pred_results[example.example_id] = ctx.predicted_evidence(
                example, model
            )
        for delta in deltas:
            n_pred = int(round(delta * len(examples)))
            use_pred = {examples[i].example_id for i in order[:n_pred]}
            em = f1 = 0.0
            for example in examples:
                gold = example.primary_answer
                if example.example_id in use_pred:
                    result, predicted = pred_results[example.example_id]
                    evidence = result.evidence or example.context
                else:
                    evidence = ctx.gold_evidence(example).evidence or example.context
                pred = model.predict_example(
                    example.question,
                    evidence,
                    gold,
                    example.example_id,
                )
                em += exact_match(pred.text, gold)
                f1 += f1_score(pred.text, gold)
            n = len(examples)
            rows.append(
                {
                    "model": name,
                    "delta": delta,
                    "EM": 100.0 * em / n,
                    "F1": 100.0 * f1 / n,
                }
            )
    return rows


# ------------------------------------------------------- word reduction (§IV-D1)
def reduction_statistics(
    ctx: ExperimentContext, n_examples: int = 30
) -> dict:
    """Mean fraction of context words removed by distillation.

    The paper reports 78.5% on SQuAD and 87.2% on TriviaQA.
    """
    examples = _eval_examples(ctx, n_examples)
    ctx.prewarm_gold(examples)
    reductions = []
    lengths_ctx = []
    lengths_ev = []
    for example in examples:
        result = ctx.gold_evidence(example)
        if not result.evidence:
            continue
        reductions.append(result.reduction)
        lengths_ctx.append(len(word_tokens(example.context)))
        lengths_ev.append(len(word_tokens(result.evidence)))
    return {
        "dataset": ctx.dataset.key,
        "mean_reduction": float(np.mean(reductions)),
        "mean_context_words": float(np.mean(lengths_ctx)),
        "mean_evidence_words": float(np.mean(lengths_ev)),
        "n": len(reductions),
    }


# ------------------------------------------------------------------- Table II
def agreement_table(
    ctx: ExperimentContext,
    n_examples: int = 24,
    panel: RaterPanel | None = None,
) -> list[dict]:
    """Table II: Krippendorff's alpha per criterion per rater group."""
    panel = panel or RaterPanel(seed=ctx.seed)
    examples = _eval_examples(ctx, n_examples)
    ctx.prewarm_gold(examples)
    records = []
    for example in examples:
        result = ctx.gold_evidence(example)
        if result.evidence:
            records.append(
                ctx.rating_record(
                    result, example.question, example.primary_answer
                )
            )
    outcome = panel.rate(records, label=f"{ctx.dataset.key}:agreement")
    rows = []
    for criterion in ("informativeness", "conciseness", "readability"):
        row = {"criterion": criterion}
        for g in range(panel.n_groups):
            row[f"group{g + 1}"] = outcome.alpha.get((criterion, g), float("nan"))
        rows.append(row)
    # Hybrid row: mean alpha across criteria per group (the paper reports a
    # hybrid-score agreement line as well).
    hybrid = {"criterion": "hybrid"}
    for g in range(panel.n_groups):
        hybrid[f"group{g + 1}"] = float(
            np.mean([rows[k][f"group{g + 1}"] for k in range(3)])
        )
    rows.append(hybrid)
    return rows
