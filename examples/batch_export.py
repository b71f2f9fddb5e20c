"""Batch distillation with JSONL export and an HTML review page.

The deployment workflow: distill evidences for a whole dataset split with
the cache-aware batch runner, persist them as JSONL for the serving layer,
and render an HTML page a reviewer can open to audit the evidences.

Run:  python examples/batch_export.py
"""

import pathlib

from repro import GCED, QATrainer
from repro.core import BatchDistiller, write_results_jsonl
from repro.datasets import load_dataset
from repro.viz import evidence_html

OUT_DIR = pathlib.Path("batch_output")


def main() -> None:
    dataset = load_dataset("squad11", seed=4, n_train=40, n_dev=20)
    artifacts = QATrainer(seed=0).train(dataset.contexts())
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)

    examples = dataset.answerable_dev()[:12]
    # Fan distillation out over the engine's process pool; results come
    # back in input order regardless of worker count.
    with BatchDistiller(gced, workers=2) as batch:
        results = batch.distill_examples(examples)
        stats = batch.stats()
    print(stats.summary())
    print(stats.profile.report())

    OUT_DIR.mkdir(exist_ok=True)
    jsonl_path = OUT_DIR / "evidences.jsonl"
    count = write_results_jsonl(
        jsonl_path,
        (
            (e.question, e.primary_answer, r)
            for e, r in zip(examples, results)
        ),
    )
    print(f"wrote {count} records to {jsonl_path}")

    blocks = [
        evidence_html(e.question, e.primary_answer, e.context, r)
        for e, r in zip(examples, results)
    ]
    html_path = OUT_DIR / "review.html"
    html_path.write_text(
        "<html><head><meta charset='utf-8'><style>"
        "body{font-family:sans-serif;max-width:50em;margin:2em auto}"
        "mark{background:#fdf3b4} mark.answer{background:#a6e3a1}"
        ".gced-evidence{border-bottom:1px solid #ccc;padding:1em 0}"
        "</style></head><body><h1>GCED evidence review</h1>"
        + "\n".join(blocks)
        + "</body></html>"
    )
    print(f"wrote review page to {html_path}")


if __name__ == "__main__":
    main()
