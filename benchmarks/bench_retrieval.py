"""Retrieval subsystem throughput — index build, query, end-to-end ask.

Three measurements, all feeding the CI perf gate:

* **index build** (docs/sec): columnar inverted-index construction,
  serial vs thread-pool, with the byte-identity contract asserted on
  every run;
* **query** (queries/sec + p50/p95 ms): BM25 top-3 over the seeded
  20,000-paragraph ``/ask`` corpus of ``perfbench.inputs.ask_corpus``:
  the gold paragraph of every query, hidden among filler paragraphs that
  realise knowledge-base facts with the same templates
  (:mod:`repro.datasets.kb`, :mod:`repro.datasets.templates`).  The
  corpus and its index are built outside the timed leg; the query list
  runs ``QUERY_ROUNDS`` times and the median round is reported, with
  recall@3 on the gold paragraphs asserted;
* **ask** (asks/sec): the full open-context path — retrieve top-k,
  distill every candidate on the batch engine, re-rank by hybrid
  evidence score.

Results land in ``benchmarks/results/retrieval.{txt,json}``; the JSON
metrics are gated against ``baseline.json`` by ``perf_gate.py``.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.common import emit, emit_json, get_context, sample_size

N_QUERIES = sample_size("BENCH_RETRIEVAL_QUERIES", 80)
N_CORPUS = 20_000
QUERY_ROUNDS = 5
N_ASKS = sample_size("BENCH_ASK_REQUESTS", 8)
BUILD_REPEATS = sample_size("BENCH_INDEX_BUILD_REPEATS", 5)
TOP_K = 3
MIN_RECALL = 0.8
SEED = 0


def _measure_build(docs: list[str], workers: int, backend: str):
    from repro.retrieval import CorpusRetriever, index_to_json

    started = time.perf_counter()
    for _ in range(BUILD_REPEATS):
        retriever = CorpusRetriever.build(
            docs, n_shards=4, workers=workers, backend=backend
        )
    elapsed = time.perf_counter() - started
    docs_per_sec = len(docs) * BUILD_REPEATS / elapsed
    return retriever, docs_per_sec, index_to_json(retriever.index)


def _measure_queries(retriever, queries, gold_ids):
    """Median-round queries/sec, pooled latencies, and recall@k."""
    rounds, latencies, hits = [], [], 0
    for round_no in range(QUERY_ROUNDS):
        round_started = time.perf_counter()
        for (question, answer), gold in zip(queries, gold_ids):
            started = time.perf_counter()
            found = retriever.retrieve(f"{question} {answer}", k=TOP_K)
            latencies.append((time.perf_counter() - started) * 1000.0)
            if round_no == 0:
                hits += gold in [hit.doc_id for hit in found]
        rounds.append(len(queries) / (time.perf_counter() - round_started))
    return rounds, latencies, hits / len(queries)


def test_retrieval_throughput():
    from perfbench.inputs import ask_corpus
    from repro.core import BatchDistiller, OpenContextDistiller
    from repro.core.pipeline import GCED
    from repro.retrieval import CorpusRetriever

    ctx = get_context("squad11")
    docs = list(ctx.dataset.contexts())
    examples = ctx.dataset.answerable_dev()

    retriever, serial_build, serial_bytes = _measure_build(docs, 1, "thread")
    _parallel, parallel_build, parallel_bytes = _measure_build(
        docs, 4, "thread"
    )
    assert parallel_bytes == serial_bytes, "parallel index build diverged"

    asks = ask_corpus(SEED, N_QUERIES, size=N_CORPUS)
    large = CorpusRetriever.build(asks.corpus)
    rounds, latencies, recall = _measure_queries(large, asks.asks, asks.gold_ids)
    assert recall >= MIN_RECALL, f"recall@{TOP_K} {recall:.3f} < {MIN_RECALL}"
    queries_per_sec = statistics.median(rounds)
    round_quartiles = statistics.quantiles(rounds, n=4)
    p50 = statistics.median(latencies)
    p95 = statistics.quantiles(latencies, n=20)[-1]

    gced = GCED(qa_model=ctx.artifacts.reader, artifacts=ctx.artifacts)
    with OpenContextDistiller(
        BatchDistiller(gced), retriever, top_k=2
    ) as distiller:
        started = time.perf_counter()
        outcomes = [
            distiller.ask(example.question, example.primary_answer)
            for example in examples[:N_ASKS]
        ]
        ask_elapsed = time.perf_counter() - started
    assert all(outcome.best is not None for outcome in outcomes)
    asks_per_sec = len(outcomes) / ask_elapsed

    lines = [
        "retrieval throughput",
        f"  index build  serial   {serial_build:>9.1f} docs/s "
        f"({len(docs)} squad11 docs x {BUILD_REPEATS} builds)",
        f"  index build  thread:4 {parallel_build:>9.1f} docs/s (byte-identical)",
        f"  query top-{TOP_K}  {queries_per_sec:>9.1f} q/s   "
        f"(median of {QUERY_ROUNDS} rounds, IQR "
        f"{round_quartiles[0]:.1f}-{round_quartiles[2]:.1f})  "
        f"p50 {p50:.2f}ms  p95 {p95:.2f}ms  recall@{TOP_K} {recall:.3f}  "
        f"({len(asks.asks)} queries over {len(asks.corpus)} paragraphs)",
        f"  open-context ask (k=2) {asks_per_sec:>6.2f} asks/s "
        f"({len(outcomes)} asks, retrieve+distill+rank)",
    ]
    emit("retrieval", "\n".join(lines))
    emit_json(
        "retrieval",
        {
            "docs": len(docs),
            "corpus": len(asks.corpus),
            "queries": len(asks.asks),
            "query_rounds": QUERY_ROUNDS,
            "asks": len(outcomes),
            "recall_at_k": round(recall, 4),
            "query_latency_ms": {
                "p50": round(p50, 3),
                "p95": round(p95, 3),
            },
            "metrics": {
                "retrieval.build_docs_per_sec": round(serial_build, 2),
                "retrieval.queries_per_sec": round(queries_per_sec, 2),
                "retrieval.ask_per_sec": round(asks_per_sec, 2),
            },
        },
    )
