"""Hot-path profile of the distillation stages — gates the clip search.

Runs a cold pipeline over a squad11 dev slice and reports per-stage
timings, then times cold single distillations.  The full
per-stage/per-cache report lands in
``benchmarks/results/distill_profile.txt`` (uploaded as a CI artifact so
regressions are diagnosable from the workflow run); the JSON metrics
feed ``benchmarks/perf_gate.py``:

* ``distill.oec_ms`` / ``distill.ase_ms`` — mean stage wall-clock per
  call on the cold pass.  Latency metrics (``*_ms``) gate in the
  *upward* direction, at double the base tolerance to absorb
  runner-hardware variance: the gate fails when they grow more than that
  above baseline.
* ``distill.cold_ms`` — the median wall-clock of one cold
  ``GCED.distill`` over at least ``COLD_SECONDS`` of unique squad11
  triples (train and dev).  Each pass over the triples runs on a fresh
  pipeline with a fresh compiled-context cache, so no triple is ever
  distilled twice by one pipeline; the interquartile range is emitted
  beside it (``cold_distill.iqr_ms``, not gated).
* ``qa.predict_ms`` / ``qa.predict_prepared_ms`` — mean single
  ``reader.predict`` latency on warm repeated contexts, through the
  compiled-context artifact vs the inline prepared path (compiler
  disabled); both gate upward.

The JSON payload also carries the parse / informativeness /
compiled-context hit rates of the cold pass.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.common import emit, emit_json, get_context, sample_size

N_EXAMPLES = sample_size("BENCH_N_EXAMPLES", 16)
N_PREDICT_ROUNDS = sample_size("BENCH_PREDICT_ROUNDS", 5)
# Minimum measured time behind distill.cold_ms.
COLD_SECONDS = 1.0


def _cache_counts(gced) -> dict[str, tuple[int, int]]:
    """Live (hits, misses) per shared cache."""
    return {
        name: cache.snapshot()[:2]
        for name, cache in gced.shared_caches().items()
    }


def _delta(after: dict, before: dict) -> dict[str, dict]:
    """Per-cache hit/miss deltas between two snapshots."""
    out = {}
    for name, (hits, misses) in after.items():
        hits0, misses0 = before.get(name, (0, 0))
        d_hits, d_misses = hits - hits0, misses - misses0
        lookups = d_hits + d_misses
        out[name] = {
            "hits": d_hits,
            "misses": d_misses,
            "hit_rate": round(d_hits / lookups, 4) if lookups else 0.0,
        }
    return out


def _clear_prediction_memos(reader) -> None:
    """Drop whole-prediction memos so predict re-runs span scoring.

    The compiled context memoizes the *final* prediction per (model,
    question); a latency metric over repeated pairs would otherwise
    measure a dictionary hit (~1µs), which is meaningless to gate and
    brittle against a near-zero baseline.  Clearing only the prediction
    memo keeps the artifact tables (tokens, preps, tags) warm — exactly
    the path ``qa.predict_ms`` exists to protect.
    """
    compiler = reader.context_compiler
    if compiler is None:
        return
    for _, compiled in compiler.cache.items():
        compiled._predictions.clear()


def _predict_ms(reader, pairs, rounds: int) -> float:
    """Mean warm predict latency over ``pairs``, ``rounds`` repetitions."""
    for question, context in pairs:  # warm caches (question + context side)
        reader.predict(question, context)
    elapsed = 0.0
    for _ in range(rounds):
        _clear_prediction_memos(reader)
        started = time.perf_counter()
        for question, context in pairs:
            reader.predict(question, context)
        elapsed += time.perf_counter() - started
    return 1000.0 * elapsed / (rounds * len(pairs))


def _cold_distill_ms(ctx) -> list[float]:
    """Per-triple wall-clock of cold ``GCED.distill`` calls, in ms.

    Passes over the unique answerable squad11 triples until at least
    ``COLD_SECONDS`` are measured; every pass builds a fresh pipeline and
    compiled-context cache, so each timed call is a first encounter.
    """
    from repro.core.pipeline import GCED
    from repro.qa.compiled import ContextCompiler

    examples = ctx.dataset.train + ctx.dataset.answerable_dev()
    triples = list(
        dict.fromkeys(
            (e.question, e.primary_answer, e.context)
            for e in examples
            if e.primary_answer
        )
    )
    reader = ctx.artifacts.reader
    timings: list[float] = []
    while sum(timings) < 1000.0 * COLD_SECONDS:
        reader.context_compiler = ContextCompiler()
        gced = GCED(qa_model=reader, artifacts=ctx.artifacts)
        for triple in triples:
            started = time.perf_counter()
            gced.distill(*triple)
            timings.append(1000.0 * (time.perf_counter() - started))
    return timings


def test_distill_stage_profile():
    from repro.core import BatchDistiller
    from repro.core.pipeline import GCED

    ctx = get_context("squad11")
    examples = ctx.dataset.answerable_dev()[:N_EXAMPLES]

    # Fresh pipeline (cold scorer/clip caches) AND a fresh compiled-
    # context cache: the shared reader's compiler is per-model state, so
    # without the reset the "cold" pass would inherit whatever earlier
    # benchmark modules compiled in the same pytest process, making the
    # *_ms metrics depend on file order.  Only the shared parser memo
    # stays warm, as in a long-lived deployment.
    from repro.qa.compiled import ContextCompiler

    reader = ctx.artifacts.reader
    saved_compiler = reader.context_compiler
    reader.context_compiler = ContextCompiler()
    try:
        gced = GCED(
            qa_model=reader,
            artifacts=ctx.artifacts,
            parser=ctx.gced.wsptc.parser,
        )
        with BatchDistiller(gced) as batch:
            results = batch.distill_examples(examples)
        assert len(results) == len(examples)

        cold_counts = _cache_counts(gced)
        cold_oec = gced.profile.stages["oec"]
        cold_ase = gced.profile.stages["ase"]
        assert cold_oec.calls > 0 and cold_ase.calls > 0
        cold_oec_ms = cold_oec.mean_ms
        cold_ase_ms = cold_ase.mean_ms

        profile = batch.stats().profile

        # Warm single-predict latency: compiled artifact vs inline
        # prepared path, on the cold pass's question/paragraph mix.
        pairs = [(e.question, e.context) for e in examples[:8]]
        predict_compiled_ms = _predict_ms(reader, pairs, N_PREDICT_ROUNDS)
        reader.context_compiler = None
        predict_prepared_ms = _predict_ms(reader, pairs, N_PREDICT_ROUNDS)

        hit_rates = {
            name: stats["hit_rate"]
            for name, stats in _delta(cold_counts, {}).items()
            if name in ("parse", "informativeness", "compiled_contexts")
        }
        cold_ms = _cold_distill_ms(ctx)
    finally:
        reader.context_compiler = saved_compiler

    q1, _median, q3 = statistics.quantiles(cold_ms, n=4)
    emit("distill_profile", profile.report())
    emit_json(
        "distill_profile",
        {
            "examples": len(examples),
            "stages": {
                name: timing.to_dict()
                for name, timing in profile.stages.items()
            },
            "cache_hit_rates": hit_rates,
            "cold_distill": {
                "calls": len(cold_ms),
                "seconds": round(sum(cold_ms) / 1000.0, 3),
                "median_ms": round(statistics.median(cold_ms), 3),
                "iqr_ms": round(q3 - q1, 3),
            },
            "metrics": {
                "distill.oec_ms": round(cold_oec_ms, 3),
                "distill.ase_ms": round(cold_ase_ms, 3),
                "distill.cold_ms": round(statistics.median(cold_ms), 3),
                "qa.predict_ms": round(predict_compiled_ms, 3),
                "qa.predict_prepared_ms": round(predict_prepared_ms, 3),
            },
        },
    )
