"""Snapshot plane cost — gates snapshot build, segment size and worker load.

Builds process-pool distillers (``workers=2``, snapshot on) over a fresh
pipeline, exactly as production callers do, and reads the plane's costs
from :meth:`BatchDistiller.snapshot_info`.  Every round's pool outputs
must equal the serial outputs byte for byte.  JSON metrics feed
``benchmarks/perf_gate.py``:

* ``snapshot.build_ms`` — parent-side serialization cost of the ``lm``
  and ``index`` sections (median over rounds); a latency metric, gated
  upward.
* ``snapshot.bytes`` — packed segment size; gated upward (keys ending in
  ``bytes`` gate like latencies), so silent snapshot bloat trips CI
  before it hurts spawn time.
* ``snapshot.worker_load_ms`` — median per-worker initializer time
  (attach the segment, unpickle the payload, adopt the snapshot), the
  same name perfbench reports; gated upward.  This is the metric the
  1-CPU CI box gates in place of multi-core speedup.
* ``snapshot.payload_bytes`` — the initializer payload,
  ``len(dump_for_workers(gced))``; gated upward.

The full ``pickle.dumps(gced)`` size rides along as context
(``full_pickle_bytes``): the payload must stay below it, which shows the
LM tables leave the payload for the shared segment.
"""

from __future__ import annotations

import pickle
import statistics

from benchmarks.common import emit, emit_json, get_context, sample_size

N_EXAMPLES = sample_size("BENCH_SNAPSHOT_EXAMPLES", 10)
N_ROUNDS = sample_size("BENCH_SNAPSHOT_ROUNDS", 3)


def _fresh_pipeline(ctx):
    """A pipeline with cold caches sharing only the trained artifacts."""
    from repro.core.pipeline import GCED
    from repro.parsing.dependency import SyntacticParser

    return GCED(
        qa_model=ctx.artifacts.reader,
        artifacts=ctx.artifacts,
        parser=SyntacticParser(),
    )


def test_snapshot_plane_cost():
    from repro.core import BatchDistiller
    from repro.engine.snapshot import dump_for_workers
    from repro.qa.compiled import ContextCompiler

    ctx = get_context("squad11")
    examples = ctx.dataset.answerable_dev()[:N_EXAMPLES]
    triples = [(e.question, e.primary_answer, e.context) for e in examples]

    # The reader's compiled-context cache is per-model state shared
    # across benchmark modules; a fresh one keeps the full-pickle size
    # independent of which benchmarks ran first.
    reader = ctx.artifacts.reader
    saved_compiler = reader.context_compiler
    reader.context_compiler = ContextCompiler()
    try:
        parent = _fresh_pipeline(ctx)
        payload_bytes = len(dump_for_workers(parent))
        full_pickle_bytes = len(pickle.dumps(parent))
        serial = [parent.distill(*triple).evidence for triple in triples]

        build_ms_runs, load_ms_runs = [], []
        for _ in range(N_ROUNDS):
            with BatchDistiller(
                _fresh_pipeline(ctx), workers=2, backend="process"
            ) as batch:
                info = batch.snapshot_info()
                pooled = [r.evidence for r in batch.distill_many(triples)]
            assert pooled == serial
            build_ms_runs.append(info["build_ms"])
            load_ms_runs.extend(
                worker["snapshot_load_ms"] for worker in info["workers"]
            )
            nbytes = info["bytes"]
            sections = dict(info["sections"])
    finally:
        reader.context_compiler = saved_compiler

    assert nbytes > 0
    assert payload_bytes < full_pickle_bytes
    build_ms = statistics.median(build_ms_runs)
    worker_load_ms = statistics.median(load_ms_runs)

    lines = [
        "snapshot plane: "
        f"{nbytes} bytes packed in {build_ms:.1f}ms "
        f"({', '.join(f'{k}={v}' for k, v in sections.items())})",
        f"worker payload {payload_bytes} bytes vs full pickle "
        f"{full_pickle_bytes} bytes; worker load {worker_load_ms:.1f}ms "
        f"(median over {len(load_ms_runs)} worker starts in {N_ROUNDS} rounds)",
    ]
    emit("snapshot", "\n".join(lines))
    emit_json(
        "snapshot",
        {
            "examples": len(triples),
            "rounds": N_ROUNDS,
            "full_pickle_bytes": full_pickle_bytes,
            "sections": sections,
            "metrics": {
                "snapshot.build_ms": round(build_ms, 3),
                "snapshot.bytes": nbytes,
                "snapshot.worker_load_ms": round(worker_load_ms, 3),
                "snapshot.payload_bytes": payload_bytes,
            },
        },
    )
