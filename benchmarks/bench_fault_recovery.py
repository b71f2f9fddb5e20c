"""Worker crash recovery cost — gates the respawn-and-retry path.

Builds a process-backed :class:`~repro.core.batch.BatchDistiller`, kills
one worker mid-batch with a genuine ``SIGKILL`` (the deterministic
``REPRO_FAULTS`` plan, one-shot via a token file so respawned workers
cannot re-fire it), and measures how long the
:class:`~repro.engine.executor.ParallelExecutor` takes to notice the
broken pool, respawn the workers (each forked with the pipeline),
and retry the failed chunks.  Every round asserts the recovered batch is
byte-identical to a serial run of the same triples — recovery must be
invisible in the outputs, not just eventual.

JSON metrics feed ``benchmarks/perf_gate.py``:

* ``faults.recovery_ms`` — median respawn-and-retry wall-clock inside
  the executor; a latency metric, gated upward.  This is the number an
  operator's tail latency eats when a worker OOMs, so silent
  regressions (e.g. an accidental cold respawn) must trip CI.

The healthy-batch wall-clock and the recovered-batch wall-clock ride
along as context (absolute, hardware-dependent).
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

from benchmarks.common import emit, emit_json, get_context, sample_size

from repro.core import BatchDistiller
from repro.faults import ENV_VAR, uninstall

N_EXAMPLES = sample_size("BENCH_FAULTS_EXAMPLES", 8)
N_ROUNDS = sample_size("BENCH_FAULTS_ROUNDS", 3)


def _fresh_pipeline(ctx):
    from repro.core.pipeline import GCED
    from repro.parsing.dependency import SyntacticParser

    return GCED(
        qa_model=ctx.artifacts.reader,
        artifacts=ctx.artifacts,
        parser=SyntacticParser(),
    )


def _recovered_round(ctx, triples, reference):
    """One crash-and-recover batch; returns (batch_ms, recovery_ms)."""
    with tempfile.NamedTemporaryFile(delete=False) as handle:
        token = handle.name
    os.environ[ENV_VAR] = f"worker.distill:die:times=1,token={token}"
    try:
        gced = _fresh_pipeline(ctx)
        with BatchDistiller(gced, workers=2, backend="process") as batch:
            started = time.perf_counter()
            results = batch.distill_many(triples)
            batch_ms = 1000.0 * (time.perf_counter() - started)
            recovery = batch.executor.recovery_stats()
        assert recovery["pool_breaks"] == 1, (
            f"expected exactly one pool break, saw {recovery['pool_breaks']} "
            "(did the kill fault fire?)"
        )
        assert [r.evidence for r in results] == reference, (
            "recovered batch diverged from the serial reference"
        )
        return batch_ms, recovery["last_recovery_ms"]
    finally:
        os.environ.pop(ENV_VAR, None)
        uninstall()
        if os.path.exists(token):
            os.unlink(token)


def test_fault_recovery():
    ctx = get_context("squad11")
    examples = ctx.dataset.answerable_dev()[:N_EXAMPLES]
    triples = [(e.question, e.primary_answer, e.context) for e in examples]

    parent = _fresh_pipeline(ctx)
    reference = [parent.distill(*triple).evidence for triple in triples]

    # Healthy leg: same pool shape, no faults — the baseline wall-clock
    # a recovered batch is compared against in the context payload.
    gced = _fresh_pipeline(ctx)
    with BatchDistiller(gced, workers=2, backend="process") as batch:
        started = time.perf_counter()
        healthy = batch.distill_many(triples)
        healthy_ms = 1000.0 * (time.perf_counter() - started)
    assert [r.evidence for r in healthy] == reference

    batch_ms_runs, recovery_ms_runs = [], []
    for _ in range(N_ROUNDS):
        batch_ms, recovery_ms = _recovered_round(ctx, triples, reference)
        batch_ms_runs.append(batch_ms)
        recovery_ms_runs.append(recovery_ms)

    recovery_ms = statistics.median(recovery_ms_runs)
    recovered_batch_ms = statistics.median(batch_ms_runs)
    assert recovery_ms > 0.0, "executor reported no recovery time"

    lines = [
        f"fault recovery over {len(triples)} triples x {N_ROUNDS} rounds "
        "(one worker SIGKILLed mid-batch each round):",
        f"respawn-and-retry {recovery_ms:.1f}ms; recovered batch "
        f"{recovered_batch_ms:.1f}ms vs healthy {healthy_ms:.1f}ms; "
        "outputs byte-identical to serial every round",
    ]
    emit("fault_recovery", "\n".join(lines))
    emit_json(
        "fault_recovery",
        {
            "examples": len(triples),
            "rounds": N_ROUNDS,
            "healthy_batch_ms": round(healthy_ms, 3),
            "recovered_batch_ms": round(recovered_batch_ms, 3),
            "metrics": {
                "faults.recovery_ms": round(recovery_ms, 3),
            },
        },
    )
