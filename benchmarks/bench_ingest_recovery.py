"""Ingest durability cost — gates WAL throughput and crash recovery.

Two legs, both over the real :class:`~repro.retrieval.ingest.IngestManager`:

* **Throughput** — group-committed adds (append + crc + fsync per batch)
  into a fresh directory; ``ingest.docs_per_sec`` is the sustained
  durable-write rate, gated downward.  A regression here means the WAL
  write path grew an extra fsync, copy, or serialization pass.
* **Crash recovery** — a child process ingests the same corpus and is
  SIGKILLed mid-stream by a deterministic ``REPRO_FAULTS`` plan
  (``wal.append:die``, one-shot via a token file); the parent then times
  a cold :meth:`IngestManager.open` over the survivor directory.
  ``ingest.recovery_ms`` is the median torn-tail-truncate + replay
  wall-clock, gated upward.  Every round asserts no acknowledged write
  was lost and that the recovered index equals an independent offline
  rebuild (segment + WAL replay) — recovery must be correct, not just
  fast.

JSON metrics feed ``benchmarks/perf_gate.py``:

* ``ingest.docs_per_sec`` — durable ingest throughput (gated downward).
* ``ingest.recovery_ms`` — median crash-recovery wall-clock (gated
  upward, like every ``_ms`` key).

A kill-during-compaction recovery time rides along as context.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

from benchmarks.common import emit, emit_json, sample_size

from repro.faults import ENV_VAR
from repro.retrieval import (
    BM25Scorer,
    IngestManager,
    MutableInvertedIndex,
    WriteAheadLog,
    load_segment,
)

N_DOCS = sample_size("BENCH_INGEST_DOCS", 240)
BATCH = sample_size("BENCH_INGEST_BATCH", 8)
N_ROUNDS = sample_size("BENCH_INGEST_ROUNDS", 3)

SEED_CORPUS = [
    "the battle of hastings was fought in 1066",
    "denver broncos won the super bowl title",
    "beyonce was born and raised in houston texas",
    "the norman conquest followed the battle of hastings",
]

_CHILD = """
import sys
from repro.faults import install_from_env
from repro.retrieval import IngestManager

install_from_env()
directory, n_docs, batch = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
seed = {seed!r}
mode = sys.argv[4]
manager = IngestManager.open(directory, base_corpus=seed)
for start in range(0, n_docs, batch):
    texts = [
        f"synthetic corpus paragraph {{i}} about topic{{i % 17}} "
        f"entity{{i % 29}} token{{i}}"
        for i in range(start, min(start + batch, n_docs))
    ]
    ids = manager.add_documents(texts)
    for doc_id in ids:
        print(f"ACK {{doc_id}}", flush=True)
    if mode == "compact" and start >= n_docs // 2:
        manager.compact()
        print("ACK compact", flush=True)
print("DONE", flush=True)
"""


def _doc_text(i: int) -> str:
    return (
        f"synthetic corpus paragraph {i} about topic{i % 17} "
        f"entity{i % 29} token{i}"
    )


def _throughput_leg(directory: pathlib.Path) -> float:
    with IngestManager.open(directory, base_corpus=SEED_CORPUS) as manager:
        started = time.perf_counter()
        for start in range(0, N_DOCS, BATCH):
            manager.add_documents(
                [_doc_text(i) for i in range(start, min(start + BATCH, N_DOCS))]
            )
        elapsed = time.perf_counter() - started
        assert manager.stats()["docs_added"] == N_DOCS
    return N_DOCS / elapsed


def _offline_rebuild(directory: pathlib.Path) -> MutableInvertedIndex:
    segment = load_segment(directory / "segment.json")
    reference = MutableInvertedIndex(segment.index, segment.tombstones)
    records, _torn = WriteAheadLog.replay(directory / "wal.log")
    for record in records:
        if record.seq <= segment.applied_seq:
            continue
        if record.op == "add":
            reference.apply_add(record.doc_id, record.text)
        else:
            reference.apply_delete(record.doc_id)
    return reference


def _crashed_round(directory: pathlib.Path, plan: str, mode: str) -> float:
    """SIGKILL a child mid-ingest; return the parent's recovery ms."""
    with tempfile.NamedTemporaryFile(delete=False) as handle:
        token = handle.name
    try:
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                _CHILD.format(seed=SEED_CORPUS),
                str(directory),
                str(N_DOCS),
                str(BATCH),
                mode,
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, ENV_VAR: f"{plan},token={token}"},
        )
    finally:
        if os.path.exists(token):
            os.unlink(token)
    lines = result.stdout.splitlines()
    assert "DONE" not in lines, (
        f"kill plan {plan!r} never fired ({result.stderr[-400:]!r})"
    )
    assert result.returncode != 0
    acked = [
        int(line.split()[1]) for line in lines if line.startswith("ACK ")
        and line != "ACK compact"
    ]
    assert acked, "child died before acknowledging any write"

    started = time.perf_counter()
    manager = IngestManager.open(directory)
    recovery_ms = 1000.0 * (time.perf_counter() - started)
    try:
        for doc_id in acked:
            assert manager.index.doc_text(doc_id), (
                f"acknowledged write {doc_id} lost after {plan!r}"
            )
        reference = _offline_rebuild(directory)
        assert manager.index.docs == reference.docs
        scorer = BM25Scorer()
        for query in ("topic3 entity7", "token11", "battle of hastings"):
            assert scorer.score_all(manager.index, query) == (
                scorer.score_all(reference, query)
            ), "recovered index diverged from the offline rebuild"
    finally:
        manager.close()
    return recovery_ms


def test_ingest_recovery(tmp_path):
    docs_per_sec = _throughput_leg(tmp_path / "throughput")

    kill_after = max(2, (N_DOCS // BATCH) // 2)
    recovery_runs = []
    for round_no in range(N_ROUNDS):
        recovery_runs.append(
            _crashed_round(
                tmp_path / f"crash-{round_no}",
                f"wal.append:die:times=1,skip={kill_after * BATCH}",
                "ingest",
            )
        )
    recovery_ms = statistics.median(recovery_runs)
    assert recovery_ms > 0.0

    compact_recovery_ms = _crashed_round(
        tmp_path / "crash-compact",
        "compaction.run:die:times=1,match=swap",
        "compact",
    )

    lines = [
        f"durable ingest over {N_DOCS} docs (batch={BATCH}, fsync per "
        f"batch) x {N_ROUNDS} crash rounds:",
        f"throughput {docs_per_sec:.0f} docs/s; crash recovery "
        f"{recovery_ms:.1f}ms (median), kill-during-compaction recovery "
        f"{compact_recovery_ms:.1f}ms; no acknowledged write lost, "
        "recovered index equals the offline rebuild every round",
    ]
    emit("ingest_recovery", "\n".join(lines))
    emit_json(
        "ingest_recovery",
        {
            "docs": N_DOCS,
            "batch": BATCH,
            "rounds": N_ROUNDS,
            "compact_recovery_ms": round(compact_recovery_ms, 3),
            "metrics": {
                "ingest.docs_per_sec": round(docs_per_sec, 3),
                "ingest.recovery_ms": round(recovery_ms, 3),
            },
        },
    )
