"""The program host: the child process that runs GCED for one perfbench run.

``run.py`` starts this file with the generated inputs on stdin (one JSON
line) and reads JSON events from the protocol pipe (the process's
original stdout; anything the program prints goes to stderr).  Keeping
the program in its own process keeps the load generator's interpreter
lock out of the measured program and lets ``rss_mb`` cover exactly the
program's processes.

Modes:

* ``serve`` — build a :class:`DistillService` with ``from_corpus`` and
  serve it over HTTP with ``start_server``; emit ``ready`` with the port,
  wait for ``finish`` on stdin, then emit ``done`` with the service's
  counters (and, when traced, the per-layer probes).
* ``batch`` — build a process-pool :class:`BatchDistiller` and run the
  mini-batches itself, timing each ``distill_many`` call; emit ``done``
  with the outputs.
* ``reference`` — not the measured program: train a serial pipeline and
  emit ``done`` with one ``GCED.distill`` output row per given triple,
  for ``run.py``'s correctness check.

Both measured modes set the program up ``setups`` times and report every
set-up's duration; all but the last are torn down again.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import pathlib
import shutil
import sys
import time

from probes import BatchProbes, Recorder, ServiceProbes, peak_rss_mb
from run import output_row, reference_pipeline


def _post(port: int, path: str, body: dict) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", path, json.dumps(body), {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"warm-up {path} answered {response.status}: {payload}")
        return payload
    finally:
        connection.close()


# ------------------------------------------------------------------ serving
def _start_service(job: dict, index: int, workdir: pathlib.Path):
    from repro.retrieval.retriever import CorpusRetriever
    from repro.service import DistillService
    from repro.service.server import start_server

    kwargs = {}
    if job.get("corpus"):
        kwargs["retriever"] = CorpusRetriever.build(job["corpus"])
    if job.get("ingest"):
        ingest_dir = workdir / f"ingest-{index}"
        shutil.rmtree(ingest_dir, ignore_errors=True)
        kwargs["ingest_dir"] = str(ingest_dir)
    service = DistillService.from_corpus(job["train"], seed=job["qa_seed"], **kwargs)
    server, thread = start_server(service)
    port = server.server_address[1]
    if job.get("corpus"):
        question, answer = job["warmup"]
        _post(port, "/ask", {"question": question, "answer": answer})
    else:
        question, answer, context = job["warmup"]
        _post(port, "/distill", {"question": question, "answer": answer, "context": context})
    return service, server, thread


def _stop_service(service, server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
    service.close()


def _engine_counters(distiller) -> dict:
    """The engine's own counters, read through ``BatchDistiller.stats()``.

    Stage timers and cache counts include pool workers' (the distiller
    merges the deltas they ship back with each result).
    """
    stats = distiller.stats()
    profile = stats.profile
    return {
        "distilled": stats.n_distilled,
        "memo_hits": stats.n_cache_hits,
        "contexts": profile.counters.get("contexts", 0),
        "stages": {n: [t.calls, t.seconds] for n, t in profile.stages.items()},
        "caches": {n: [c.hits, c.misses] for n, c in profile.caches.items()},
    }


def _counters(service) -> dict:
    """Engine counters plus the serving layers' ``stats()``."""
    return {
        **_engine_counters(service.distiller),
        "scheduler": service.scheduler.stats().to_dict(),
        "admission": service.admission.stats(),
        "ingest": service.ingest.stats() if service.ingest is not None else None,
    }


def _service_layers(probes: ServiceProbes, rec: Recorder) -> dict:
    def ms(name: str) -> list[float]:
        return [1000.0 * (s[2] - s[1]) for s in rec.by_name(name)]

    entries = {}
    for name in ("service.distill_dict", "service.ask_dict", "service.ingest_dicts"):
        for _n, start, end, _sid, _parent, rid in rec.by_name(name):
            entries[rid] = 1000.0 * (end - start)
    return {
        "entry_ms": entries,
        "span_ms": {
            name: ms(name)
            for name in (
                "admission.admit", "ask", "ask.rerank", "retrieval.search",
                "batch.distill_many", "qa.predict", "qa.predict_batch",
                "ingest.add", "ingest.delete", "wal.append", "wal.sync",
            )
        },
        "queue_wait_ms": [1000.0 * w for w in probes.queue_waits],
        "postings_per_query": probes.postings_per_query(),
        "self_s": rec.self_seconds(),
        "calls": rec.calls(),
    }


def serve(job: dict, proto, workdir: pathlib.Path) -> None:
    setups, live = [], None
    for index in range(job["setups"]):
        if live is not None:
            _stop_service(*live)
            live = None
            shutil.rmtree(workdir / f"ingest-{index - 1}", ignore_errors=True)
            gc.collect()
        started = time.perf_counter()
        live = _start_service(job, index, workdir)
        setups.append(time.perf_counter() - started)
    service = live[0]
    rec = probes = None
    if job["trace"]:
        rec = Recorder()
        probes = ServiceProbes(rec, service)
    before = _counters(service)
    _emit(proto, {"event": "ready", "port": live[1].server_address[1], "setup_s": setups})
    if sys.stdin.readline().strip() != "finish":
        raise SystemExit("host: expected 'finish'")
    done = {"event": "done", "before": before, "after": _counters(service), "workers": 1}
    if rec is not None:
        done["layers"] = _service_layers(probes, rec)
        rec.dump(pathlib.Path(job["spans"]))
    done["rss_mb"] = peak_rss_mb()
    _stop_service(*live)
    for index in range(job["setups"]):
        shutil.rmtree(workdir / f"ingest-{index}", ignore_errors=True)
    _emit(proto, done)


# -------------------------------------------------------------------- batch
def batch(job: dict, proto, workdir: pathlib.Path) -> None:
    from repro.core.batch import BatchDistiller
    from repro.core.pipeline import GCED
    from repro.qa.training import QATrainer

    setups, distiller = [], None
    for _ in range(job["setups"]):
        if distiller is not None:
            distiller.close()
            distiller = None
            gc.collect()
        started = time.perf_counter()
        artifacts = QATrainer(seed=job["qa_seed"]).train(job["train"])
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        distiller = BatchDistiller(gced, workers=job["workers"], backend="process")
        distiller.distill_many([tuple(job["warmup"])])
        setups.append(time.perf_counter() - started)
    rec = probes = None
    if job["trace"]:
        rec = Recorder()
        probes = BatchProbes(rec, distiller)
    before = _engine_counters(distiller)
    triples = [tuple(t) for t in job["triples"]]
    size = job["batch_size"]
    latencies, results = [], []
    phase_started = time.perf_counter()
    for start in range(0, len(triples), size):
        call_started = time.perf_counter()
        results += distiller.distill_many(triples[start : start + size])
        latencies.append(time.perf_counter() - call_started)
    wall = time.perf_counter() - phase_started
    done = {
        "event": "done",
        "setup_s": setups,
        "latency_s": latencies,
        "wall_s": wall,
        "rss_mb": peak_rss_mb(),
        "outputs": [output_row(r) for r in results],
        "before": before,
        "after": _engine_counters(distiller),
        "recovery": distiller.recovery_info()["executor"],
        "snapshot": distiller.snapshot_info(),
        "workers": distiller.executor.workers,
    }
    if rec is not None:
        done["layers"] = {
            "distill_many_ms": [1000.0 * (s[2] - s[1]) for s in rec.by_name("batch.distill_many")],
            "chunks": probes.chunks,
            "self_s": rec.self_seconds(),
            "calls": rec.calls(),
        }
        rec.dump(pathlib.Path(job["spans"]))
    distiller.close()
    _emit(proto, done)


# ---------------------------------------------------------------- reference
def reference(job: dict, proto, workdir: pathlib.Path) -> None:
    pipeline = reference_pipeline(job["train"])
    rows = [output_row(pipeline.distill(*triple)) for triple in job["triples"]]
    _emit(proto, {"event": "done", "rows": rows})


def _emit(proto, event: dict) -> None:
    proto.write(json.dumps(event) + "\n")
    proto.flush()


def main() -> None:
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # the program's own prints go to stderr
    job = json.loads(sys.stdin.readline())
    workdir = pathlib.Path(job["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    {"serve": serve, "batch": batch, "reference": reference}[job["mode"]](job, proto, workdir)
    proto.close()


if __name__ == "__main__":
    main()
