"""perfbench — GCED's end-to-end and per-layer benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload distill-http --seed 1 --seconds 10 --trace 0

Workloads: ``distill-http``, ``ask-ingest-20k``, ``batch-process`` (see
README.md for what each stresses and bypasses).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs it with the benchmark's spans
installed and reports the per-layer metrics, a per-layer self-time table
and the tracing overhead against an untraced run of the same inputs made
just before it in the same invocation.
Every run checks the program's outputs against a serial ``GCED.distill``
reference and its quality metrics against the first run of the same
program, seed and size.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when any check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import http.client
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HOST_TIMEOUT_S = 150.0
# Seconds a host's leftover processes get to end before they are killed.
GROUP_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36

# Input counts per second of --seconds; a run's inputs are a fixed list.
DISTILL_REQUESTS_PER_S = 32
DISTILL_REPEAT_SHARE = 0.25
DISTILL_CLIENTS = 2
ASKS_PER_S = 12
ASK_K = 3
WRITER_INTERVAL_S = 0.2
BATCH_TRIPLES_PER_S = 80
BATCH_SIZE = 16
BATCH_WORKERS = 2
REFERENCE_PROCESSES = 2
# QA training seed of the program and the reference: a constant, so the
# program receives nothing from --seed but the generated inputs.
QA_SEED = 0
# Set-ups per measured run; setup_s is their median.
SETUPS = {"distill-http": 5, "ask-ingest-20k": 2, "batch-process": 5}
# One BLAS thread per process, for the program host, its pool workers and
# the reference processes (see README.md, "Noise sources").
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
STAGES = ("tokenize", "ase", "qws", "wsptc", "efc", "oec", "finalize")


class RunFailed(RuntimeError):
    """The program or the load generator broke; no result is printed."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------- the host
class Host:
    """One program-host child process (``host.py``) and its JSON pipe.

    The host starts in a session of its own, so every process it starts
    (pool workers, multiprocessing's resource tracker) shares its process
    group; :meth:`close` stops that whole group and waits until it is gone.
    """

    def __init__(self, job: dict) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
            start_new_session=True,
        )
        self._closed = False
        self._watchdog = threading.Timer(HOST_TIMEOUT_S, self._kill_group)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()

    def event(self, expected: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RunFailed(f"program host exited (code {self.proc.returncode}) before '{expected}'")
        event = json.loads(line)
        if event.get("event") != expected:
            raise RunFailed(f"program host sent {event.get('event')!r}, expected {expected!r}")
        return event

    def finish(self) -> dict:
        self.proc.stdin.write("finish\n")
        self.proc.stdin.flush()
        return self.event("done")

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        """Stop the host (end of stdin tells a waiting host to exit), reap
        it, then wait until no process of its group is left."""
        if self._closed:
            return
        self._closed = True
        self._watchdog.cancel()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._kill_group()
            self.proc.wait()
        # Processes the host left behind are orphans now, reparented to
        # this process (see ``become_subreaper``); give them a few seconds
        # to end on their own (a resource tracker exits once its pipe
        # closes), then kill what is left, and reap each one.
        started = time.monotonic()
        while True:
            try:
                while os.waitpid(-self.proc.pid, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            waited = time.monotonic() - started
            if waited > 3 * GROUP_GRACE_S:
                raise RunFailed(f"processes of program host {self.proc.pid} did not end")
            if waited > GROUP_GRACE_S:
                self._kill_group()
            time.sleep(0.02)


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so
    :meth:`Host.close` can reap a host's leftovers itself instead of
    leaving them to init; elsewhere, init reaps them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


class Connection:
    """A keep-alive HTTP/1.1 client connection acting as one named client."""

    def __init__(self, port: int, client_id: str) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.headers = {"Content-Type": "application/json", "X-Client-Id": client_id}

    def call(self, method: str, path: str, body: dict | None = None):
        """``(status, payload)``; ``(None, error)`` on a transport failure."""
        try:
            self.conn.request(
                method, path, json.dumps(body) if body is not None else None, self.headers
            )
            response = self.conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.conn.close()
            return None, repr(exc)

    def close(self) -> None:
        self.conn.close()


# -------------------------------------------------------------- reference
def reference_pipeline(train: list[str]):
    """A fresh serial pipeline trained exactly as the program host trains."""
    from repro.core.pipeline import GCED
    from repro.qa.training import QATrainer

    artifacts = QATrainer(seed=QA_SEED).train(train)
    return GCED(qa_model=artifacts.reader, artifacts=artifacts)


def output_row(result) -> list:
    """``[evidence, I, C, R, H, reduction]`` as the service serializes them."""
    from repro.core.serialize import result_to_dict

    return payload_row(result_to_dict(result))


def payload_row(payload: dict) -> list:
    """The fields of a served result the correctness check compares."""
    s = payload["scores"]
    return [
        payload["evidence"],
        s["informativeness"],
        s["conciseness"],
        s["readability"],
        s["hybrid"],
        payload["reduction"],
    ]


# Reference rows already computed in this invocation, per training corpus:
# the two legs of a traced run share their inputs, so the second reuses them.
_REFERENCE_ROWS: dict[tuple, dict[tuple, list]] = {}


def reference_rows(train: list[str], triples) -> dict[tuple, list]:
    """Serial ``GCED.distill`` output of every distinct triple.

    Each reference process (``host.py`` in ``reference`` mode) trains its
    own pipeline exactly as the program host does and calls
    ``GCED.distill`` once per triple; splitting the list over two
    processes changes no output and halves the check's wall time.
    """
    known = _REFERENCE_ROWS.setdefault(tuple(train), {})
    # Grouped by paragraph, as the program's executor groups its chunks,
    # so each paragraph is compiled once.
    unique = sorted(
        (t for t in dict.fromkeys(tuple(t) for t in triples) if t not in known),
        key=lambda t: t[2],
    )
    if not unique:
        return known
    size = math.ceil(len(unique) / REFERENCE_PROCESSES)
    parts = [unique[i : i + size] for i in range(0, len(unique), size)]
    hosts = []
    try:
        for part in parts:
            hosts.append(Host({"mode": "reference", "train": train, "triples": part,
                               "workdir": str(WORK / "host")}))
        for part, host in zip(parts, hosts):
            known.update(zip(part, host.event("done")["rows"]))
    finally:
        for host in hosts:
            host.close()
    return known


# ---------------------------------------------------------------- quality
def source_fingerprint() -> str:
    """Hash of the program's and this benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class State:
    """The first run's quality metrics, keyed by program + inputs.

    Every later run of the same program, seed and size must repeat them
    exactly.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self.path = WORK / "state.json"
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def quality_drift(self, quality: dict) -> list[str]:
        """Differences from the first recorded run (recording this one if first).

        Inputs are a pure function of the seed and the outputs are
        deterministic, so any difference means the run measured different
        inputs or the program stopped being deterministic.
        """
        first = self.data.get(self.key)
        if first is None:
            self.data[self.key] = quality
            WORK.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            tmp.replace(self.path)
            return []
        return [
            f"quality drift: {name} = {quality.get(name)!r}, first run had {value!r}"
            for name, value in first.items()
            if quality.get(name) != value
        ]


# --------------------------------------------------------------- workloads
def spans_path(workload: str, seed: int) -> str:
    """Where a traced run's host writes its spans (one JSON object a line)."""
    return str(WORK / "trace" / f"{workload}-seed{seed}.jsonl")


def closed_loop(conn: Connection, client: str, send, items, log: dict) -> None:
    """Send ``items`` one at a time; record latency and payload per item."""
    for index, item in items:
        started = time.perf_counter()
        status, payload = send(conn, item)
        log["latency"].append((client, time.perf_counter() - started))
        log["status"][index] = status
        log["payload"][index] = payload


def run_distill_http(seed: int, seconds: int, setups: int, trace: bool) -> dict:
    from inputs import squad_triples

    inputs = squad_triples(seed, DISTILL_REQUESTS_PER_S * seconds, DISTILL_REPEAT_SHARE)
    host_started = time.perf_counter()
    host = Host({
        "mode": "serve", "qa_seed": QA_SEED, "setups": setups, "trace": trace,
        "train": inputs.contexts, "warmup": inputs.warmup, "workdir": str(WORK / "host"),
        "spans": spans_path("distill-http", seed),
    })
    try:
        ready = host.event("ready")
        n = len(inputs.triples)
        log = {"latency": [], "status": [None] * n, "payload": [None] * n}
        cursor = iter(enumerate(inputs.triples))
        lock = threading.Lock()

        def next_items():
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                yield item

        def send(conn, triple):
            q, a, c = triple
            return conn.call("POST", "/distill", {"question": q, "answer": a, "context": c})

        conns = [Connection(ready["port"], f"c{i}") for i in range(DISTILL_CLIENTS)]
        threads = [
            threading.Thread(target=closed_loop, args=(conn, f"c{i}", send, next_items(), log))
            for i, conn in enumerate(conns)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        for conn in conns:
            conn.close()
        done = host.finish()
    finally:
        host.close()
    host_s = time.perf_counter() - host_started

    check_started = time.perf_counter()
    ref = reference_rows(inputs.contexts, inputs.triples)
    problems, rows = [], []
    for triple, status, payload in zip(inputs.triples, log["status"], log["payload"]):
        if status != 200:
            continue
        row = payload_row(payload)
        rows.append(row)
        if row != ref[triple]:
            problems.append(f"/distill output differs from serial reference: {triple[0]!r}")
    ok = sum(1 for s in log["status"] if s == 200)
    return {
        "setup_s": ready["setup_s"],
        "latencies": [t for _c, t in log["latency"]],
        "client_latencies": log["latency"],
        "wall": wall,
        "completed": ok,
        "attempted": n,
        "failed": n - ok,
        "problems": problems + _unexpected(log["status"]),
        "quality": _quality(rows),
        "done": done,
        "phases_s": {"host": host_s, "check": time.perf_counter() - check_started},
        "declared": inputs.shares(),
    }


def _unexpected(statuses) -> list[str]:
    """Refusals (429/503/504) count as failed operations; any other
    status, or no response at all, means the program broke."""
    bad = [s for s in statuses if s not in (200, 429, 503, 504)]
    return [f"{len(bad)} request(s) failed with status {sorted(set(map(str, bad)))}"] if bad else []


def _quality(rows: list[list]) -> dict:
    hybrids = [r[4] for r in rows if r[4] is not None]
    return {
        "hybrid_mean": mean(hybrids),
        "reduction_mean": mean(r[5] for r in rows),
    }


def run_ask_ingest(seed: int, seconds: int, setups: int, trace: bool) -> dict:
    from inputs import ask_corpus, writer_docs

    n_asks = ASKS_PER_S * seconds
    data = ask_corpus(seed, n_asks)
    docs = writer_docs(seed, n_asks + 1)
    host_started = time.perf_counter()
    host = Host({
        "mode": "serve", "qa_seed": QA_SEED, "setups": setups, "trace": trace, "ingest": True,
        "train": data.train_contexts, "corpus": data.corpus, "warmup": data.warmup,
        "workdir": str(WORK / "host"), "spans": spans_path("ask-ingest-20k", seed),
    })
    try:
        ready = host.event("ready")
        port = ready["port"]
        # Priming write: from here on the live corpus holds one writer
        # document, swapped (ingest new, delete old) by every write op.
        prime = Connection(port, "prime")
        status, payload = prime.call("POST", "/ingest", {"texts": [docs[0]]})
        prime.close()
        if status != 200:
            raise RunFailed(f"priming /ingest answered {status}: {payload}")
        live_id = payload["doc_ids"][0]
        asks = {"latency": [], "status": [None] * n_asks, "payload": [None] * n_asks}
        writes = {"ack": [], "late": [], "delete": [], "status": []}

        def send(conn, qa):
            return conn.call("POST", "/ask", {"question": qa[0], "answer": qa[1], "k": ASK_K})

        def writer(conn: Connection, start: float) -> None:
            live = live_id
            for i, doc in enumerate(docs[1:], start=1):
                due = start + i * WRITER_INTERVAL_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                writes["late"].append(max(0.0, time.perf_counter() - due))
                status, payload = conn.call("POST", "/ingest", {"texts": [doc]})
                writes["ack"].append(time.perf_counter() - due)
                writes["status"].append(status)
                if status != 200:
                    continue
                sent = time.perf_counter()
                status, _ = conn.call("DELETE", f"/docs/{live}")
                writes["delete"].append(time.perf_counter() - sent)
                writes["status"].append(status)
                live = payload["doc_ids"][0]

        ask_conn, write_conn = Connection(port, "asker"), Connection(port, "writer")
        started = time.perf_counter()
        write_thread = threading.Thread(target=writer, args=(write_conn, started))
        write_thread.start()
        closed_loop(ask_conn, "asker", send, enumerate(data.asks), asks)
        wall = time.perf_counter() - started
        write_thread.join()
        ask_conn.close()
        write_conn.close()
        done = host.finish()
    finally:
        host.close()
    host_s = time.perf_counter() - host_started

    text = dict(enumerate(data.corpus))
    problems, best, hits = [], [], 0
    for (question, answer), gold, status, payload in zip(
        data.asks, data.gold_ids, asks["status"], asks["payload"]
    ):
        if status != 200:
            continue
        candidates = payload["candidates"]
        hits += gold in [c["retrieval"]["doc_id"] for c in candidates]
        if len(candidates) != ASK_K or any("error" in c for c in candidates):
            problems.append(f"/ask returned {len(candidates)} candidates or an error: {question!r}")
            continue
        order = [
            (-(c["scores"]["hybrid"] if c["scores"]["hybrid"] is not None else float("-inf")),
             c["retrieval"]["rank"], c["retrieval"]["doc_id"])
            for c in candidates
        ]
        if order != sorted(order):
            problems.append(f"/ask candidates not ranked by hybrid score: {question!r}")
        top = candidates[0]
        best.append(((question, answer, text[top["retrieval"]["doc_id"]]), payload_row(top)))
    # The answer the user sees — the best candidate — is checked in full.
    check_started = time.perf_counter()
    ref = reference_rows(data.train_contexts, [triple for triple, _row in best])
    problems += [
        f"/ask best candidate differs from serial reference: {triple[0]!r}"
        for triple, row in best
        if row != ref[triple]
    ]
    best_rows = [row for _triple, row in best]
    ok = sum(1 for s in asks["status"] if s == 200)
    writes_ok = sum(1 for s in writes["status"] if s == 200)
    quality = _quality(best_rows)
    quality["recall_at_k"] = hits / n_asks
    return {
        "setup_s": ready["setup_s"],
        "latencies": [t for _c, t in asks["latency"]],
        "client_latencies": asks["latency"],
        "wall": wall,
        "completed": ok,
        "attempted": n_asks + len(writes["status"]),
        "failed": (n_asks - ok) + (len(writes["status"]) - writes_ok),
        "problems": problems + _unexpected(asks["status"] + writes["status"]),
        "quality": quality,
        "done": done,
        "writes": writes,
        "phases_s": {"host": host_s, "check": time.perf_counter() - check_started},
        "declared": {"asks": n_asks, "corpus": len(data.corpus), "writes": len(docs) - 1,
                     "unique_questions": len(set(data.asks))},
    }


def run_batch(seed: int, seconds: int, setups: int, trace: bool) -> dict:
    from inputs import squad_triples

    inputs = squad_triples(seed, BATCH_TRIPLES_PER_S * seconds)
    host_started = time.perf_counter()
    host = Host({
        "mode": "batch", "qa_seed": QA_SEED, "setups": setups, "trace": trace,
        "train": inputs.contexts, "warmup": inputs.warmup, "triples": inputs.triples,
        "batch_size": BATCH_SIZE, "workers": BATCH_WORKERS, "workdir": str(WORK / "host"),
        "spans": spans_path("batch-process", seed),
    })
    try:
        done = host.event("done")
    finally:
        host.close()
    host_s = time.perf_counter() - host_started
    check_started = time.perf_counter()
    ref = reference_rows(inputs.contexts, inputs.triples)
    problems = [
        f"batch output differs from serial reference: {triple[0]!r}"
        for triple, row in zip(inputs.triples, done["outputs"])
        if row != ref[triple]
    ]
    n = len(inputs.triples)
    if len(done["outputs"]) != n:
        problems.append(f"batch returned {len(done['outputs'])} outputs for {n} triples")
    return {
        "setup_s": done["setup_s"],
        "latencies": done["latency_s"],
        "wall": done["wall_s"],
        "completed": len(done["outputs"]),
        "attempted": n,
        "failed": n - len(done["outputs"]),
        "problems": problems,
        "quality": _quality(done["outputs"]),
        "done": done,
        "phases_s": {"host": host_s, "check": time.perf_counter() - check_started},
        "declared": inputs.shares(),
    }


WORKLOADS = {
    "distill-http": run_distill_http,
    "ask-ingest-20k": run_ask_ingest,
    "batch-process": run_batch,
}


# ----------------------------------------------------------------- metrics
def end_to_end(run: dict) -> dict:
    latencies = run["latencies"]
    return {
        "latency_p50_ms": (1000.0 * percentile(latencies, 0.50), "ms"),
        "latency_p95_ms": (1000.0 * percentile(latencies, 0.95), "ms"),
        "throughput_per_s": (run["completed"] / run["wall"], "1/s"),
        "success_rate": ((run["attempted"] - run["failed"]) / run["attempted"], "fraction"),
        "hybrid_mean": (run["quality"]["hybrid_mean"], "score"),
        "reduction_mean": (run["quality"]["reduction_mean"], "fraction"),
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "rss_mb": (run["done"]["rss_mb"], "MB"),
    }


def _delta(before: dict, after: dict, section: str) -> dict[str, list]:
    """Per-name ``[a, b]`` counter pairs accrued between two snapshots."""
    old = before[section]
    return {
        name: [x - y for x, y in zip(pair, old.get(name, [0, 0]))]
        for name, pair in after[section].items()
    }


def _hit_rate(caches: dict, name: str) -> float:
    hits, misses = caches.get(name, [0, 0])
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload: str, run: dict, untraced: dict) -> dict:
    """Per-layer metrics from a traced run; 0 for a layer the workload bypasses.

    ``untraced`` is the run of the same inputs without spans that
    ``trace.overhead_pct`` compares with.
    """
    done = run["done"]
    before, after, layers = done["before"], done["after"], done["layers"]
    stages = _delta(before, after, "stages")
    caches = _delta(before, after, "caches")
    distilled = after["distilled"] - before["distilled"]
    hits = after["memo_hits"] - before["memo_hits"]
    engine_s = sum(seconds for _calls, seconds in stages.values())
    m: dict[str, tuple[float, str]] = {
        "batch.memo_hit_rate": (hits / max(1, hits + distilled), "fraction"),
        "executor.busy_share": (engine_s / (done["workers"] * run["wall"]), "fraction"),
        "scoring.clip_scores_hit_rate": (_hit_rate(caches, "clip_scores"), "fraction"),
        "compiled.hit_rate": (_hit_rate(caches, "compiled_contexts"), "fraction"),
    }
    for stage in STAGES:
        calls, seconds = stages.get(stage, (0, 0.0))
        m[f"stage.{stage}.self_ms"] = (1000.0 * seconds / calls if calls else 0.0, "ms")
    if workload == "batch-process":
        snap = done["snapshot"] or {}
        m.update({
            "batch.distill_many_ms": (mean(layers["distill_many_ms"]), "ms"),
            "executor.chunks": (float(layers["chunks"]), "count"),
            "executor.pool_breaks": (float(done["recovery"].get("pool_breaks", 0)), "count"),
            "snapshot.build_ms": (float(snap.get("build_ms") or 0.0), "ms"),
            "snapshot.bytes": (float(snap.get("bytes") or 0), "bytes"),
            "snapshot.worker_load_ms": (
                mean(w.get("snapshot_load_ms", 0.0) for w in snap.get("workers", [])), "ms"),
        })
    else:
        m.update(_served_layers(workload, run))
    if workload == "batch-process":
        base, traced = (r["completed"] / r["wall"] for r in (untraced, run))
        overhead = 100.0 * (base - traced) / base
    else:
        base, traced = (percentile(r["latencies"], 0.5) for r in (untraced, run))
        overhead = 100.0 * (traced - base) / base
    m["trace.overhead_pct"] = (overhead, "%")
    return {name: m.get(name, (0.0, unit)) for name, unit in PER_LAYER}


def _served_layers(workload: str, run: dict) -> dict:
    done = run["done"]
    before, after, layers = done["before"], done["after"], done["layers"]
    spans = layers["span_ms"]
    sb, sa = before["scheduler"], after["scheduler"]
    batches = max(1, sa["batches"] - sb["batches"])
    http_self = [
        1000.0 * t - layers["entry_ms"][f"{client}#{k}"]
        for client, series in _per_client(run["client_latencies"]).items()
        for k, t in enumerate(series)
        if f"{client}#{k}" in layers["entry_ms"]
    ]
    waits = layers["queue_wait_ms"]
    predicts = spans["qa.predict"] + spans["qa.predict_batch"]
    m = {
        "http.self_ms": (percentile(http_self, 0.5) if http_self else 0.0, "ms"),
        "admission.admit_ms": (mean(spans["admission.admit"]), "ms"),
        "admission.shed": (float(sa["shed"] - sb["shed"] + after["admission"]["rate_limited"]
                                 - before["admission"]["rate_limited"]), "count"),
        "scheduler.queue_wait_p50_ms": (percentile(waits, 0.5) if waits else 0.0, "ms"),
        "scheduler.queue_wait_p95_ms": (percentile(waits, 0.95) if waits else 0.0, "ms"),
        "scheduler.batch_size_mean": ((sa["flushed"] - sb["flushed"]) / batches, "count"),
        "scheduler.timeout_flush_share": ((sa["timeout_flushes"] - sb["timeout_flushes"]) / batches, "fraction"),
        "scheduler.coalesced": (float(sa["coalesced"] - sb["coalesced"]), "count"),
        "batch.distill_many_ms": (mean(spans["batch.distill_many"]), "ms"),
        "qa.predict_ms": (mean(predicts), "ms"),
        "qa.predict_calls_per_distill": (
            len(predicts) / max(1, after["contexts"] - before["contexts"]), "count"),
    }
    if workload == "ask-ingest-20k":
        search = spans["retrieval.search"]
        writes = run["writes"]
        ops = len(spans["ingest.add"]) + len(spans["ingest.delete"])
        m.update({
            "retrieval.search_p50_ms": (percentile(search, 0.5), "ms"),
            "retrieval.search_p95_ms": (percentile(search, 0.95), "ms"),
            "retrieval.postings_per_query": (layers["postings_per_query"], "count"),
            "retrieval.recall_at_k": (run["quality"]["recall_at_k"], "fraction"),
            "ask.distill_ms": (mean(spans["ask"]) - mean(search) - mean(spans["ask.rerank"]), "ms"),
            "ask.rerank_ms": (mean(spans["ask.rerank"]), "ms"),
            "ingest.add_ms": (mean(spans["ingest.add"]), "ms"),
            "ingest.ack_p50_ms": (1000.0 * percentile(writes["ack"], 0.5), "ms"),
            "ingest.ack_p95_ms": (1000.0 * percentile(writes["ack"], 0.95), "ms"),
            "wal.append_ms": (mean(spans["wal.append"]), "ms"),
            "wal.sync_ms": (mean(spans["wal.sync"]), "ms"),
            "wal.syncs_per_write": (len(spans["wal.sync"]) / max(1, ops), "count"),
            "mutable.delta_docs": (float(after["ingest"]["delta_docs"]), "count"),
            "mutable.tombstones": (float(after["ingest"]["tombstones"]), "count"),
            "loadgen.late_p95_ms": (1000.0 * percentile(writes["late"], 0.95), "ms"),
        })
    return m


def _per_client(latencies) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for client, seconds in latencies:
        series.setdefault(client, []).append(seconds)
    return series


PER_LAYER = [
    ("http.self_ms", "ms"), ("admission.admit_ms", "ms"), ("admission.shed", "count"),
    ("scheduler.queue_wait_p50_ms", "ms"), ("scheduler.queue_wait_p95_ms", "ms"),
    ("scheduler.batch_size_mean", "count"), ("scheduler.timeout_flush_share", "fraction"),
    ("scheduler.coalesced", "count"), ("batch.memo_hit_rate", "fraction"),
    ("batch.distill_many_ms", "ms"), ("executor.busy_share", "fraction"),
    ("executor.chunks", "count"), ("executor.pool_breaks", "count"),
    ("snapshot.build_ms", "ms"), ("snapshot.bytes", "bytes"), ("snapshot.worker_load_ms", "ms"),
    *[(f"stage.{s}.self_ms", "ms") for s in STAGES],
    ("qa.predict_ms", "ms"), ("qa.predict_calls_per_distill", "count"),
    ("scoring.clip_scores_hit_rate", "fraction"), ("compiled.hit_rate", "fraction"),
    ("retrieval.search_p50_ms", "ms"), ("retrieval.search_p95_ms", "ms"),
    ("retrieval.postings_per_query", "count"), ("retrieval.recall_at_k", "fraction"),
    ("ask.distill_ms", "ms"), ("ask.rerank_ms", "ms"),
    ("ingest.add_ms", "ms"), ("ingest.ack_p50_ms", "ms"), ("ingest.ack_p95_ms", "ms"),
    ("wal.append_ms", "ms"), ("wal.sync_ms", "ms"), ("wal.syncs_per_write", "count"),
    ("mutable.delta_docs", "count"), ("mutable.tombstones", "count"),
    ("loadgen.late_p95_ms", "ms"), ("trace.overhead_pct", "%"),
]


# ------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    os.environ.update(ONE_BLAS_THREAD)  # before numpy loads; children inherit it
    become_subreaper()
    sys.path[:0] = [str(SRC), str(HERE)]
    workload = WORKLOADS[args.workload]
    state = State(
        f"{args.workload}|seed={args.seed}|seconds={args.seconds}|src={source_fingerprint()}"
    )
    try:
        if args.trace:
            # The untraced leg runs right before the traced one, so the
            # overhead compares two runs under the same machine load.
            untraced = workload(args.seed, args.seconds, 1, False)
            run = workload(args.seed, args.seconds, 1, True)
            metrics = per_layer(args.workload, run, untraced)
            runs = [untraced, run]
        else:
            run = workload(args.seed, args.seconds, SETUPS[args.workload], False)
            metrics = end_to_end(run)
            runs = [run]
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems = [p for r in runs for p in r["problems"]]
    for r in runs:
        problems += state.quality_drift(r["quality"])
    for problem in problems[:20]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    report(args.workload, run, metrics, problems)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


def layer_table(workload: str, run: dict, metrics: dict) -> list[str]:
    """Each traced layer's self time and its share of end-to-end time."""
    done = run["done"]
    layers = done["layers"]
    stages = _delta(done["before"], done["after"], "stages")
    if workload == "batch-process":
        basis, total = "wall x workers", run["wall"] * done["workers"]
    else:
        # Σ request time of every client: the end-to-end time users saw.
        basis, total = "sum of request times", sum(t for _c, t in run["client_latencies"])
    lines = [f"  {'span (self time)':28s} {'calls':>7s} {'self s':>9s} {'share':>7s}"
             f"   (share of {basis} {total:.2f} s)"]
    for name, seconds in sorted(layers["self_s"].items(), key=lambda r: -r[1]):
        lines.append(
            f"  {name:28s} {layers['calls'][name]:7d} {seconds:9.3f} {100 * seconds / total:6.1f}%"
        )
    # The program's own stage timers; a stage's time includes the QA
    # calls it makes, so these rows overlap the qa.* spans above.
    lines.append(f"  {'engine stage (profile)':28s} {'calls':>7s} {'total s':>9s} {'share':>7s}")
    for name, (calls, seconds) in sorted(stages.items(), key=lambda r: -r[1][1]):
        lines.append(f"  {'stage.' + name:28s} {calls:7d} {seconds:9.3f} {100 * seconds / total:6.1f}%")
    p50 = 1000.0 * percentile(run["latencies"], 0.5)
    v = {name: value for name, (value, _unit) in metrics.items()}
    if workload == "distill-http":
        stage_ms = sum(v[f"stage.{s}.self_ms"] for s in STAGES)
        lines.append(
            f"  median request {p50:.1f} ms: queue wait p50 {v['scheduler.queue_wait_p50_ms']:.1f} ms"
            f" + stages of one distill {stage_ms:.1f} ms + http self p50 {v['http.self_ms']:.1f} ms"
        )
    elif workload == "ask-ingest-20k":
        search = v["retrieval.search_p50_ms"]
        lines.append(
            f"  median ask {p50:.1f} ms: retrieval.search p50 {search:.1f} ms ({100 * search / p50:.0f}%)"
            f" + candidate distills {v['ask.distill_ms']:.1f} ms (mean) + rerank {v['ask.rerank_ms']:.3f} ms"
        )
    return lines


def report(workload: str, run: dict, metrics: dict, problems: list[str]) -> None:
    """Human-readable summary on stdout, before the JSON line."""
    phases = ", ".join(f"{k} {v:.1f} s" for k, v in run["phases_s"].items())
    print(f"perfbench {workload}: {run['attempted'] - run['failed']}/{run['attempted']} operations ok, "
          f"{len(problems)} problem(s); declared inputs {json.dumps(run['declared'])}; "
          f"phases: {phases}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    if "layers" in run["done"]:
        print("\n".join(layer_table(workload, run, metrics)))


if __name__ == "__main__":
    sys.exit(main())
