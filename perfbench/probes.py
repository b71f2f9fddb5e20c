"""Benchmark-side tracing: timed wrappers around the program's public calls.

Nothing here edits the program.  :class:`Recorder` replaces an attribute
(a bound method on a live object, or a module function) with a wrapper
that records one span per call — name, start, end, parent span and
request id — and keeps the spans in memory until :meth:`Recorder.dump`
writes them out.  The installers below choose which calls to wrap for
each workload; they run only in a traced run, inside the process that
hosts the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import threading
import time
from collections import defaultdict, deque

from repro.text.tokenizer import word_tokens


class Recorder:
    """In-memory span store; one instance per traced program process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, span_id, parent_id, request_id)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, request=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``request(args, kwargs)``, when given, names the request the call
        starts; nested spans on the same thread inherit that id.
        """
        inner = getattr(owner, attr)
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            span_id = next(ids)
            parent = getattr(local, "span", None)
            outer_request = getattr(local, "request", None)
            if request is not None:
                local.request = request(args, kwargs)
            local.span = span_id
            started = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spans.append(
                    (name, started, time.perf_counter(), span_id, parent,
                     getattr(local, "request", None))
                )
                local.span = parent
                local.request = outer_request

        setattr(owner, attr, timed)

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, _sid, parent, _rid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, sid, _parent, _rid in self.spans:
            totals[name] += (end - start) - child_time[sid]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def dump(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, sid, parent, rid in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "id": sid,
                         "parent": parent, "request": rid}
                    )
                    + "\n"
                )


class ServiceProbes:
    """Wrappers for a served workload (``/distill`` or ``/ask`` + ``/ingest``)."""

    def __init__(self, recorder: Recorder, service) -> None:
        self.rec = recorder
        self.service = service
        self.queue_waits: list[float] = []
        self.queries: list[str] = []
        self._submitted: dict[tuple, deque] = defaultdict(deque)
        self._lock = threading.Lock()
        rec = recorder
        sequence: dict[str, itertools.count] = defaultdict(itertools.count)

        def request_id(_args, kwargs) -> str:
            # Clients are closed loops, so "<client>#<n>" is the n-th
            # request that client sent: the same name on both sides.
            client = kwargs.get("client_id") or "anonymous"
            return f"{client}#{next(sequence[client])}"

        for entry in ("distill_dict", "ask_dict", "ingest_dicts", "delete_doc_dict"):
            rec.wrap(service, entry, f"service.{entry}", request=request_id)
        rec.wrap(service, "ask", "ask")
        rec.wrap(service.admission, "admit", "admission.admit")
        rec.wrap(service.gced.qa_model, "predict", "qa.predict")
        rec.wrap(service.gced.qa_model, "predict_batch", "qa.predict_batch")
        self._wrap_submits(service.scheduler)
        self._wrap_flush_call(service.distiller)
        if service.retriever is not None:
            self._wrap_retrieve(service.retriever)
            import repro.service.service as service_module

            rec.wrap(service_module, "build_outcome", "ask.rerank")
        if service.ingest is not None:
            from repro.retrieval.wal import WriteAheadLog

            rec.wrap(service.ingest, "add_documents", "ingest.add")
            rec.wrap(service.ingest, "delete_document", "ingest.delete")
            rec.wrap(WriteAheadLog, "append", "wal.append")
            rec.wrap(WriteAheadLog, "sync", "wal.sync")

    def _wrap_submits(self, scheduler) -> None:
        submit, submit_many = scheduler.submit, scheduler.submit_many
        pending, lock = self._submitted, self._lock

        def timed_submit(question, answer, context, *args, **kwargs):
            with lock:
                pending[(question, answer, context)].append(time.perf_counter())
            return submit(question, answer, context, *args, **kwargs)

        def timed_submit_many(triples, *args, **kwargs):
            now = time.perf_counter()
            with lock:
                for triple in triples:
                    pending[tuple(triple)].append(now)
            return submit_many(triples, *args, **kwargs)

        scheduler.submit = timed_submit
        scheduler.submit_many = timed_submit_many

    def _wrap_flush_call(self, distiller) -> None:
        """Queue wait = submit → start of the distill_many call carrying it."""
        distill_many = distiller.distill_many
        pending, lock, waits = self._submitted, self._lock, self.queue_waits

        def timed_distill_many(triples, *args, **kwargs):
            triples = [tuple(t) for t in triples]
            started = time.perf_counter()
            with lock:
                for key in triples:
                    queue = pending.get(key)
                    while queue and queue[0] <= started:
                        waits.append(started - queue.popleft())
            try:
                return distill_many(triples, *args, **kwargs)
            finally:
                ended = time.perf_counter()
                with lock:
                    # Submits that arrived mid-flight coalesced onto it.
                    for key in triples:
                        queue = pending.get(key)
                        while queue and queue[0] <= ended:
                            queue.popleft()

        distiller.distill_many = timed_distill_many
        self.rec.wrap(distiller, "distill_many", "batch.distill_many")

    def _wrap_retrieve(self, retriever) -> None:
        retrieve, queries = retriever.retrieve, self.queries

        def logged(query, *args, **kwargs):
            queries.append(query)
            return retrieve(query, *args, **kwargs)

        retriever.retrieve = logged
        self.rec.wrap(retriever, "retrieve", "retrieval.search")

    def postings_per_query(self) -> float:
        """Mean Σ postings scanned per query (live doc frequency per term)."""
        if not self.queries:
            return 0.0
        index = self.service.retriever.index
        total = 0
        for query in self.queries:
            total += sum(index.doc_freq(term) for term in set(word_tokens(query)))
        return total / len(self.queries)


class BatchProbes:
    """Wrappers for the offline workload: distill_many and the executor."""

    def __init__(self, recorder: Recorder, distiller) -> None:
        self.chunks = 0
        recorder.wrap(distiller, "distill_many", "batch.distill_many")
        executor = distiller.executor
        # Count the chunks the executor dispatches to its pool (retried
        # chunks included) at the call that receives them.
        dispatch = executor._map_chunks

        def counted(fn, items, chunks, *args, **kwargs):
            self.chunks += len(chunks)
            return dispatch(fn, items, chunks, *args, **kwargs)

        executor._map_chunks = counted
        recorder.wrap(executor, "map", "executor.map")


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return kids


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Σ peak resident set (VmHWM) of this process and all its descendants."""
    total, todo, seen = 0, [os.getpid()], set()
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _vm_hwm_kb(pid)
        todo += _children(pid)
    return total / 1024.0
