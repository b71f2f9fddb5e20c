"""The long-lived serving facade: warm resources + micro-batching.

Every one-shot ``repro`` command pays the full startup cost — dataset or
corpus loading, :class:`~repro.qa.training.QATrainer` fitting, baseline
construction — before distilling a single triple.  A
:class:`DistillService` pays it exactly once: the trained artifacts, the
:class:`~repro.core.pipeline.GCED` pipeline (and therefore its
:class:`~repro.engine.stage.PipelineResources` bundle with the shared
parser/scorer caches), the memoizing
:class:`~repro.core.batch.BatchDistiller`, and the
:class:`~repro.service.scheduler.MicroBatchScheduler` all stay warm for
the lifetime of the process, amortized across every request served.

Concurrency model: any number of threads may call :meth:`distill` /
:meth:`distill_batch` concurrently (the HTTP front end does exactly
that); all pipeline execution is funnelled through the scheduler's single
flusher thread onto the engine executor, so the pipeline itself is never
re-entered from two caller threads.

Admission model: every serving method accepts a ``client_id`` and
charges that client's token bucket (see
:mod:`repro.service.admission`) *before* any engine work is scheduled —
cost 1 for a distill, ``len(items)`` for a batch, ``k`` for a fresh ask,
1 for a cursor page.  An admitted request can still be shed by the
scheduler's bounded queue.  Both layers raise a
:class:`~repro.service.admission.ShedError` subclass carrying
``retry_after`` seconds, which the HTTP front end maps to ``429``.
Retrieval refuses the same way: while its breaker is open, or when a
search fails, ``ask`` raises
:class:`~repro.retrieval.retriever.RetrievalUnavailableError` (→ ``503``
with ``Retry-After``).
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.core.batch import BatchDistiller
from repro.core.open_context import AskOutcome, build_outcome
from repro.core.pipeline import GCED, DistillationResult
from repro.core.serialize import result_to_dict
from repro.datasets.loader import DATASET_KEYS
from repro.faults import installed as faults_installed
from repro.obs.trace import span as obs_span
from repro.retrieval.ingest import IngestManager
from repro.retrieval.retriever import CorpusRetriever
from repro.service.admission import (
    AdmissionController,
    DeadlineExceededError,
)
from repro.service.paging import decode_cursor, paginate_ask
from repro.service.scheduler import DistillRequest, MicroBatchScheduler
from repro.service.telemetry import ServiceTelemetry

__all__ = ["DistillService", "ServiceConfig"]


def _knob(default, help: str, choices: Sequence[str] | None = None):
    """A :class:`ServiceConfig` field; ``repro serve`` derives its flag
    (type and default from the field, help and choices from here)."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class ServiceConfig:
    """Startup configuration for a :class:`DistillService`.

    The single spelling of every serving knob: ``repro serve`` builds
    one ``--flag`` per field from this dataclass,
    :meth:`DistillService.from_corpus` forwards its keywords here, and
    ``/stats`` reports it.  Each field's help text is its documentation.
    """

    dataset: str = _knob(
        "squad11",
        "synthetic dataset key the corpus is drawn from (the corpus "
        "label in /stats)",
        choices=DATASET_KEYS,
    )
    seed: int = _knob(0, "master seed for dataset generation and training")
    n_train: int = _knob(100, "training-split size")
    n_dev: int = _knob(60, "dev-split size")
    workers: int = _knob(1, "executor pool size (1 = serial)")
    backend: str = _knob(
        "thread", "parallel executor backend", choices=("thread", "process")
    )
    cache_size: int = _knob(
        4096, "finished results memoized by the distiller (LRU)"
    )
    max_batch_size: int = _knob(
        16, "flush a micro-batch once this many requests are queued"
    )
    max_wait_ms: float = _knob(
        5.0,
        "flush at the latest this long after the oldest queued request",
    )
    max_queue_depth: int = _knob(
        256,
        "shed requests (429 + Retry-After) past this many pending in "
        "the admission queue (0 = unbounded)",
    )
    client_rate: float = _knob(
        0.0,
        "per-client token-bucket refill in engine triples/second "
        "(X-Client-Id header; 0 disables rate limiting)",
    )
    client_burst: float = _knob(
        0.0, "token-bucket capacity (0 = max(1, client rate))"
    )
    top_k: int = _knob(3, "default number of paragraphs an ask considers")
    trace_sample: float = _knob(
        1.0,
        "fraction of requests to trace (deterministic every-Nth; 0 "
        "disables tracing, X-Trace-Id requests always trace)",
    )
    slow_trace_ms: float = _knob(
        250.0, "traces at/above this latency enter GET /debug/traces"
    )
    breaker_failures: int = _knob(
        3,
        "consecutive failures that trip the process-pool and retrieval "
        "circuit breakers open",
    )
    breaker_reset_s: float = _knob(
        30.0, "cooldown before an open breaker admits a half-open trial"
    )
    ingest_dir: str = _knob(
        "",
        "durable live-ingest directory (WAL + segment); enables POST "
        "/ingest and DELETE /docs/<id> and recovers any state already "
        "there (empty = no write path)",
    )
    compact_every: int = _knob(
        0,
        "fold the ingest WAL into a fresh segment after this many "
        "applied operations (0 = only explicit compaction)",
    )

    def to_dict(self) -> dict:
        return asdict(self)


# from_corpus() builds a retriever over the corpus unless one is passed.
_BUILD_RETRIEVER = object()


class DistillService:
    """Serves GCED distillations from warm, request-shared resources.

    Build one with :meth:`build` (from a synthetic dataset key) or
    :meth:`from_corpus` (from raw context paragraphs), or pass a
    pre-configured :class:`GCED` directly.  Every serving value is read
    from ``config``; without one, the defaults serve and the
    dataset-shape fields say so (``dataset="custom"``, ``seed=-1``,
    ``n_train=n_dev=0``).

    Thread safety: every serving method may be called from any number of
    threads concurrently; admission, scheduling, and the distiller's
    memo are internally locked, and the pipeline only ever runs on the
    scheduler's flusher thread.
    """

    def __init__(
        self,
        gced: GCED,
        config: ServiceConfig | None = None,
        *,
        retriever: CorpusRetriever | None = None,
    ) -> None:
        self.gced = gced
        self.retriever = retriever
        self.config = config = config or ServiceConfig(
            dataset="custom", seed=-1, n_train=0, n_dev=0
        )
        self.admission = AdmissionController(
            rate=config.client_rate, burst=config.client_burst
        )
        # Durable write path.  Wired *before* the distiller so the
        # pipeline snapshot (built at distiller construction for process
        # backends) already carries the mutable, WAL-recovered index.
        self.ingest: IngestManager | None = None
        if config.ingest_dir and retriever is not None:
            self.ingest = IngestManager.open(
                config.ingest_dir,
                seed_index=retriever.index,
                compact_every=config.compact_every,
                on_compact=self._on_compact,
            )
            retriever.index = self.ingest.index
        if retriever is not None and gced.retriever is None:
            # Ship the index through the pipeline-snapshot plane so
            # post-compaction refreshes re-hydrate pool workers in place.
            gced.retriever = retriever
        self.distiller = BatchDistiller(
            gced,
            cache_size=config.cache_size,
            workers=config.workers,
            backend=config.backend,
            breaker_failures=config.breaker_failures,
            breaker_reset_s=config.breaker_reset_s,
        )
        if retriever is not None:
            # The retriever is usually built before the service exists;
            # align its breaker thresholds with the serving config.
            retriever.breaker.failure_threshold = config.breaker_failures
            retriever.breaker.reset_after_s = config.breaker_reset_s
        self.scheduler = MicroBatchScheduler(
            self.distiller,
            max_batch_size=config.max_batch_size,
            max_wait_ms=config.max_wait_ms,
            max_queue_depth=config.max_queue_depth,
        )
        self.dataset = None  # set by build()
        self._started = time.monotonic()
        self.telemetry = ServiceTelemetry(
            self,
            trace_sample=config.trace_sample,
            slow_trace_ms=config.slow_trace_ms,
        )

    # ------------------------------------------------------- construction
    @classmethod
    def build(cls, config: ServiceConfig | None = None) -> "DistillService":
        """Train artifacts on a synthetic dataset and wire the service."""
        from repro.datasets.loader import load_dataset
        from repro.qa.training import QATrainer

        config = config or ServiceConfig()
        dataset = load_dataset(
            config.dataset,
            seed=config.seed,
            n_train=config.n_train,
            n_dev=config.n_dev,
        )
        corpus = list(dataset.contexts())
        artifacts = QATrainer(seed=config.seed).train(corpus)
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        retriever = CorpusRetriever.build(
            corpus,
            workers=config.workers,
            backend=config.backend,
            metadata={"dataset": config.dataset, "seed": config.seed},
        )
        service = cls(gced, config, retriever=retriever)
        service.dataset = dataset
        return service

    @classmethod
    def from_corpus(
        cls,
        corpus: Sequence[str],
        *,
        seed: int = 0,
        corpus_info: str = "corpus",
        retriever: CorpusRetriever | None = _BUILD_RETRIEVER,
        **fields,
    ) -> "DistillService":
        """Train artifacts on raw context paragraphs and wire the service.

        ``fields`` are :class:`ServiceConfig` fields (an unknown name
        raises :class:`TypeError`); ``corpus_info`` labels the corpus as
        ``config.dataset``.  Without ``retriever``, an index over
        ``corpus`` is built; pass ``retriever=None`` to serve without
        ``/ask``.
        """
        from repro.qa.training import QATrainer

        corpus = list(corpus)
        # Built first so a bad field fails before any O(corpus) work.
        config = ServiceConfig(
            dataset=corpus_info,
            seed=seed,
            n_train=len(corpus),
            n_dev=0,
            **fields,
        )
        artifacts = QATrainer(seed=seed).train(corpus)
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        if retriever is _BUILD_RETRIEVER:
            retriever = CorpusRetriever.build(
                corpus, metadata={"dataset": corpus_info, "seed": seed}
            )
        return cls(gced, config, retriever=retriever)

    # ------------------------------------------------------------ serving
    @staticmethod
    def _deadline(deadline_ms: float | None) -> float | None:
        """Client budget (``X-Deadline-Ms``) → absolute monotonic instant.

        A non-positive budget maps to *now*: it fails fast at submit
        rather than raising ``ValueError`` (the client named a budget;
        the honest answer is that it is already spent).
        """
        if deadline_ms is None:
            return None
        return time.monotonic() + max(0.0, float(deadline_ms)) / 1000.0

    @staticmethod
    def _await(
        request: DistillRequest,
        timeout: float | None,
        deadline: float | None,
    ) -> DistillationResult:
        """Wait for ``request``, bounding the wait by the deadline too.

        A deadline that runs out mid-execution surfaces as
        :class:`DeadlineExceededError` (→ 504), never a bare futures
        timeout.
        """
        if deadline is not None:
            remaining = deadline - time.monotonic()
            timeout = remaining if timeout is None else min(timeout, remaining)
            timeout = max(0.0, timeout)
        try:
            return request.result(timeout)
        except FuturesTimeoutError:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError(
                    "request deadline expired while waiting for the result"
                ) from None
            raise

    def distill(
        self,
        question: str,
        answer: str,
        context: str,
        timeout: float | None = None,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> DistillationResult:
        """Distill one triple through the micro-batching scheduler.

        Identical concurrent requests coalesce onto one computation.
        ``deadline_ms`` is the request's end-to-end budget: once spent,
        the request fails with :class:`DeadlineExceededError` — at
        submit, while queued (before consuming engine work), or while
        waiting on the result.

        Raises:
            RateLimitedError: ``client_id``'s token bucket is empty.
            QueueFullError: the scheduler's admission queue is full.
            DeadlineExceededError: the ``deadline_ms`` budget ran out.
            ValueError: invalid inputs (e.g. blank context).
        """
        deadline = self._deadline(deadline_ms)
        with obs_span("admission.admit", cost=1.0):
            self.admission.admit(client_id, cost=1.0)
        request = self.scheduler.submit(
            question, answer, context, deadline=deadline
        )
        with obs_span("scheduler.wait"):
            return self._await(request, timeout, deadline)

    def distill_dict(
        self,
        question: str,
        answer: str,
        context: str,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """JSON-safe single distillation, as served by ``/distill``."""
        result = self.distill(
            question,
            answer,
            context,
            client_id=client_id,
            deadline_ms=deadline_ms,
        )
        payload = result_to_dict(result, question, answer)
        return self._mark_degraded(payload)

    def submit(
        self, question: str, answer: str, context: str
    ) -> DistillRequest:
        """Fire-and-forget submission; returns the pending request.

        Bypasses token buckets (there is no client), but not the
        scheduler's queue bound — may raise :class:`QueueFullError`.
        """
        return self.scheduler.submit(question, answer, context)

    def distill_batch(
        self,
        triples: list[tuple[str, str, str]],
        timeout: float | None = None,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> list[DistillationResult | Exception]:
        """Distill many triples; failures come back per-item, not raised.

        The returned list is aligned with ``triples``; a poisoned triple
        yields its exception object while its batch-mates still yield
        results (the scheduler's error-isolation contract).  Admission is
        all-or-nothing and charged at ``len(triples)`` tokens: a shed
        batch raises (it never partially enqueues).  ``deadline_ms``
        applies to the whole batch; expired items come back as
        :class:`DeadlineExceededError` entries.
        """
        deadline = self._deadline(deadline_ms)
        cost = float(len(triples)) or 1.0
        with obs_span("admission.admit", cost=cost):
            self.admission.admit(client_id, cost=cost)
        requests = self.scheduler.submit_many(triples, deadline=deadline)
        outcomes: list[DistillationResult | Exception] = []
        with obs_span("scheduler.wait", n=len(requests)):
            for request in requests:
                try:
                    outcomes.append(self._await(request, timeout, deadline))
                except Exception as exc:
                    outcomes.append(exc)
        return outcomes

    # ------------------------------------------------------- open context
    def ask(
        self,
        question: str,
        answer: str,
        k: int | None = None,
        timeout: float | None = None,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> AskOutcome:
        """Open-context distillation: retrieve top-k, distill, re-rank.

        Every candidate paragraph is submitted through the micro-batching
        scheduler, so one ask's candidates coalesce into engine batches
        with whatever else is in flight (and identical concurrent asks
        share one computation per candidate).  Per-candidate failures are
        isolated (a failed paragraph ranks last with its error recorded)
        rather than failing the ask.  Charged at ``k`` tokens.

        Raises:
            RuntimeError: the service has no retriever attached.
            RateLimitedError / QueueFullError: shed by admission control.
            RetrievalUnavailableError: the retrieval breaker is open or
                the search failed.
        """
        if k is None:
            k = self.config.top_k
        deadline = self._deadline(deadline_ms)
        with obs_span("admission.admit", cost=float(k)):
            self.admission.admit(client_id, cost=float(k))
        return self._ask_outcome(question, answer, k, timeout, deadline)

    def _ask_outcome(
        self,
        question: str,
        answer: str,
        k: int,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> AskOutcome:
        """The retrieve -> distill -> re-rank body, past admission."""
        if self.retriever is None:
            raise RuntimeError(
                "service has no retriever; build it from a dataset/corpus "
                "or pass retriever= explicitly"
            )
        hits = self.retriever.retrieve_for_qa(question, answer, k=k)
        results: list[DistillationResult | Exception] = []
        if hits:
            requests = self.scheduler.submit_many(
                [(question, answer, hit.text) for hit in hits],
                deadline=deadline,
            )
            with obs_span("scheduler.wait", n=len(requests)):
                for request in requests:
                    try:
                        results.append(
                            self._await(request, timeout, deadline)
                        )
                    except Exception as exc:
                        results.append(exc)
        return build_outcome(question, answer, hits, results)

    def ask_dict(
        self,
        question: str,
        answer: str,
        k: int | None = None,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """JSON-safe open-context ask, as served by fat-mode ``/ask``."""
        outcome = self.ask(
            question,
            answer,
            k,
            client_id=client_id,
            deadline_ms=deadline_ms,
        )
        return self._mark_degraded(outcome.to_dict())

    def ask_page_dict(
        self,
        question: str | None = None,
        answer: str | None = None,
        k: int | None = None,
        page_size: int | None = None,
        cursor: str | None = None,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """One page of an open-context ask, as served by paged ``/ask``.

        Two entry points: a *fresh* paged ask names ``question`` /
        ``answer`` (+ optional ``k``) with a ``page_size``; a
        *continuation* passes the previous page's ``cursor`` (which
        carries the query and offset; ``page_size`` may override the
        cursor's).  Cursors are stateless — the ask re-runs and slices,
        with the distiller's content-keyed memo making continuation
        pages cheap (they are charged 1 token vs ``k`` for a fresh ask)
        and the deterministic ranking making every page a slice of the
        same ordering.

        Raises:
            ValueError: malformed cursor, or missing question/answer on
                a fresh paged ask, or ``page_size < 1``.
            RateLimitedError / QueueFullError: shed by admission control.
        """
        if cursor is not None:
            position = decode_cursor(cursor)
            question = position["question"]
            answer = position["answer"]
            k = position["k"]
            offset = position["offset"]
            page_size = page_size or position["page_size"]
            cost = 1.0
        else:
            if question is None or answer is None:
                raise ValueError(
                    "paged ask needs question and answer (or a cursor)"
                )
            if page_size is None:
                raise ValueError("paged ask needs page_size (or a cursor)")
            k = k if k is not None else self.config.top_k
            offset = 0
            cost = float(k)
        if page_size < 1:
            raise ValueError("page_size must be at least 1")
        deadline = self._deadline(deadline_ms)
        with obs_span("admission.admit", cost=cost):
            self.admission.admit(client_id, cost=cost)
        outcome = self._ask_outcome(question, answer, k, deadline=deadline)
        page = paginate_ask(outcome.to_dict(), k, offset, page_size)
        return self._mark_degraded(page)

    def distill_batch_dicts(
        self,
        items: list[dict],
        timeout: float | None = None,
        client_id: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """JSON-safe batch distillation, as served by ``/batch``."""
        triples = [
            (
                str(item.get("question", "")),
                str(item.get("answer", "")),
                str(item.get("context", "")),
            )
            for item in items
        ]
        outcomes = self.distill_batch(
            triples, timeout, client_id=client_id, deadline_ms=deadline_ms
        )
        results = []
        errors = 0
        for (question, answer, _context), outcome in zip(triples, outcomes):
            if isinstance(outcome, Exception):
                errors += 1
                results.append({"error": str(outcome) or type(outcome).__name__})
            else:
                results.append(result_to_dict(outcome, question, answer))
        return self._mark_degraded({"results": results, "errors": errors})

    # ------------------------------------------------------- live corpus
    def _on_compact(self, generation: int) -> None:
        """Post-compaction hook: push the fresh corpus to pool workers.

        ``refresh_snapshot`` rebuilds the pipeline snapshot at a bumped
        generation and broadcasts it to the *existing* worker pool (no
        respawn); callers without a process pool get a cheap no-op.
        Exceptions are swallowed by the ingest manager — a failed refresh
        never rolls back a committed compaction.
        """
        self.distiller.refresh_snapshot()

    def ingest_dicts(
        self, texts: Sequence[str], client_id: str | None = None
    ) -> dict:
        """Durably add paragraphs to the live corpus (``POST /ingest``).

        The documents are WAL-appended and fsynced before they are
        applied to the in-memory index — once this returns, the writes
        survive a crash at any point.  Charged at ``len(texts)`` tokens.

        Raises:
            RuntimeError: the service was started without ``ingest_dir``.
            ValueError: empty batch or blank/non-string document.
            RateLimitedError: ``client_id``'s token bucket is empty.
        """
        if self.ingest is None:
            raise RuntimeError(
                "service has no ingest plane; start with ingest_dir"
            )
        cost = float(len(texts)) or 1.0
        with obs_span("admission.admit", cost=cost):
            self.admission.admit(client_id, cost=cost)
        doc_ids = self.ingest.add_documents(list(texts))
        return self._mark_degraded(
            {
                "doc_ids": doc_ids,
                "live_docs": self.ingest.index.n_docs,
                "generation": self.ingest.generation,
            }
        )

    def delete_doc_dict(
        self, doc_id: int, client_id: str | None = None
    ) -> dict:
        """Tombstone one document (``DELETE /docs/<id>``).

        The delete is WAL-durable before it takes effect; the doc id is
        never reused.  Raises :class:`KeyError` for an unknown or
        already-deleted id (the HTTP front end maps it to 404).
        """
        if self.ingest is None:
            raise RuntimeError(
                "service has no ingest plane; start with ingest_dir"
            )
        with obs_span("admission.admit", cost=1.0):
            self.admission.admit(client_id, cost=1.0)
        self.ingest.delete_document(int(doc_id))
        return self._mark_degraded(
            {
                "deleted": int(doc_id),
                "live_docs": self.ingest.index.n_docs,
                "generation": self.ingest.generation,
            }
        )

    # ------------------------------------------------------ observability
    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    @property
    def degraded(self) -> bool:
        """True while any circuit breaker is open/half-open: distills
        run serially in the coordinator, and/or ``/ask`` answers ``503``
        until the retrieval breaker's cooldown ends."""
        if self.distiller.degraded:
            return True
        return self.retriever is not None and self.retriever.degraded

    def _mark_degraded(self, payload: dict) -> dict:
        """Stamp ``degraded: true`` on a response served degraded.

        Healthy responses are untouched — byte-identical to what the
        service returned before breakers existed (the determinism
        contract the self-test compares against).
        """
        if self.degraded:
            payload["degraded"] = True
        return payload

    def healthz(self) -> dict:
        """Liveness + degradation: ``ok`` | ``degraded`` | ``failing``.

        ``failing`` means the scheduler's flusher thread is gone (the
        service cannot serve at all — the probe should restart it);
        ``degraded`` means a breaker is open: distills run serially,
        and/or ``/ask`` answers ``503`` until retrieval recovers.
        """
        alive = self.scheduler.alive or self.scheduler.closed
        if not alive:
            status = "failing"
        elif self.degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "uptime_seconds": self.uptime_seconds,
            "degraded": self.degraded,
            "checks": {
                "scheduler_alive": alive,
                "pool_breaker": self.distiller.pool_breaker.state,
                "retrieval_breaker": (
                    self.retriever.breaker.state
                    if self.retriever is not None
                    else None
                ),
            },
        }

    def stats(self) -> dict:
        """Everything ``/stats`` reports: config, queue, timings, caches.

        ``stages`` carries the per-stage wall-clock the engine's
        :class:`~repro.engine.instrumentation.PipelineProfile` collected;
        ``caches`` the hit rates of the shared parser/scorer caches plus
        the distiller's ``results`` memo; ``scheduler`` the micro-batching
        counters including the live queue depth, coalescing, and shed
        counts; ``admission`` the per-client token-bucket counters.  See
        ``docs/operations.md`` for the field-by-field reference.
        """
        batch_stats = self.distiller.stats()
        profile = batch_stats.profile.to_dict()
        compiler = self.gced.compiler
        compiled_block = None
        if compiler is not None:
            snap = compiler.snapshot()
            compiled_block = {
                "contexts": snap.size,
                "bytes": snap.bytes,
                "hits": snap.hits,
                "misses": snap.misses,
                "hit_rate": (
                    snap.hits / (snap.hits + snap.misses)
                    if snap.hits + snap.misses
                    else 0.0
                ),
            }
        return {
            "service": {
                "corpus": self.config.dataset,
                "uptime_seconds": self.uptime_seconds,
                "config": self.config.to_dict(),
                # The per-paragraph compiled-artifact cache every QA
                # prediction draws on (None for QA models without one).
                "compiled_contexts": compiled_block,
                "retrieval": (
                    {
                        "docs": self.retriever.index.n_docs,
                        "terms": self.retriever.index.n_terms,
                        "shards": self.retriever.index.n_shards,
                        "scorer": self.retriever.scorer.name,
                        "top_k": self.config.top_k,
                    }
                    if self.retriever is not None
                    else None
                ),
            },
            "admission": self.admission.stats(),
            "scheduler": self.scheduler.stats().to_dict(),
            # Fault-tolerance plane: breaker states, degraded counters,
            # pool crash-recovery stats, and the installed fault plan
            # (None unless REPRO_FAULTS injection is active).
            "faults": {
                "degraded": self.degraded,
                "pool": self.distiller.recovery_info(),
                "retrieval": (
                    self.retriever.recovery_info()
                    if self.retriever is not None
                    else None
                ),
                "plan": (
                    faults_installed().stats()
                    if faults_installed() is not None
                    else None
                ),
            },
            # Pipeline-snapshot plane (None unless the distiller runs
            # snapshot-spawned process workers): build cost, segment
            # size, per-worker load times, and hydration hit rate.
            "snapshot": self.distiller.snapshot_info(),
            # Durable live-corpus plane (None without ingest_dir): WAL
            # bytes, tombstones, compaction generation, replay counters.
            "ingest": (
                self.ingest.stats() if self.ingest is not None else None
            ),
            "batch": {
                "n_distilled": batch_stats.n_distilled,
                "n_cache_hits": batch_stats.n_cache_hits,
                "total_seconds": batch_stats.total_seconds,
                "mean_ms": batch_stats.mean_ms,
                "mean_reduction": batch_stats.mean_reduction,
            },
            "stages": profile["stages"],
            "counters": profile["counters"],
            "caches": profile["caches"],
            "obs": self.telemetry.stats_block(),
        }

    # ------------------------------------------------------------ closing
    def close(self, drain: bool = True) -> None:
        """Shut down: drain (or fail, with ``drain=False``) queued
        requests, then stop the executor pool.  Idempotent."""
        self.scheduler.close(drain=drain)
        self.distiller.close()
        if self.ingest is not None:
            self.ingest.close()

    def __enter__(self) -> "DistillService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
