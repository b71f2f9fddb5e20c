"""Async micro-batching scheduler with coalescing and bounded admission.

A long-lived service receives distillation requests one at a time, but
the engine is at its best on *batches*: :class:`~repro.core.batch.BatchDistiller`
dedupes within a batch, memoizes finished triples, groups work by context
paragraph, and fans chunks out to the
:class:`~repro.engine.executor.ParallelExecutor`.  The scheduler bridges
the two worlds: callers submit single requests and get a future back;
a background flusher thread coalesces queued requests into micro-batches
and runs each batch through the distiller.

The flush is work-conserving: whenever the flusher is free and the
queue is not empty, it takes up to ``max_batch_size`` queued requests at
once (*idle flush*, or *size flush* when the batch is full).  Batches
form the way a group commit does, from the requests that arrive while
the previous flush executes, so a request waits at most for the batch
already running.  An explicit ``max_wait_ms`` linger (default 0) makes
the flusher hold a partial batch until that long after its oldest
request arrived (*timeout flush*) or until it fills (*size flush*).

Requests flush strictly in arrival order (FIFO), so no request can be
starved by later arrivals.  Errors are isolated per request: if a batch
fails, every request in it is retried individually and only the poisoned
ones receive the exception.

Three production-traffic behaviours sit in front of the queue:

* **Memo hits at submit** — a triple the distiller has already finished
  is answered on the submitting thread from its result memo: the
  returned future is already done, and the request takes no queue slot
  and no flush.

* **In-flight coalescing** — a submit whose ``(question, answer,
  context)`` triple is already queued *or executing* attaches to that
  computation instead of enqueuing a duplicate: the attached request's
  future resolves with (a reference to) the same result, and on failure
  every attached request receives the same exception.  Results are safe
  to share because distillation is a pure function of the triple (the
  same contract the distiller's content-keyed memo relies on); the memo
  covers *finished* triples, coalescing covers *in-flight* ones.
* **Bounded admission** — with ``max_queue_depth`` set, a submit that
  would grow the queue past the bound is shed with
  :class:`~repro.service.admission.QueueFullError` carrying a
  ``retry_after`` hint derived from the observed batch latency (an EWMA
  over flushes) and the current backlog.  Coalesced submits never count
  against the bound: attaching to in-flight work adds no queue pressure.

Thread safety: any number of threads may submit concurrently; one
condition lock guards the queue, the in-flight table, and all counters.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.batch import BatchDistiller
from repro.core.result import DistillationResult
from repro.faults import fault_point
from repro.obs import trace as obs_trace
from repro.service.admission import DeadlineExceededError, QueueFullError
from repro.utils.cache import MISSING

__all__ = [
    "DistillRequest",
    "MicroBatchScheduler",
    "QueueFullError",
    "SchedulerClosedError",
    "SchedulerStats",
]


class SchedulerClosedError(RuntimeError):
    """A request reached a scheduler that has been closed.

    The server answers it with a retryable ``503``: another replica, or
    this one after a restart, can serve the retry.
    """


# EWMA smoothing for observed batch latency: 0.25 weighs the last few
# batches heavily enough to track load shifts while ignoring one outlier.
_EWMA_ALPHA = 0.25


@dataclass
class DistillRequest:
    """One queued (question, answer, context) distillation.

    A *coalesced* request (``coalesced=True``) was attached to an
    identical in-flight computation at submit time: it owns no queue
    slot, and its future resolves when the primary request's does.
    """

    question: str
    answer: str
    context: str
    future: Future = field(
        default_factory=Future, repr=False, compare=False
    )
    enqueued_at: float = field(
        default_factory=time.monotonic, repr=False, compare=False
    )
    coalesced: bool = field(default=False, compare=False)
    # Futures of requests coalesced onto this (primary) request; resolved
    # together with `future` by the flusher.
    attached: list[Future] = field(
        default_factory=list, repr=False, compare=False
    )
    # The submitter's active trace, captured at construction so the
    # flusher thread can record scheduler/engine spans into it.
    trace: obs_trace.Trace | None = field(
        default=None, repr=False, compare=False
    )
    parent_span_id: str | None = field(
        default=None, repr=False, compare=False
    )
    # Absolute ``time.monotonic()`` instant the request's end-to-end
    # budget (``X-Deadline-Ms``) runs out; None = no deadline.
    deadline: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.trace is None:
            active = obs_trace.current()
            if active is not None:
                self.trace, self.parent_span_id = active

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.question, self.answer, self.context)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def result(self, timeout: float | None = None) -> DistillationResult:
        """Block until the batch containing this request has flushed."""
        return self.future.result(timeout)


@dataclass(frozen=True)
class SchedulerStats:
    """Counters describing the scheduler's batching behaviour so far.

    ``submitted``/``completed``/``failed`` count *requests* (coalesced
    ones included); ``flushed`` counts queue slots that went through
    batches, so ``mean_batch_size`` stays an engine-side measure.
    ``coalesced`` requests attached to in-flight work, ``shed`` were
    refused because the queue was at ``max_queue_depth``.  Each batch
    counts under one flush trigger: ``size`` (the batch was full),
    ``timeout`` (the ``max_wait_ms`` linger ran out) or ``idle`` (the
    flusher took what was queued without lingering).
    """

    queue_depth: int
    submitted: int
    completed: int
    failed: int
    batches: int
    size_flushes: int
    timeout_flushes: int
    coalesced: int = 0
    shed: int = 0
    flushed: int = 0
    inflight: int = 0
    ewma_batch_ms: float = 0.0
    deadline_expired: int = 0
    idle_flushes: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.flushed / self.batches if self.batches else 0.0

    @property
    def coalesce_hit_rate(self) -> float:
        return self.coalesced / self.submitted if self.submitted else 0.0

    def to_dict(self) -> dict:
        return {
            "queue_depth": self.queue_depth,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "size_flushes": self.size_flushes,
            "timeout_flushes": self.timeout_flushes,
            "idle_flushes": self.idle_flushes,
            "coalesced": self.coalesced,
            "coalesce_hit_rate": self.coalesce_hit_rate,
            "shed": self.shed,
            "flushed": self.flushed,
            "inflight": self.inflight,
            "ewma_batch_ms": self.ewma_batch_ms,
            "mean_batch_size": self.mean_batch_size,
            "deadline_expired": self.deadline_expired,
        }


class MicroBatchScheduler:
    """Coalesces concurrent requests into engine-sized micro-batches.

    Args:
        distiller: the warm :class:`BatchDistiller` every batch runs on.
            Only the flusher thread runs the pipeline, so callers never
            contend on it; submitting threads only read its result memo
            (:meth:`BatchDistiller.memo_lookup`).
        max_batch_size: the most requests one flush takes.
        max_wait_ms: linger cap — hold a partial batch until this long
            after its *oldest* request arrived.  ``0`` (default) never
            lingers: the flusher takes the queue as soon as it is free,
            so requests queued behind a running flush still batch.
        max_queue_depth: admission bound — a submit that would grow the
            queue past this many pending requests raises
            :class:`QueueFullError` (with a ``retry_after`` hint) instead
            of enqueuing.  ``0`` (default) leaves admission unbounded.

    Thread safety: :meth:`submit`, :meth:`submit_many`, :meth:`distill`,
    :meth:`stats`, and :meth:`close` may be called from any thread.

    Error modes: submits raise :class:`SchedulerClosedError` after
    :meth:`close`, and :class:`QueueFullError` when shed; a request
    future raises the per-request distillation error (poisoned triples
    only — batch-mates are unaffected) or :class:`SchedulerClosedError`
    if the scheduler was closed with ``drain=False`` while it was queued.
    """

    def __init__(
        self,
        distiller: BatchDistiller,
        max_batch_size: int = 16,
        max_wait_ms: float = 0.0,
        max_queue_depth: int = 0,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        self.distiller = distiller
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue_depth = max_queue_depth
        self._queue: deque[DistillRequest] = deque()
        # Primary request per triple, from enqueue until its future
        # resolves; identical submits attach here instead of queueing.
        self._inflight: dict[tuple[str, str, str], DistillRequest] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        # Batches by flush trigger (see SchedulerStats).
        self._flushes = {"size": 0, "timeout": 0, "idle": 0}
        self._coalesced = 0
        self._shed = 0
        self._flushed = 0
        self._batches = 0
        self._deadline_expired = 0
        self._ewma_batch_s = 0.0
        # Optional telemetry hook: called after every flush (outside the
        # lock) as ``on_batch(seconds, size, reason, ok)``.
        self.on_batch = None
        self._thread = threading.Thread(
            target=self._run, name="gced-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- submit
    def submit(
        self,
        question: str,
        answer: str,
        context: str,
        deadline: float | None = None,
    ) -> DistillRequest:
        """Queue one request (or attach to an identical in-flight one).

        Returns immediately with the request holding a future, already
        done when the distiller's memo holds the triple.  ``deadline`` is
        an absolute ``time.monotonic()`` instant; a request whose deadline
        has already passed is refused without touching the queue, and one
        that expires while queued fails at flush time before any engine
        work runs.

        Raises:
            SchedulerClosedError: the scheduler is closed.
            QueueFullError: the queue is at ``max_queue_depth`` and the
                triple could not coalesce onto in-flight work.
            DeadlineExceededError: ``deadline`` is already in the past.
        """
        return self._submit([(question, answer, context)], deadline)[0]

    def submit_many(
        self,
        triples: list[tuple[str, str, str]],
        deadline: float | None = None,
    ) -> list[DistillRequest]:
        """Queue several triples atomically, preserving their order.

        Duplicate triples within the call (and triples identical to
        in-flight work) coalesce onto one computation.  Admission is
        all-or-nothing: if the non-coalescable remainder does not fit
        under ``max_queue_depth``, the whole call is shed with
        :class:`QueueFullError` and nothing is enqueued; the bound is
        checked before the memo is, so a memoized triple counts against
        it like any other.  ``deadline`` (absolute monotonic) applies to
        every request in the call.
        """
        return self._submit(triples, deadline)

    def _submit(
        self, triples: list[tuple[str, str, str]], deadline: float | None
    ) -> list[DistillRequest]:
        """Admit ``triples`` under one hold of the lock.

        Both public submits end here; neither calls the other, so a
        wrapper around either sees each request once.
        """
        self._check_deadline(deadline)
        requests = [
            DistillRequest(*triple, deadline=deadline) for triple in triples
        ]
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            depth = len(self._queue)
            if self.max_queue_depth:
                fresh = {
                    request.triple
                    for request in requests
                    if request.triple not in self._inflight
                }
                if depth + len(fresh) > self.max_queue_depth:
                    self._shed += len(requests)
                    raise QueueFullError(
                        f"admission queue is full ({depth}/"
                        f"{self.max_queue_depth} pending; "
                        f"{len(fresh)} new request(s) do not fit)",
                        retry_after=self._retry_after_locked(extra=len(fresh)),
                    )
            answered = []
            for request in requests:
                cached = self._admit_locked(request)
                if cached is not MISSING:
                    answered.append((request, cached))
            for request, result in answered:
                done, _failed = self._resolve(request, result=result)
                self._completed += done
            if len(self._queue) > depth:
                self._cond.notify_all()
        return requests

    def _check_deadline(self, deadline: float | None) -> None:
        """Refuse a request whose budget is spent before it queues."""
        if deadline is not None and time.monotonic() >= deadline:
            with self._cond:
                self._deadline_expired += 1
            raise DeadlineExceededError(
                "request deadline expired before it could be queued",
            )

    def _admit_locked(self, request: DistillRequest):
        """Coalesce onto in-flight work, else answer from the memo, else enqueue.

        Returns the memoized result when the distiller has already
        finished the triple, else ``MISSING``.  The caller resolves a
        memo-answered request once the whole call is admitted; until then
        it sits in the in-flight table, so a duplicate later in the same
        call coalesces onto it exactly as onto a queued request.
        """
        self._submitted += 1
        primary = self._inflight.get(request.triple)
        if primary is not None:
            primary.attached.append(request.future)
            request.coalesced = True
            self._coalesced += 1
            if request.trace is not None:
                # Tag the coalesced request's trace with the primary's
                # trace id so the two traces can be joined offline.
                tags = {}
                if primary.trace is not None:
                    tags["primary_trace"] = primary.trace.trace_id
                obs_trace.record_event(
                    request.trace,
                    "scheduler.coalesced",
                    parent_id=request.parent_span_id,
                    **tags,
                )
            return MISSING
        self._inflight[request.triple] = request
        cached = self.distiller.memo_lookup(request.triple)
        if cached is MISSING:
            self._queue.append(request)
        elif request.trace is not None:
            obs_trace.record_event(
                request.trace,
                "scheduler.memo_hit",
                parent_id=request.parent_span_id,
            )
        return cached

    def distill(
        self,
        question: str,
        answer: str,
        context: str,
        timeout: float | None = None,
    ) -> DistillationResult:
        """Submit one request and block for its result."""
        return self.submit(question, answer, context).result(timeout)

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def retry_after_hint(self) -> float:
        """Seconds a shed client should wait: backlog x observed batch latency."""
        with self._cond:
            return self._retry_after_locked(extra=1)

    def _retry_after_locked(self, extra: int = 0) -> float:
        """Expected time (s) to drain the backlog plus ``extra`` requests."""
        batch_s = self._ewma_batch_s or (self.max_wait_ms / 1000.0 + 0.05)
        batches_ahead = math.ceil(
            (len(self._queue) + extra) / self.max_batch_size
        )
        return round(max(0.05, batches_ahead * batch_s), 3)

    # -------------------------------------------------------------- flush
    def _run(self) -> None:
        while True:
            batch, reason = self._next_batch()
            if batch is None:
                return
            if batch:
                self._flush(batch, reason)

    def _next_batch(
        self,
    ) -> tuple[list[DistillRequest] | None, str]:
        """Block until a batch is due; ``(None, ...)`` means shut down.

        Without a linger the batch is whatever queued while the flusher
        was busy, taken at once.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None, "closed"
                self._cond.wait()
            reason = "idle"
            if self.max_wait_ms:
                reason = "timeout"
                deadline = (
                    self._queue[0].enqueued_at + self.max_wait_ms / 1000.0
                )
                while (
                    len(self._queue) < self.max_batch_size
                    and not self._closed
                ):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
            if len(self._queue) >= self.max_batch_size:
                reason = "size"
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), self.max_batch_size))
            ]
            return batch, reason

    def _resolve(
        self,
        request: DistillRequest,
        result: DistillationResult | None = None,
        error: Exception | None = None,
    ) -> tuple[int, int]:
        """Complete a request and everything coalesced onto it.

        The in-flight entry is removed *before* the futures resolve, so a
        new identical submit either attached in time (and resolves here)
        or starts a fresh computation — never observes a done primary.
        Returns ``(completed, failed)`` request counts.
        """
        with self._cond:
            self._inflight.pop(request.triple, None)
            attached = list(request.attached)
            request.attached.clear()
        futures = [request.future, *attached]
        if error is not None:
            for future in futures:
                future.set_exception(error)
            return 0, len(futures)
        for future in futures:
            future.set_result(result)
        return len(futures), 0

    def _begin_batch_trace(
        self, batch: list[DistillRequest], reason: str
    ):
        """Open the batch span on the first traced request's trace.

        The flusher thread runs on its own context, so the primary
        request's ``(trace, parent_id)`` is re-activated explicitly.
        Every *other* traced request in the batch gets (a) a
        ``scheduler.queue`` span covering its time in the queue and
        (b) a ``scheduler.batch`` link event naming the primary's trace
        id — one batch span linking N request traces.  Returns
        ``(context_token, flush_span)`` for :meth:`_end_batch_trace`.
        """
        traced = [request for request in batch if request.trace is not None]
        if not traced:
            return None, None
        now = time.time()
        monotonic_now = time.monotonic()
        for request in traced:
            waited = max(0.0, monotonic_now - request.enqueued_at)
            request.trace.add(
                obs_trace.Span(
                    "scheduler.queue",
                    request.trace.trace_id,
                    parent_id=request.parent_span_id,
                    start=now - waited,
                    end=now,
                )
            )
        primary = traced[0]
        token = obs_trace.activate(primary.trace, primary.parent_span_id)
        flush_span = obs_trace.span(
            "scheduler.flush", size=len(batch), reason=reason
        )
        flush_span.__enter__()
        if len(traced) > 1:
            flush_span.tag(linked_traces=len(traced) - 1)
        for request in traced[1:]:
            obs_trace.record_event(
                request.trace,
                "scheduler.batch",
                parent_id=request.parent_span_id,
                batch_trace=primary.trace.trace_id,
                size=len(batch),
            )
        return token, flush_span

    def _cull_expired(
        self, batch: list[DistillRequest]
    ) -> list[DistillRequest]:
        """Fail queued requests whose deadline passed, before engine work.

        Each expired request (and everything coalesced onto it) resolves
        with :class:`DeadlineExceededError` — a fast 504 at the HTTP
        edge — and records a ``deadline.expired`` event on its trace.
        Returns the still-live remainder of the batch.
        """
        now = time.monotonic()
        live: list[DistillRequest] = []
        expired_failed = 0
        for request in batch:
            if not request.expired(now):
                live.append(request)
                continue
            waited_ms = round((now - request.enqueued_at) * 1000.0, 3)
            if request.trace is not None:
                obs_trace.record_event(
                    request.trace,
                    "deadline.expired",
                    parent_id=request.parent_span_id,
                    waited_ms=waited_ms,
                )
            _done, bad = self._resolve(
                request,
                error=DeadlineExceededError(
                    "request deadline expired after "
                    f"{waited_ms:.0f}ms in the scheduler queue",
                    waited_ms=waited_ms,
                ),
            )
            expired_failed += bad
        if expired_failed:
            with self._cond:
                self._failed += expired_failed
                self._deadline_expired += expired_failed
        return live

    def _flush(self, batch: list[DistillRequest], reason: str) -> None:
        batch = self._cull_expired(batch)
        if not batch:
            return
        flush_started = time.monotonic()
        token, flush_span = self._begin_batch_trace(batch, reason)
        try:
            try:
                fault_point("scheduler.flush", detail=reason)
                results = self.distiller.distill_many(
                    [request.triple for request in batch]
                )
            except Exception:
                # Error isolation: re-run the batch one request at a time
                # so a single poisoned triple cannot fail its batch-mates.
                results = None
            completed = failed = 0
            if results is not None:
                for request, result in zip(batch, results):
                    done, bad = self._resolve(request, result=result)
                    completed += done
                    failed += bad
            else:
                for request in batch:
                    if request.expired():
                        # The serial fallback is slow; budgets can run
                        # out between items.  Still fail fast.
                        done, bad = self._resolve(
                            request,
                            error=DeadlineExceededError(
                                "request deadline expired during the "
                                "per-request fallback"
                            ),
                        )
                        with self._cond:
                            self._deadline_expired += bad
                        completed += done
                        failed += bad
                        continue
                    try:
                        result = self.distiller.distill_one(*request.triple)
                    except Exception as exc:
                        done, bad = self._resolve(request, error=exc)
                    else:
                        done, bad = self._resolve(request, result=result)
                    completed += done
                    failed += bad
        finally:
            if flush_span is not None:
                flush_span.__exit__(None, None, None)
            if token is not None:
                obs_trace.deactivate(token)
        elapsed = time.monotonic() - flush_started
        batch_ok = results is not None
        with self._cond:
            self._completed += completed
            self._failed += failed
            self._flushed += len(batch)
            self._batches += 1
            if batch_ok:
                # Only successful batches inform the Retry-After hint: a
                # failed batch's duration includes the serial per-request
                # fallback, which would skew the EWMA far above the
                # latency a retrying client will actually observe.
                self._ewma_batch_s = (
                    elapsed
                    if not self._ewma_batch_s
                    else _EWMA_ALPHA * elapsed
                    + (1.0 - _EWMA_ALPHA) * self._ewma_batch_s
                )
            self._flushes[reason] += 1
        on_batch = self.on_batch
        if on_batch is not None:
            on_batch(elapsed, len(batch), reason, batch_ok)

    # ------------------------------------------------------ observability
    def stats(self) -> SchedulerStats:
        with self._cond:
            return SchedulerStats(
                queue_depth=len(self._queue),
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                batches=self._batches,
                size_flushes=self._flushes["size"],
                timeout_flushes=self._flushes["timeout"],
                idle_flushes=self._flushes["idle"],
                coalesced=self._coalesced,
                shed=self._shed,
                flushed=self._flushed,
                inflight=len(self._inflight),
                ewma_batch_ms=round(1000.0 * self._ewma_batch_s, 3),
                deadline_expired=self._deadline_expired,
            )

    @property
    def alive(self) -> bool:
        """True while the flusher thread is running (healthz ``failing``
        when it is not and the scheduler was never closed)."""
        return self._thread.is_alive()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # ------------------------------------------------------------ closing
    def close(self, timeout: float | None = 10.0, drain: bool = True) -> None:
        """Stop accepting requests and join the flusher thread.

        With ``drain=True`` (default) everything already queued still
        flushes through the engine before the thread exits.  With
        ``drain=False`` the queue is abandoned: every queued request (and
        everything coalesced onto it) fails promptly with
        :class:`SchedulerClosedError` — nothing hangs, nothing silently
        drops.  A batch already executing completes either way.
        Subsequent submits raise :class:`SchedulerClosedError`; ``close``
        is idempotent.
        """
        abandoned: list[DistillRequest] = []
        with self._cond:
            self._closed = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        failed = 0
        for request in abandoned:
            _done, bad = self._resolve(
                request,
                error=SchedulerClosedError(
                    "scheduler closed before this request was flushed"
                ),
            )
            failed += bad
        if failed:
            with self._cond:
                self._failed += failed
        self._thread.join(timeout)

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
