"""Admission control for the serving tier: token buckets + shed errors.

Two layers decide whether a request is *admitted* before any engine work
is scheduled:

1. **Per-client token buckets** (:class:`AdmissionController`) — each
   client id (the ``X-Client-Id`` header at the HTTP edge) refills at
   ``rate`` tokens/second up to a ``burst`` ceiling, and anonymous
   requests share one default bucket, so a single hot client cannot
   starve everyone else.  A request's *cost* is the number of engine
   triples it schedules (1 for ``/distill``, ``len(items)`` for
   ``/batch``, ``k`` for a fresh ``/ask``, 1 for a cursor page).
2. **The bounded scheduler queue** — once admitted, a request can still
   be shed by :class:`~repro.service.scheduler.MicroBatchScheduler` when
   its admission queue is at ``max_queue_depth``.

Both layers shed by raising a :class:`ShedError` subclass carrying a
``retry_after`` hint in seconds; the HTTP front end maps them to
``429 Too Many Requests`` with a ``Retry-After`` header (the one other
:class:`ShedError`, the retriever's ``RetrievalUnavailableError``,
answers ``503``).  Token-bucket hints are exact (time until the bucket
holds enough tokens); queue hints are derived from the observed batch
latency.

Thread safety: all public methods are safe to call from any number of
server handler threads; buckets are guarded by one controller lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.faults import ShedError

__all__ = [
    "AdmissionController",
    "DeadlineExceededError",
    "OverloadedError",
    "QueueFullError",
    "RateLimitedError",
    "ShedError",
    "TokenBucket",
]

# Anonymous requests (no client id) all draw from this shared bucket, so
# unidentified traffic is rate-limited collectively rather than not at all.
DEFAULT_CLIENT = "anonymous"


class QueueFullError(ShedError):
    """Shed because the scheduler's admission queue is at capacity."""


class RateLimitedError(ShedError):
    """Shed because the client's token bucket is empty."""


# Back-compat alias: the generic name callers catch when they do not care
# which admission layer shed the request.
OverloadedError = ShedError


class DeadlineExceededError(RuntimeError):
    """A request's end-to-end deadline (``X-Deadline-Ms``) expired.

    Not a :class:`ShedError`: the server answers ``504 Gateway Timeout``
    (the budget ran out), not ``429`` (come back later).  Raised at
    submit time when the budget is already spent, by the scheduler when
    a queued request expires before its batch flushes (failing fast
    instead of consuming engine work), and by the waiting handler when
    the budget runs out mid-execution.

    Attributes:
        deadline_ms: the client's original budget, when known.
        waited_ms: how long the request had been in the system.
    """

    def __init__(
        self,
        message: str,
        deadline_ms: float | None = None,
        waited_ms: float | None = None,
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.waited_ms = waited_ms


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``.

    The bucket starts full.  :meth:`try_acquire` is lock-free (the owning
    :class:`AdmissionController` serializes access); it either debits the
    requested tokens and returns ``0.0``, or leaves the bucket untouched
    and returns the seconds until the debit would succeed.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = time.monotonic()

    def try_acquire(self, tokens: float = 1.0, now: float | None = None) -> float:
        """Debit ``tokens`` if available; else return the wait in seconds."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= tokens:
            self.tokens -= tokens
            return 0.0
        # A cost above the burst ceiling can never succeed by waiting; the
        # hint still reports the honest refill time for the shortfall.
        return (tokens - self.tokens) / self.rate


class AdmissionController:
    """Per-client token buckets with a bounded client table.

    Args:
        rate: tokens/second each client's bucket refills at; ``0``
            disables rate limiting entirely (every request is admitted).
        burst: bucket capacity; ``0`` defaults to ``max(1, rate)`` so a
            client can always spend about one second of rate at once.
        max_clients: distinct client buckets kept (LRU-evicted beyond
            this; an evicted client restarts with a full bucket).

    Thread safety: one lock guards the bucket table and every bucket.
    """

    def __init__(
        self,
        rate: float = 0.0,
        burst: float = 0.0,
        max_clients: int = 1024,
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        self.rate = float(rate)
        self.burst = float(burst) if burst > 0 else max(1.0, self.rate)
        self.max_clients = max_clients
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._lock = threading.Lock()
        self._admitted = 0
        self._rate_limited = 0

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def admit(self, client_id: str | None = None, cost: float = 1.0) -> None:
        """Admit or shed one request worth ``cost`` engine triples.

        Raises:
            RateLimitedError: the client's bucket cannot cover ``cost``;
                ``retry_after`` is the exact refill wait.
        """
        if not self.enabled:
            return
        client = client_id or DEFAULT_CLIENT
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst)
                self._buckets[client] = bucket
                while len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client)
            wait = bucket.try_acquire(cost)
            if wait > 0.0:
                self._rate_limited += 1
                raise RateLimitedError(
                    f"client {client!r} is over its request rate "
                    f"({self.rate:g}/s, burst {self.burst:g}); "
                    f"retry in {wait:.2f}s",
                    retry_after=wait,
                )
            self._admitted += 1

    def stats(self) -> dict:
        """Counters for ``/stats``: admitted/rate-limited totals, clients."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "rate_per_sec": self.rate,
                "burst": self.burst,
                "clients": len(self._buckets),
                "admitted": self._admitted,
                "rate_limited": self._rate_limited,
            }
