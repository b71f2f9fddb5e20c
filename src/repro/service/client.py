"""Tiny stdlib HTTP client for the GCED evidence service.

Used by the test suite, the latency/saturation benchmarks, and ``repro
serve --self-test``; also a reference for how to talk to the service
from any language (it is plain JSON over HTTP).

Load-shed responses (``429``) surface as :class:`ServiceError` with
``status == 429`` and ``retry_after`` populated from the ``Retry-After``
header — callers decide whether to back off and retry or give up.
Transport failures (connection refused, socket timeout mid-body,
malformed response JSON) surface as :class:`ServiceError` with
``status == 0`` so callers handle every failure through one type.

Transport: every request goes over a keep-alive HTTP/1.1 connection,
one per calling thread, opened on first use.  A transport error or an
unreadable body closes that thread's connection and the next request
reconnects; the failed request itself is never resent behind the
caller's back (``/ingest`` is not idempotent) — resending is the
:class:`RetryPolicy`'s decision alone.  A kept-alive connection the
server has since closed (its idle timeout) is noticed before a request
is sent on it and replaced by a fresh one.

Retries are opt-in: pass a :class:`RetryPolicy` and the client retries
retryable statuses (and transport failures) with capped exponential
backoff.  The jitter is *deterministic* — derived from the client id and
attempt number, never ``random`` — keeping the repo's reproducibility
contract: the same client retrying the same request sleeps the same
schedule every run.  A server ``Retry-After`` hint is honored (up to the
policy's cap) in place of a shorter computed delay.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import weakref
import zlib
from dataclasses import dataclass
from typing import Iterator

__all__ = ["RetryPolicy", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP error response from the service, with its parsed body.

    Attributes:
        status: the HTTP status code (400 invalid input, 404 unknown
            path, 405 wrong method, 429 shed by admission control,
            503 endpoint unavailable, 504 deadline expired) — or ``0``
            for transport failures that never produced a status
            (connection refused, timeout, malformed response body).
        payload: the parsed JSON error body.
        retry_after: seconds to wait before retrying, from the
            ``Retry-After`` header (precise float from the body when
            present); ``None`` for non-shed errors.
        trace_id: the server's ``X-Trace-Id`` response header when the
            failed request was traced — errors echo it exactly like
            successes, so a failure can be fished out of
            ``/debug/traces`` and the server logs.
    """

    def __init__(
        self,
        status: int,
        payload: dict,
        retry_after: float | None = None,
        trace_id: str | None = None,
    ) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = status
        self.payload = payload
        precise = (
            payload.get("retry_after_seconds")
            if isinstance(payload, dict)
            else None
        )
        self.retry_after = precise if precise is not None else retry_after
        self.trace_id = trace_id


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes:
        retries: additional attempts after the first (3 → up to 4
            requests total).
        base_delay_s: delay before the first retry.
        max_delay_s: ceiling on any single delay, including the
            server's ``Retry-After`` hint.
        backoff: multiplier between consecutive delays.
        retry_statuses: HTTP statuses worth retrying — load shed (429)
            and the transient 5xx family; 400/404/500 are not listed
            because retrying them cannot succeed.
        retry_transport: also retry ``status == 0`` transport failures
            (connection refused, timeout, truncated body).
    """

    retries: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    backoff: float = 2.0
    retry_statuses: tuple[int, ...] = (429, 502, 503, 504)
    retry_transport: bool = True

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be at least 1.0")

    def should_retry(self, error: ServiceError) -> bool:
        if error.status == 0:
            return self.retry_transport
        return error.status in self.retry_statuses

    def delay(
        self,
        attempt: int,
        client_id: str | None = None,
        retry_after: float | None = None,
    ) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based).

        Deterministic jitter: up to +25% of the base delay, derived
        from ``crc32(client_id:attempt)`` so distinct clients desync
        without any randomness.  A server ``Retry-After`` hint raises
        the delay up to ``max_delay_s``.
        """
        base = min(
            self.max_delay_s, self.base_delay_s * self.backoff**attempt
        )
        seed = zlib.crc32(f"{client_id or ''}:{attempt}".encode("utf-8"))
        jitter = (seed / 2**32) * 0.25 * base
        delay = base + jitter
        if retry_after is not None:
            delay = max(delay, retry_after)
        return min(delay, self.max_delay_s)


def _peer_closed(sock: socket.socket) -> bool:
    """True when an idle connection's peer has closed or reset it.

    Between requests nothing is owed to the client, so a non-blocking
    peek that reads no bytes means EOF; one that would block means the
    connection is still open.
    """
    timeout = sock.gettimeout()
    sock.setblocking(False)
    try:
        return sock.recv(1, socket.MSG_PEEK) == b""
    except (BlockingIOError, ValueError):  # open; TLS takes no flags
        return False
    except OSError:  # reset by the peer
        return True
    finally:
        sock.settimeout(timeout)


class ServiceClient:
    """Blocking JSON client bound to one service base URL.

    Args:
        base_url: e.g. ``http://127.0.0.1:8080``.
        timeout: per-request socket timeout in seconds.
        client_id: sent as ``X-Client-Id`` on every request so the
            service's per-client token buckets can account this caller;
            ``None`` shares the anonymous default bucket.  Also the
            jitter seed for retries.
        trace_id: sent as ``X-Trace-Id`` to force tracing server-side.
        retry: a :class:`RetryPolicy`, or ``None`` (default) to raise
            on the first failure — the pre-retry behaviour.
        deadline_ms: default end-to-end budget sent as ``X-Deadline-Ms``
            on serving requests (overridable per call); the server
            answers ``504`` when it runs out.
        sleep: injectable sleep for tests; defaults to ``time.sleep``.

    Thread safety: one instance may be shared across any number of
    threads; each thread talks over its own keep-alive connection.
    :meth:`close` closes them all.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        client_id: str | None = None,
        trace_id: str | None = None,
        retry: RetryPolicy | None = None,
        deadline_ms: float | None = None,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.client_id = client_id
        # Sent as X-Trace-Id on every request: forces tracing server-side
        # and correlates this client's requests in logs and /debug/traces.
        self.trace_id = trace_id
        self.retry = retry
        self.deadline_ms = deadline_ms
        self._sleep = sleep
        scheme, _, rest = self.base_url.partition("://")
        if scheme not in ("http", "https"):
            raise ValueError(f"base_url must be http:// or https://: {base_url!r}")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._connection_class = (
            http.client.HTTPSConnection
            if scheme == "https"
            else http.client.HTTPConnection
        )
        self._local = threading.local()
        # Every thread's connection, so close() can reach them all; weak,
        # so a finished thread's connection is freed with its thread.
        self._connections: weakref.WeakSet = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close the keep-alive connection of every thread.

        Call it when no request is in flight.  The client stays usable:
        a later request opens a fresh connection.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's keep-alive connection, created on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(
                self._netloc, timeout=self.timeout
            )
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        elif connection.sock is not None and _peer_closed(connection.sock):
            # The server ended this idle connection; request() reconnects.
            connection.close()
        return connection

    # ----------------------------------------------------------- plumbing
    def _request(
        self,
        path: str,
        payload: dict | None = None,
        raw: bool = False,
        deadline_ms: float | None = None,
        method: str | None = None,
    ):
        attempt = 0
        while True:
            try:
                return self._request_once(
                    path, payload, raw, deadline_ms, method
                )
            except ServiceError as exc:
                policy = self.retry
                if (
                    policy is None
                    or attempt >= policy.retries
                    or not policy.should_retry(exc)
                ):
                    raise
                self._sleep(
                    policy.delay(
                        attempt,
                        client_id=self.client_id,
                        retry_after=exc.retry_after,
                    )
                )
                attempt += 1

    def _request_once(
        self,
        path: str,
        payload: dict | None,
        raw: bool,
        deadline_ms: float | None,
        method: str | None = None,
    ):
        data = None
        headers = {"Accept": "application/json"}
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        if self.trace_id:
            headers["X-Trace-Id"] = self.trace_id
        budget = deadline_ms if deadline_ms is not None else self.deadline_ms
        if budget is not None:
            headers["X-Deadline-Ms"] = f"{budget:g}"
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        method = method or ("POST" if data is not None else "GET")
        connection = self._connection()
        trace_id = None
        try:
            # A closed connection (first use, or dropped after an error
            # or a server "Connection: close") reconnects here.
            connection.request(
                method, self._prefix + path, body=data, headers=headers
            )
            with connection.getresponse() as resp:
                trace_id = resp.getheader("X-Trace-Id")
                body = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            # Connection refused, socket timeout, reset, or a truncated
            # read — before the status line or mid-body.  The stream is
            # out of step, so drop the connection; no HTTP status exists.
            connection.close()
            raise ServiceError(
                0,
                {"error": f"transport error: {exc or type(exc).__name__}"},
                trace_id=trace_id,
            ) from None
        if not 200 <= resp.status < 300:
            try:
                error_body = json.loads(body)
            except (json.JSONDecodeError, UnicodeDecodeError):
                error_body = {"error": resp.reason}
            retry_after = None
            header = resp.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            raise ServiceError(
                resp.status, error_body, retry_after, trace_id=trace_id
            )
        try:
            return body.decode("utf-8") if raw else json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # A 2xx whose body is not the JSON it claims to be —
            # truncated by a dying server or corrupted in transit.
            connection.close()
            raise ServiceError(
                0,
                {"error": f"malformed response body: {exc}"},
                trace_id=trace_id,
            ) from None

    # ---------------------------------------------------------- endpoints
    def healthz(self) -> dict:
        return self._request("/healthz")

    def stats(self) -> dict:
        return self._request("/stats")

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        return self._request("/metrics", raw=True)

    def debug_traces(self) -> dict:
        """The slow-trace exemplar ring from ``GET /debug/traces``."""
        return self._request("/debug/traces")

    def distill(
        self,
        question: str,
        answer: str,
        context: str,
        deadline_ms: float | None = None,
    ) -> dict:
        """One distillation; raises :class:`ServiceError` on 4xx/5xx."""
        return self._request(
            "/distill",
            {"question": question, "answer": answer, "context": context},
            deadline_ms=deadline_ms,
        )

    def distill_batch(
        self, items: list[dict], deadline_ms: float | None = None
    ) -> dict:
        """Batch distillation with per-item error isolation (one 429 sheds
        the whole batch — admission is all-or-nothing)."""
        return self._request(
            "/batch", {"items": items}, deadline_ms=deadline_ms
        )

    def ask(
        self,
        question: str | None = None,
        answer: str | None = None,
        k: int | None = None,
        page_size: int | None = None,
        cursor: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """Open-context ask: no context — the service retrieves its own.

        Fat mode (default) returns every ranked candidate in one
        response.  Pass ``page_size`` for the first page of a paged
        response, then ``cursor=`` (from ``next_cursor``) for the rest;
        :meth:`ask_pages` wraps that loop.
        """
        payload: dict = {}
        if question is not None:
            payload["question"] = question
        if answer is not None:
            payload["answer"] = answer
        if k is not None:
            payload["k"] = k
        if page_size is not None:
            payload["page_size"] = page_size
        if cursor is not None:
            payload["cursor"] = cursor
        return self._request("/ask", payload, deadline_ms=deadline_ms)

    def ingest(self, texts: list[str]) -> dict:
        """Durably append paragraphs to the live corpus.

        Returns ``{"doc_ids": [...], "live_docs": n, "generation": g}``;
        the writes are WAL-fsynced server-side before this returns.
        Raises :class:`ServiceError` with ``status == 503`` when the
        service runs without an ingest directory.
        """
        return self._request("/ingest", {"texts": texts})

    def delete_doc(self, doc_id: int) -> dict:
        """Tombstone one document by id (``status == 404`` if not live)."""
        return self._request(f"/docs/{int(doc_id)}", method="DELETE")

    def ask_pages(
        self,
        question: str,
        answer: str,
        k: int | None = None,
        page_size: int = 3,
    ) -> Iterator[dict]:
        """Iterate every page of a paged ask, following ``next_cursor``.

        Concatenating the ``candidates`` of all yielded pages reproduces
        the fat response's candidate list exactly (stateless cursors over
        a deterministic ranking).
        """
        page = self.ask(question, answer, k, page_size=page_size)
        yield page
        while page.get("next_cursor"):
            page = self.ask(cursor=page["next_cursor"])
            yield page
