"""Stdlib JSON-over-HTTP front end for :class:`DistillService`.

No framework, no new runtime dependency: a
:class:`http.server.ThreadingHTTPServer` where each connection gets a
handler thread that parses JSON, submits to the service's micro-batching
scheduler, and blocks for its future.  Concurrent connections therefore
coalesce into engine batches automatically — the server threads are the
producers the scheduler was built for.

Endpoints:

* ``POST /distill`` — body ``{"question", "answer", "context"}``;
  responds with the serialized distillation (see
  :func:`repro.core.serialize.result_to_dict`).
* ``POST /batch`` — body ``{"items": [{...}, ...]}``; responds with
  ``{"results": [...], "errors": n}``, errors isolated per item.
* ``POST /ask`` — body ``{"question", "answer", "k"?}``; open-context:
  retrieves top-k paragraphs from the corpus index, distills each, and
  responds with candidates ranked by hybrid evidence score.  Add
  ``"page_size"`` for a paged response, and follow its ``next_cursor``
  with ``{"cursor": ...}`` bodies for the remaining pages.
* ``POST /ingest`` — body ``{"texts": [...]}``; durably appends
  paragraphs to the live corpus (WAL-fsynced before the 200) and
  responds with the assigned ``doc_ids``.  ``503`` when the service was
  started without an ingest directory.
* ``DELETE /docs/<doc_id>`` — tombstones one document (WAL-durable);
  ``404`` for an unknown or already-deleted id.
* ``GET /healthz`` — liveness probe.
* ``GET /stats`` — per-stage timings, queue/admission counters, cache
  hit rates (see ``docs/operations.md`` for the field reference).
* ``GET /metrics`` — the same counters as Prometheus text exposition
  (see ``docs/observability.md`` for the name reference).
* ``GET /debug/traces`` — the slow-trace exemplar ring, newest first.

Tracing: serving requests (``/distill``, ``/batch``, ``/ask``) may carry
an ``X-Trace-Id`` header to force a trace under that id; otherwise the
service's ``trace_sample`` policy decides.  Traced responses echo the
id in an ``X-Trace-Id`` response header, and traces slower than the
service's ``slow_trace_ms`` land in ``/debug/traces``.  Each finished
request also emits one structured JSON access-log line (trace-id
correlated, rate-limited) on the ``repro.server.access`` logger when
:func:`repro.obs.logs.configure_logging` has been called.

Error modes: invalid input answers ``400``; a known path hit with the
wrong HTTP method answers ``405`` with an ``Allow`` header; only unknown
paths answer ``404``; ``/ask`` without a retriever answers ``503``; a
request shed by admission control (empty client token bucket or full
scheduler queue) answers ``429`` with a ``Retry-After`` header (whole
seconds, rounded up) and ``retry_after_seconds`` (exact float) in the
body.  An ``/ask`` whose retrieval is unavailable (breaker open, or the
search failed) answers ``503`` with the same header and body field,
the hint being the breaker's remaining cooldown.  Clients identify
themselves with an ``X-Client-Id`` header; anonymous requests share one
default token bucket.

Deadlines: serving requests may carry ``X-Deadline-Ms``, an end-to-end
budget in milliseconds.  A request whose budget runs out — before it
queues, while queued (failing fast without consuming engine work), or
mid-execution — answers ``504 Gateway Timeout`` with a parseable JSON
body.  A malformed header answers ``400``.

Degradation: while a circuit breaker is open (process pool or
retrieval), successful responses carry ``degraded: true`` and
``/healthz`` reports ``"degraded"``; a dead scheduler reports
``"failing"`` with status ``503`` so probes restart the process.
Error responses echo ``X-Trace-Id`` exactly like successes, so a failed
request can be correlated with its trace and logs.

Thread safety: ``ThreadingHTTPServer`` gives every connection its own
handler thread; handlers only touch the service's thread-safe surface.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.faults import fault_point
from repro.obs.logs import get_logger
from repro.retrieval.retriever import RetrievalUnavailableError
from repro.service.admission import (
    DeadlineExceededError,
    QueueFullError,
    RateLimitedError,
    ShedError,
)
from repro.service.service import DistillService

__all__ = ["DistillHTTPServer", "make_server", "start_server"]

MAX_BODY_BYTES = 8 * 1024 * 1024

# Known paths and the methods they answer; anything else is a 404, a
# known path with the wrong method is a 405 carrying an Allow header.
ROUTES: dict[str, tuple[str, ...]] = {
    "/distill": ("POST",),
    "/batch": ("POST",),
    "/ask": ("POST",),
    "/ingest": ("POST",),
    "/docs": ("DELETE",),
    "/healthz": ("GET",),
    "/stats": ("GET",),
    "/metrics": ("GET",),
    "/debug/traces": ("GET",),
}

# Serving routes get request traces; observability/health probes do not
# (tracing a metrics scrape would pollute the slow-trace ring).
_TRACED_ROUTES = frozenset(("/distill", "/batch", "/ask", "/ingest", "/docs"))

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_access_log = get_logger("server.access")
_log = get_logger("server")


class DistillHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: DistillService,
        quiet: bool = False,
    ) -> None:
        super().__init__(address, _DistillHandler)
        self.service = service
        self.quiet = quiet


class _DistillHandler(BaseHTTPRequestHandler):
    server: DistillHTTPServer

    # Keep-alive lets benchmark clients reuse connections; every response
    # sets Content-Length so this is safe.
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> DistillService:
        return self.server.service

    # ------------------------------------------------------------ routing
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    @staticmethod
    def _route_key(path: str) -> str:
        """Collapse parameterized paths to their route for labelling.

        ``/docs/17`` traces and counts as ``/docs`` — metric labels must
        stay low-cardinality no matter how many documents exist.
        """
        if path == "/docs" or path.startswith("/docs/"):
            return "/docs"
        return path

    def _dispatch(self, method: str) -> None:
        """Route one request under telemetry: trace, metrics, access log.

        Serving routes (see ``_TRACED_ROUTES``) open a request trace when
        the service's sampling policy says so — always when the client
        sent ``X-Trace-Id``.  Every request, traced or not, lands in the
        metrics registry and (rate-limited) in the access log.
        """
        started = time.perf_counter()
        path = urlsplit(self.path).path
        route_key = self._route_key(path)
        self._status = 0
        self._shed_reason: str | None = None
        self._trace_id: str | None = None
        telemetry = getattr(self.service, "telemetry", None)
        handle = None
        if telemetry is not None and route_key in _TRACED_ROUTES:
            handle = telemetry.maybe_trace(
                "http.request",
                trace_id=self.headers.get("X-Trace-Id") or None,
                route=route_key,
                method=method,
            )
        if handle is not None:
            self._trace_id = handle.trace_id
            with handle:
                self._route(method, path)
        else:
            self._route(method, path)
        elapsed = time.perf_counter() - started
        if telemetry is not None:
            telemetry.observe_request(
                route=route_key if route_key in ROUTES else "unknown",
                status=self._status,
                seconds=elapsed,
                shed_reason=self._shed_reason,
            )
            if handle is not None:
                handle.tag(status=self._status)
                telemetry.finish_trace(handle)
        log_fields = {
            "method": method,
            "path": path,
            "status": self._status,
            "ms": round(elapsed * 1000.0, 3),
        }
        if self._shed_reason is not None:
            log_fields["shed"] = self._shed_reason
        if self.client_id is not None:
            log_fields["client"] = self.client_id
        if self._trace_id is not None:
            log_fields["trace_id"] = self._trace_id
        _access_log.info("access", fields=log_fields)

    def _route(self, method: str, path: str) -> None:
        try:
            # The HTTP-edge fault-injection site: chaos tests target
            # "http.request" to fail/delay/kill requests at the front
            # door before any service code runs.
            fault_point("http.request", detail=f"{method} {path}")
        except Exception as exc:
            self._send_server_error(exc, where=f"{method} {path}")
            return
        if method == "GET":
            self._route_get(path)
        elif method == "DELETE":
            self._route_delete(path)
        else:
            self._route_post(path)

    def _route_get(self, path: str) -> None:
        if path == "/healthz":
            health = self.service.healthz()
            # "failing" means the flusher thread is gone: answer 503 so
            # liveness probes restart the process.  "degraded" is still
            # 200 — the service is serving, just from a reduced path.
            status = 503 if health.get("status") == "failing" else 200
            self._send_json(status, health)
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        elif path == "/metrics":
            self._send_text(
                200,
                self.service.telemetry.metrics_text(),
                content_type=_PROMETHEUS_CONTENT_TYPE,
            )
        elif path == "/debug/traces":
            self._send_json(200, self.service.telemetry.slow_ring.snapshot())
        elif self._route_key(path) in ROUTES:
            self._send_method_not_allowed(self._route_key(path))
        else:
            self._send_json(404, {"error": f"unknown path {path!r}"})

    def _route_delete(self, path: str) -> None:
        if self._route_key(path) != "/docs":
            if path in ROUTES:
                self._send_method_not_allowed(path)
            else:
                self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        raw_id = path[len("/docs/"):] if path.startswith("/docs/") else ""
        try:
            doc_id = int(raw_id)
        except ValueError:
            self._send_json(
                400, {"error": "DELETE /docs/<doc_id> needs an integer id"}
            )
            return
        self._deadline_ms = None
        self._invoke(
            lambda: self._handle_delete_doc(doc_id), where=f"DELETE {path}"
        )

    def _route_post(self, path: str) -> None:
        handler = {
            "/distill": self._handle_distill,
            "/batch": self._handle_batch,
            "/ask": self._handle_ask,
            "/ingest": self._handle_ingest,
        }.get(path)
        if handler is None:
            # Routing is decided before the body is read, so the
            # keep-alive stream would desync — drop the connection.
            self.close_connection = True
            if self._route_key(path) in ROUTES:
                self._send_method_not_allowed(self._route_key(path))
            else:
                self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        payload = self._read_json()
        if payload is None:
            return
        try:
            self._deadline_ms = self._parse_deadline_ms()
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._invoke(lambda: handler(payload), where=f"POST {path}")

    def _invoke(self, call, where: str) -> None:
        """Run a route handler under the shared error → status mapping."""
        try:
            call()
        except ShedError as exc:
            # Refused for now: tell the client when to come back.  An
            # unavailable retriever is 503, admission shedding is 429.
            # Retry-After is whole seconds per RFC 9110; the body keeps
            # the float.
            unavailable = isinstance(exc, RetrievalUnavailableError)
            self._shed_reason = (
                "retrieval_unavailable"
                if unavailable
                else "rate_limited"
                if isinstance(exc, RateLimitedError)
                else "queue_full"
                if isinstance(exc, QueueFullError)
                else "shed"
            )
            self._send_json(
                503 if unavailable else 429,
                {
                    "error": str(exc),
                    "retry_after_seconds": exc.retry_after,
                },
                extra_headers={
                    "Retry-After": str(max(1, math.ceil(exc.retry_after)))
                },
            )
        except DeadlineExceededError as exc:
            # The client's X-Deadline-Ms budget ran out: 504, with a
            # parseable body saying where the budget went.
            body: dict = {"error": str(exc)}
            if exc.deadline_ms is not None:
                body["deadline_ms"] = exc.deadline_ms
            if exc.waited_ms is not None:
                body["waited_ms"] = exc.waited_ms
            self._send_json(504, body)
        except ValueError as exc:
            # Invalid inputs (e.g. empty context) are the client's fault.
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._send_server_error(exc, where=where)

    def _send_server_error(self, exc: Exception, where: str) -> None:
        """Answer 500 with a structured, stack-carrying error log."""
        _log.error(
            "unhandled error serving request",
            exc_info=True,
            fields={
                "where": where,
                "trace_id": getattr(self, "_trace_id", None),
            },
        )
        self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _parse_deadline_ms(self) -> float | None:
        """The ``X-Deadline-Ms`` budget, or None; ValueError if garbage."""
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None or not raw.strip():
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"X-Deadline-Ms must be a number, got {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError("X-Deadline-Ms must be finite")
        return value

    def _send_method_not_allowed(self, path: str) -> None:
        allowed = ", ".join(ROUTES[path])
        self._send_json(
            405,
            {"error": f"method not allowed for {path!r}"},
            extra_headers={"Allow": allowed},
        )

    # ----------------------------------------------------------- handlers
    @property
    def client_id(self) -> str | None:
        """The caller's self-declared identity for token-bucket accounting."""
        return self.headers.get("X-Client-Id") or None

    def _handle_distill(self, payload: dict) -> None:
        """``POST /distill``: 200 result; 400 invalid; 429 shed."""
        missing = [
            key
            for key in ("question", "answer", "context")
            if not isinstance(payload.get(key), str)
        ]
        if missing:
            self._send_json(
                400,
                {"error": f"missing string field(s): {', '.join(missing)}"},
            )
            return
        self._send_json(
            200,
            self.service.distill_dict(
                payload["question"],
                payload["answer"],
                payload["context"],
                client_id=self.client_id,
                deadline_ms=self._deadline_ms,
            ),
        )

    def _handle_batch(self, payload: dict) -> None:
        """``POST /batch``: per-item error isolation; shed whole (429)."""
        items = payload.get("items")
        if not isinstance(items, list) or not all(
            isinstance(item, dict) for item in items
        ):
            self._send_json(400, {"error": "'items' must be a list of objects"})
            return
        self._send_json(
            200,
            self.service.distill_batch_dicts(
                items,
                client_id=self.client_id,
                deadline_ms=self._deadline_ms,
            ),
        )

    def _handle_ask(self, payload: dict) -> None:
        """``POST /ask``: fat by default; paged with page_size/cursor.

        503 when the service has no retriever, or (with ``Retry-After``)
        while retrieval is unavailable; 400 on malformed cursors or
        fields; 429 when shed.
        """
        cursor = payload.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            self._send_json(400, {"error": "'cursor' must be a string"})
            return
        missing = [
            key
            for key in ("question", "answer")
            if not isinstance(payload.get(key), str)
        ]
        if missing and cursor is None:
            self._send_json(
                400,
                {"error": f"missing string field(s): {', '.join(missing)}"},
            )
            return
        invalid = [
            key
            for key in ("k", "page_size")
            if payload.get(key) is not None
            and (
                isinstance(payload[key], bool)
                or not isinstance(payload[key], int)
                or payload[key] < 1
            )
        ]
        if invalid:
            self._send_json(
                400,
                {
                    "error": ", ".join(
                        f"'{key}' must be a positive integer" for key in invalid
                    )
                },
            )
            return
        try:
            if cursor is not None or payload.get("page_size") is not None:
                response = self.service.ask_page_dict(
                    payload.get("question"),
                    payload.get("answer"),
                    payload.get("k"),
                    page_size=payload.get("page_size"),
                    cursor=cursor,
                    client_id=self.client_id,
                    deadline_ms=self._deadline_ms,
                )
            else:
                response = self.service.ask_dict(
                    payload["question"],
                    payload["answer"],
                    payload.get("k"),
                    client_id=self.client_id,
                    deadline_ms=self._deadline_ms,
                )
        except ShedError:
            # A RuntimeError subclass with a retry hint — let the central
            # shed handler in _invoke answer it (with Retry-After).
            raise
        except RuntimeError as exc:
            # No retriever attached: the endpoint is unavailable, not broken.
            self._send_json(503, {"error": str(exc)})
            return
        self._send_json(200, response)

    def _handle_ingest(self, payload: dict) -> None:
        """``POST /ingest``: durable live-corpus appends.

        200 with the assigned doc ids once the WAL is fsynced; 400 on a
        malformed batch; 503 without an ingest plane; 429 when shed.
        """
        texts = payload.get("texts")
        if (
            not isinstance(texts, list)
            or not texts
            or not all(isinstance(text, str) for text in texts)
        ):
            self._send_json(
                400, {"error": "'texts' must be a non-empty list of strings"}
            )
            return
        try:
            response = self.service.ingest_dicts(
                texts, client_id=self.client_id
            )
        except ShedError:
            raise
        except RuntimeError as exc:
            # No ingest plane configured: unavailable, not broken.
            self._send_json(503, {"error": str(exc)})
            return
        self._send_json(200, response)

    def _handle_delete_doc(self, doc_id: int) -> None:
        """``DELETE /docs/<id>``: WAL-durable tombstone; 404 unknown id."""
        try:
            response = self.service.delete_doc_dict(
                doc_id, client_id=self.client_id
            )
        except ShedError:
            raise
        except KeyError:
            self._send_json(404, {"error": f"no live document {doc_id}"})
            return
        except RuntimeError as exc:
            self._send_json(503, {"error": str(exc)})
            return
        self._send_json(200, response)

    # ---------------------------------------------------------- plumbing
    def _read_json(self) -> dict | None:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            # The body is never read, so the keep-alive stream would be
            # desynchronized — drop the connection with the error.
            self.close_connection = True
            self._send_json(400, {"error": "missing or oversized body"})
            return None
        try:
            payload = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return payload

    def _send_json(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._send_bytes(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            extra_headers,
        )

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            # Echo the (received or assigned) trace id so clients can
            # fish the request out of /debug/traces or their own logs.
            self.send_header("X-Trace-Id", trace_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)


def make_server(
    service: DistillService,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = False,
) -> DistillHTTPServer:
    """Bind (but do not start) the HTTP server for ``service``."""
    return DistillHTTPServer((host, port), service, quiet=quiet)


def start_server(
    service: DistillService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> tuple[DistillHTTPServer, threading.Thread]:
    """Bind and serve on a background thread (port 0 = ephemeral).

    Used by tests, benchmarks, and ``repro serve --self-test``; call
    ``server.shutdown()`` then ``server.server_close()`` when done.
    """
    server = make_server(service, host, port, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever, name="gced-http", daemon=True
    )
    thread.start()
    return server, thread
