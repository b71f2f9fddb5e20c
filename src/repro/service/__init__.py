"""Serving layer: warm-resource request/response API over the engine.

The one-shot CLI rebuilds corpora, lexicons, and parser resources on
every invocation; this package keeps them alive in a long-lived process:

* :class:`~repro.service.service.DistillService` — builds the pipeline
  resources once and serves distillations from them;
* :class:`~repro.service.scheduler.MicroBatchScheduler` — coalesces
  concurrent requests into engine micro-batches (work-conserving flush
  of up to max-batch-size, optional max-wait-ms linger, FIFO,
  per-request error isolation), answers finished triples from the
  result memo at submit, attaches identical in-flight requests to one
  computation, and bounds admission at ``max_queue_depth``;
* :mod:`~repro.service.admission` — per-client token buckets and the
  :class:`~repro.service.admission.ShedError` family the HTTP layer maps
  to ``429 + Retry-After``;
* :mod:`~repro.service.paging` — stateless cursors for paged ``/ask``;
* :mod:`~repro.service.server` — stdlib JSON-over-HTTP front end
  (``/distill``, ``/batch``, ``/ask``, ``/healthz``, ``/stats``,
  ``/metrics``, ``/debug/traces``);
* :class:`~repro.service.telemetry.ServiceTelemetry` — the
  :mod:`repro.obs` wiring: metrics registry behind ``/metrics``, trace
  sampling policy, and the slow-trace exemplar ring;
* :class:`~repro.service.client.ServiceClient` — matching stdlib client.

Operational reference: ``docs/operations.md`` and
``docs/observability.md``.
"""

from repro.service.admission import (
    AdmissionController,
    DeadlineExceededError,
    QueueFullError,
    RateLimitedError,
    ShedError,
    TokenBucket,
)
from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.paging import decode_cursor, encode_cursor, paginate_ask
from repro.service.scheduler import (
    DistillRequest,
    MicroBatchScheduler,
    SchedulerClosedError,
    SchedulerStats,
)
from repro.service.server import (
    DistillHTTPServer,
    make_server,
    start_server,
)
from repro.service.service import DistillService, ServiceConfig
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "AdmissionController",
    "DeadlineExceededError",
    "DistillHTTPServer",
    "DistillRequest",
    "DistillService",
    "MicroBatchScheduler",
    "QueueFullError",
    "RateLimitedError",
    "RetryPolicy",
    "SchedulerClosedError",
    "SchedulerStats",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceTelemetry",
    "ShedError",
    "TokenBucket",
    "decode_cursor",
    "encode_cursor",
    "make_server",
    "paginate_ask",
    "start_server",
]
