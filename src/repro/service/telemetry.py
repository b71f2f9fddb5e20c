"""Service-side wiring of the :mod:`repro.obs` telemetry plane.

One :class:`ServiceTelemetry` per :class:`~repro.service.service.DistillService`
owns:

* the :class:`~repro.obs.metrics.MetricsRegistry` behind ``GET /metrics``
  — direct instruments for what the HTTP layer observes itself (request
  counts, latencies, shed reasons) plus a scrape-time callback that takes
  one ``service.stats()`` snapshot and projects it through
  :data:`STATS_FAMILIES` (:func:`project_stats`), so every other family
  is a field of ``/stats`` and ``DistillService.stats()`` stays the only
  reader of live serving state;
* trace sampling policy (:meth:`maybe_trace`) — counter-based every-Nth
  sampling, never random, so enabling tracing cannot perturb seeded RNG
  state; a request carrying an explicit ``X-Trace-Id`` is always traced;
* the :class:`~repro.obs.exemplars.SlowTraceRing` behind
  ``GET /debug/traces``.
"""

from __future__ import annotations

import itertools

from repro.obs.exemplars import SlowTraceRing
from repro.obs.metrics import MetricFamily, MetricsRegistry, Sample
from repro.obs.trace import TraceHandle, start_trace

__all__ = ["STATS_FAMILIES", "ServiceTelemetry", "project_stats"]

# Metric name prefix. Everything this module exports starts with it so a
# shared Prometheus can scope dashboards with one matcher.
_PREFIX = "gced"

# Every scrape-time family, as ``(name, type, help, source)`` over one
# ``DistillService.stats()`` snapshot.  ``source`` is one of:
#
# * ``"a.b"`` — the value at that dotted ``/stats`` path;
# * ``("a.b", divisor)`` — that value divided by ``divisor`` (ms → s);
# * ``{label: {value: "a.b"}}`` — one sample per label value;
# * ``("a.b", label, field)`` — one sample per label value over a mapping
#   (keyed by the label value) or a list of records (``record[label]``),
#   summing ``field``, sorted by label value.
#
# A path that runs through ``None`` (no retriever, no ingest plane, no
# snapshot, no fault plan) drops its sample; a family left without
# samples is not exported.  docs/observability.md lists each row.
STATS_FAMILIES = (
    (
        "uptime_seconds",
        "gauge",
        "Seconds since the service started",
        "service.uptime_seconds",
    ),
    (
        "scheduler_queue_depth",
        "gauge",
        "Requests currently queued for micro-batching",
        "scheduler.queue_depth",
    ),
    (
        "scheduler_inflight",
        "gauge",
        "Distinct triples currently executing or queued",
        "scheduler.inflight",
    ),
    (
        "scheduler_ewma_batch_seconds",
        "gauge",
        "EWMA of successful batch flush latency (Retry-After basis)",
        ("scheduler.ewma_batch_ms", 1000.0),
    ),
    (
        "scheduler_submitted_total",
        "counter",
        "Requests submitted to the scheduler (coalesced included)",
        "scheduler.submitted",
    ),
    (
        "scheduler_completed_total",
        "counter",
        "Request futures resolved successfully",
        "scheduler.completed",
    ),
    (
        "scheduler_failed_total",
        "counter",
        "Request futures resolved with an error",
        "scheduler.failed",
    ),
    (
        "scheduler_coalesced_total",
        "counter",
        "Submits that attached to identical in-flight work",
        "scheduler.coalesced",
    ),
    (
        "scheduler_shed_total",
        "counter",
        "Submits refused because the admission queue was full",
        "scheduler.shed",
    ),
    (
        "scheduler_batches_total",
        "counter",
        "Micro-batches flushed, by flush trigger",
        {
            "reason": {
                "size": "scheduler.size_flushes",
                "timeout": "scheduler.timeout_flushes",
                "idle": "scheduler.idle_flushes",
            }
        },
    ),
    (
        "deadline_expired_total",
        "counter",
        "Requests failed because their X-Deadline-Ms budget ran out",
        "scheduler.deadline_expired",
    ),
    (
        "admission_admitted_total",
        "counter",
        "Requests past the per-client token buckets",
        "admission.admitted",
    ),
    (
        "admission_rate_limited_total",
        "counter",
        "Requests refused by per-client token buckets",
        "admission.rate_limited",
    ),
    (
        "admission_clients",
        "gauge",
        "Distinct client token buckets",
        "admission.clients",
    ),
    (
        "batch_distilled_total",
        "counter",
        "Triples distilled by the engine (memo misses)",
        "batch.n_distilled",
    ),
    (
        "batch_memo_hits_total",
        "counter",
        "Triples served from the distiller's memo",
        "batch.n_cache_hits",
    ),
    (
        "stage_calls_total",
        "counter",
        "Pipeline stage executions, by stage",
        ("stages", "stage", "calls"),
    ),
    (
        "stage_seconds_total",
        "counter",
        "Pipeline stage wall-clock seconds, by stage",
        ("stages", "stage", "seconds"),
    ),
    (
        "cache_hits_total",
        "counter",
        "Shared-cache hits, by cache",
        ("caches", "cache", "hits"),
    ),
    (
        "cache_misses_total",
        "counter",
        "Shared-cache misses, by cache",
        ("caches", "cache", "misses"),
    ),
    # Fault-tolerance plane.
    (
        "breaker_state",
        "gauge",
        "Circuit breaker state (0 closed, 1 half-open, 2 open)",
        {
            "breaker": {
                "process_pool": "faults.pool.breaker.state_code",
                "retrieval": "faults.retrieval.breaker.state_code",
            }
        },
    ),
    (
        "degraded",
        "gauge",
        "1 while any circuit breaker is open or half-open",
        "faults.degraded",
    ),
    (
        "pool_breaks_total",
        "counter",
        "Times the worker process pool broke and was respawned",
        "faults.pool.executor.pool_breaks",
    ),
    (
        "chunk_retries_total",
        "counter",
        "Chunks retried successfully after a pool break",
        "faults.pool.executor.chunk_retries",
    ),
    (
        "recovery_seconds",
        "gauge",
        "Duration of the most recent pool respawn-and-retry",
        ("faults.pool.executor.last_recovery_ms", 1000.0),
    ),
    (
        "degraded_batches_total",
        "counter",
        "Batches executed serially in the coordinator (breaker open)",
        "faults.pool.degraded_batches",
    ),
    (
        "faults_injected_total",
        "counter",
        "Faults fired by the installed REPRO_FAULTS plan",
        ("faults.plan.specs", "site", "fired"),
    ),
    # Durable live-corpus plane.
    (
        "ingest_docs_total",
        "counter",
        "Live-corpus operations applied, by operation",
        {"op": {"add": "ingest.docs_added", "delete": "ingest.docs_deleted"}},
    ),
    (
        "ingest_live_docs",
        "gauge",
        "Documents currently live (added minus tombstoned)",
        "ingest.live_docs",
    ),
    (
        "ingest_tombstones",
        "gauge",
        "Deleted doc ids awaiting compaction",
        "ingest.tombstones",
    ),
    ("ingest_wal_bytes", "gauge", "Bytes in the write-ahead log", "ingest.wal_bytes"),
    (
        "ingest_generation",
        "gauge",
        "Compaction generation of the active segment",
        "ingest.generation",
    ),
    (
        "ingest_compactions_total",
        "counter",
        "WAL-into-segment compactions completed",
        "ingest.compactions",
    ),
    (
        "ingest_replayed_records_total",
        "counter",
        "WAL records re-applied during crash recovery",
        "ingest.replayed_records",
    ),
    (
        "ingest_torn_bytes_total",
        "counter",
        "Torn-tail bytes truncated from WALs on recovery",
        "ingest.torn_bytes",
    ),
)


def _lookup(stats: dict, path: str):
    """The value at a dotted ``/stats`` path; None if the path hits None."""
    value = stats
    for key in path.split("."):
        if value is None:
            return None
        value = value[key]
    return value


def _samples(stats: dict, source, labels: tuple = ()) -> list[Sample]:
    """The samples one :data:`STATS_FAMILIES` source yields."""
    if isinstance(source, str):
        value = _lookup(stats, source)
        return [] if value is None else [Sample(value, labels)]
    if isinstance(source, dict):
        ((label, paths),) = source.items()
        return [
            sample
            for label_value, path in paths.items()
            for sample in _samples(stats, path, ((label, label_value),))
        ]
    if len(source) == 2:
        path, divisor = source
        value = _lookup(stats, path)
        return [] if value is None else [Sample(value / divisor)]
    path, label, field = source
    records = _lookup(stats, path)
    if records is None:
        return []
    if isinstance(records, dict):
        pairs = [(key, record[field]) for key, record in records.items()]
    else:
        pairs = [(record[label], record[field]) for record in records]
    totals: dict = {}
    for label_value, value in pairs:
        totals[label_value] = totals.get(label_value, 0) + value
    return [
        Sample(total, ((label, label_value),))
        for label_value, total in sorted(totals.items())
    ]


def project_stats(stats: dict) -> list[MetricFamily]:
    """The scrape-time ``/metrics`` families of one ``/stats`` snapshot."""
    families = []
    for name, type_, help_, source in STATS_FAMILIES:
        samples = _samples(stats, source)
        if samples:
            families.append(
                MetricFamily(f"{_PREFIX}_{name}", type_, help_, samples)
            )
    return families


class ServiceTelemetry:
    """Registry + sampling policy + slow-trace ring for one service."""

    def __init__(
        self,
        service,
        trace_sample: float = 1.0,
        slow_trace_ms: float = 250.0,
        slow_trace_capacity: int = 32,
    ) -> None:
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError("trace_sample must be within [0, 1]")
        self.trace_sample = trace_sample
        self.slow_ring = SlowTraceRing(
            capacity=slow_trace_capacity, threshold_ms=slow_trace_ms
        )
        self._sample_seq = itertools.count(1)

        registry = self.registry = MetricsRegistry()
        self.http_requests = registry.counter(
            f"{_PREFIX}_http_requests_total",
            "HTTP requests served, by route and status code",
            labelnames=("route", "status"),
        )
        self.http_route_latency = registry.histogram(
            f"{_PREFIX}_http_request_seconds",
            "Wall-clock HTTP request latency, by route",
            labelnames=("route",),
        )
        self.http_shed = registry.counter(
            f"{_PREFIX}_http_shed_total",
            "Requests refused with Retry-After (429 shed, 503 retrieval "
            "unavailable), by reason",
            labelnames=("reason",),
        )
        self.traces_started = registry.counter(
            f"{_PREFIX}_traces_started_total",
            "Requests that were traced (sampled or forced by X-Trace-Id)",
        )
        self.batch_duration = registry.histogram(
            f"{_PREFIX}_scheduler_batch_duration_seconds",
            "Micro-batch flush duration (successful and fallback batches)",
        )
        registry.register_callback(lambda: project_stats(service.stats()))
        # The scheduler feeds flush durations into the histogram above.
        service.scheduler.on_batch = self._on_batch

    # ------------------------------------------------------------- tracing
    def maybe_trace(
        self, name: str, trace_id: str | None = None, **tags
    ) -> TraceHandle | None:
        """Open a trace for this request, or None when not sampled.

        Sampling is deterministic every-Nth (period ``round(1/sample)``)
        rather than random: no RNG state is touched, and a fixed request
        sequence always traces the same requests.  An explicit
        ``trace_id`` (the ``X-Trace-Id`` header) always traces.
        """
        if trace_id is None:
            if self.trace_sample <= 0.0:
                return None
            if self.trace_sample < 1.0:
                period = max(1, round(1.0 / self.trace_sample))
                if next(self._sample_seq) % period != 0:
                    return None
        self.traces_started.inc()
        return start_trace(name, trace_id=trace_id, **tags)

    def finish_trace(self, handle: TraceHandle) -> None:
        """Offer a finished request trace to the slow-trace ring."""
        self.slow_ring.offer(handle.to_dict(), handle.duration_ms)

    # ------------------------------------------------------------- metrics
    def observe_request(
        self,
        route: str,
        status: int,
        seconds: float,
        shed_reason: str | None = None,
    ) -> None:
        """Record one finished HTTP request."""
        self.http_requests.labels(route=route, status=str(status)).inc()
        self.http_route_latency.labels(route=route).observe(seconds)
        if shed_reason is not None:
            self.http_shed.labels(reason=shed_reason).inc()

    def _on_batch(
        self, seconds: float, size: int, reason: str, ok: bool
    ) -> None:
        self.batch_duration.observe(seconds)

    def metrics_text(self) -> str:
        """The Prometheus exposition page for ``GET /metrics``."""
        return self.registry.render()

    def stats_block(self) -> dict:
        """The ``obs`` block of ``/stats``."""
        ring = self.slow_ring.snapshot()
        return {
            "trace_sample": self.trace_sample,
            "traces_started": int(self.traces_started.value),
            "slow_traces": {
                "threshold_ms": ring["threshold_ms"],
                "capacity": ring["capacity"],
                "seen": ring["seen"],
                "kept": ring["kept"],
            },
        }
