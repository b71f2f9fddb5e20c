"""Service-side wiring of the :mod:`repro.obs` telemetry plane.

One :class:`ServiceTelemetry` per :class:`~repro.service.service.DistillService`
owns:

* the :class:`~repro.obs.metrics.MetricsRegistry` behind ``GET /metrics``
  — direct instruments for what the HTTP layer observes itself (request
  counts, latencies, shed reasons) plus a scrape-time callback that
  samples the very same scheduler/admission/engine counters ``/stats``
  reports, so the two surfaces can never disagree;
* trace sampling policy (:meth:`maybe_trace`) — counter-based every-Nth
  sampling, never random, so enabling tracing cannot perturb seeded RNG
  state; a request carrying an explicit ``X-Trace-Id`` is always traced;
* the :class:`~repro.obs.exemplars.SlowTraceRing` behind
  ``GET /debug/traces``.
"""

from __future__ import annotations

import itertools
import threading

from repro.faults import installed as faults_installed
from repro.obs.exemplars import SlowTraceRing
from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    Sample,
    counter_family,
    gauge_family,
)
from repro.obs.trace import TraceHandle, start_trace

__all__ = ["ServiceTelemetry"]

# Metric name prefix. Everything this module exports starts with it so a
# shared Prometheus can scope dashboards with one matcher.
_PREFIX = "gced"


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
        self.service = service
        self.trace_sample = trace_sample
        self.slow_ring = SlowTraceRing(
            capacity=slow_trace_capacity, threshold_ms=slow_trace_ms
        )
        self._sample_seq = itertools.count(1)
        self._sampled = 0
        self._lock = threading.Lock()

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
        registry.register_callback(self._collect)
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
        with self._lock:
            self._sampled += 1
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
        with self._lock:
            sampled = self._sampled
        ring = self.slow_ring.snapshot()
        return {
            "trace_sample": self.trace_sample,
            "traces_started": sampled,
            "slow_traces": {
                "threshold_ms": ring["threshold_ms"],
                "capacity": ring["capacity"],
                "seen": ring["seen"],
                "kept": ring["kept"],
            },
        }

    # ---------------------------------------------------- scrape callback
    def _collect(self) -> list[MetricFamily]:
        """Scrape-time families sampled from the live ``/stats`` counters.

        These read the same objects ``DistillService.stats()`` serializes
        (scheduler counters, admission counters, the merged pipeline
        profile), so ``/metrics`` and ``/stats`` agree by construction.
        """
        service = self.service
        scheduler = service.scheduler.stats()
        admission = service.admission.stats()
        batch = service.distiller.stats()
        profile = batch.profile

        families = [
            gauge_family(
                f"{_PREFIX}_uptime_seconds",
                "Seconds since the service started",
                service.uptime_seconds,
            ),
            gauge_family(
                f"{_PREFIX}_scheduler_queue_depth",
                "Requests currently queued for micro-batching",
                scheduler.queue_depth,
            ),
            gauge_family(
                f"{_PREFIX}_scheduler_inflight",
                "Distinct triples currently executing or queued",
                scheduler.inflight,
            ),
            gauge_family(
                f"{_PREFIX}_scheduler_ewma_batch_seconds",
                "EWMA of successful batch flush latency (Retry-After basis)",
                scheduler.ewma_batch_ms / 1000.0,
            ),
            counter_family(
                f"{_PREFIX}_scheduler_submitted_total",
                "Requests submitted to the scheduler (coalesced included)",
                scheduler.submitted,
            ),
            counter_family(
                f"{_PREFIX}_scheduler_completed_total",
                "Request futures resolved successfully",
                scheduler.completed,
            ),
            counter_family(
                f"{_PREFIX}_scheduler_failed_total",
                "Request futures resolved with an error",
                scheduler.failed,
            ),
            counter_family(
                f"{_PREFIX}_scheduler_coalesced_total",
                "Submits that attached to identical in-flight work",
                scheduler.coalesced,
            ),
            counter_family(
                f"{_PREFIX}_scheduler_shed_total",
                "Submits refused because the admission queue was full",
                scheduler.shed,
            ),
            counter_family(
                f"{_PREFIX}_scheduler_batches_total",
                "Micro-batches flushed, by flush trigger",
                samples=[
                    Sample(scheduler.size_flushes, (("reason", "size"),)),
                    Sample(scheduler.timeout_flushes, (("reason", "timeout"),)),
                ],
            ),
            counter_family(
                f"{_PREFIX}_admission_admitted_total",
                "Requests past the per-client token buckets",
                admission["admitted"],
            ),
            counter_family(
                f"{_PREFIX}_admission_rate_limited_total",
                "Requests refused by per-client token buckets",
                admission["rate_limited"],
            ),
            gauge_family(
                f"{_PREFIX}_admission_clients",
                "Distinct client token buckets",
                admission["clients"],
            ),
            counter_family(
                f"{_PREFIX}_batch_distilled_total",
                "Triples distilled by the engine (memo misses)",
                batch.n_distilled,
            ),
            counter_family(
                f"{_PREFIX}_batch_memo_hits_total",
                "Triples served from the distiller's memo",
                batch.n_cache_hits,
            ),
        ]
        stage_calls = []
        stage_seconds = []
        for name, timing in sorted(profile.stages.items()):
            label = (("stage", name),)
            stage_calls.append(Sample(timing.calls, label))
            stage_seconds.append(Sample(timing.seconds, label))
        if stage_calls:
            families.append(
                counter_family(
                    f"{_PREFIX}_stage_calls_total",
                    "Pipeline stage executions, by stage",
                    samples=stage_calls,
                )
            )
            families.append(
                counter_family(
                    f"{_PREFIX}_stage_seconds_total",
                    "Pipeline stage wall-clock seconds, by stage",
                    samples=stage_seconds,
                )
            )
        cache_hits = []
        cache_misses = []
        for name, stats in sorted(profile.caches.items()):
            label = (("cache", name),)
            cache_hits.append(Sample(stats.hits, label))
            cache_misses.append(Sample(stats.misses, label))
        if cache_hits:
            families.append(
                counter_family(
                    f"{_PREFIX}_cache_hits_total",
                    "Shared-cache hits, by cache",
                    samples=cache_hits,
                )
            )
            families.append(
                counter_family(
                    f"{_PREFIX}_cache_misses_total",
                    "Shared-cache misses, by cache",
                    samples=cache_misses,
                )
            )
        # Fault-tolerance plane: breaker states (0 closed, 1 half-open,
        # 2 open), degraded-mode counters, crash-recovery counters, and
        # injected faults when a REPRO_FAULTS plan is active.
        breaker_samples = [
            Sample(
                service.distiller.pool_breaker.stats()["state_code"],
                (("breaker", "process_pool"),),
            )
        ]
        if service.retriever is not None:
            breaker_samples.append(
                Sample(
                    service.retriever.breaker.stats()["state_code"],
                    (("breaker", "retrieval"),),
                )
            )
        families.append(
            gauge_family(
                f"{_PREFIX}_breaker_state",
                "Circuit breaker state (0 closed, 1 half-open, 2 open)",
                samples=breaker_samples,
            )
        )
        families.append(
            gauge_family(
                f"{_PREFIX}_degraded",
                "1 while any circuit breaker is open or half-open",
                1.0 if service.degraded else 0.0,
            )
        )
        recovery = service.distiller.recovery_info()
        executor_stats = recovery.get("executor") or {}
        families.append(
            counter_family(
                f"{_PREFIX}_pool_breaks_total",
                "Times the worker process pool broke and was respawned",
                executor_stats.get("pool_breaks", 0),
            )
        )
        families.append(
            counter_family(
                f"{_PREFIX}_chunk_retries_total",
                "Chunks retried successfully after a pool break",
                executor_stats.get("chunk_retries", 0),
            )
        )
        families.append(
            gauge_family(
                f"{_PREFIX}_recovery_seconds",
                "Duration of the most recent pool respawn-and-retry",
                executor_stats.get("last_recovery_ms", 0.0) / 1000.0,
            )
        )
        families.append(
            counter_family(
                f"{_PREFIX}_degraded_batches_total",
                "Batches executed serially in the coordinator (breaker open)",
                recovery.get("degraded_batches", 0),
            )
        )
        families.append(
            counter_family(
                f"{_PREFIX}_deadline_expired_total",
                "Requests failed because their X-Deadline-Ms budget ran out",
                scheduler.deadline_expired,
            )
        )
        plan = faults_installed()
        if plan is not None:
            fired_by_site: dict[str, int] = {}
            for spec_stats in plan.stats()["specs"]:
                site = spec_stats["site"]
                fired_by_site[site] = (
                    fired_by_site.get(site, 0) + spec_stats["fired"]
                )
            fault_samples = [
                Sample(count, (("site", site),))
                for site, count in sorted(fired_by_site.items())
            ]
            if fault_samples:
                families.append(
                    counter_family(
                        f"{_PREFIX}_faults_injected_total",
                        "Faults fired by the installed REPRO_FAULTS plan",
                        samples=fault_samples,
                    )
                )
        # Durable live-corpus plane: document/tombstone counts, WAL size,
        # compaction generation, and crash-recovery replay counters.
        ingest = getattr(service, "ingest", None)
        if ingest is not None:
            ingest_stats = ingest.stats()
            families.extend(
                [
                    counter_family(
                        f"{_PREFIX}_ingest_docs_total",
                        "Live-corpus operations applied, by operation",
                        samples=[
                            Sample(
                                ingest_stats["docs_added"], (("op", "add"),)
                            ),
                            Sample(
                                ingest_stats["docs_deleted"],
                                (("op", "delete"),),
                            ),
                        ],
                    ),
                    gauge_family(
                        f"{_PREFIX}_ingest_live_docs",
                        "Documents currently live (added minus tombstoned)",
                        ingest_stats["live_docs"],
                    ),
                    gauge_family(
                        f"{_PREFIX}_ingest_tombstones",
                        "Deleted doc ids awaiting compaction",
                        ingest_stats["tombstones"],
                    ),
                    gauge_family(
                        f"{_PREFIX}_ingest_wal_bytes",
                        "Bytes in the per-shard write-ahead logs",
                        ingest_stats["wal_bytes"],
                    ),
                    gauge_family(
                        f"{_PREFIX}_ingest_generation",
                        "Compaction generation of the active segment",
                        ingest_stats["generation"],
                    ),
                    counter_family(
                        f"{_PREFIX}_ingest_compactions_total",
                        "WAL-into-segment compactions completed",
                        ingest_stats["compactions"],
                    ),
                    counter_family(
                        f"{_PREFIX}_ingest_replayed_records_total",
                        "WAL records re-applied during crash recovery",
                        ingest_stats["replayed_records"],
                    ),
                    counter_family(
                        f"{_PREFIX}_ingest_torn_bytes_total",
                        "Torn-tail bytes truncated from WALs on recovery",
                        ingest_stats["torn_bytes"],
                    ),
                ]
            )
        snapshot = service.distiller.snapshot_info()
        if snapshot is not None:
            families.append(
                gauge_family(
                    f"{_PREFIX}_snapshot_bytes",
                    "Pipeline snapshot segment size",
                    snapshot["bytes"],
                )
            )
            hydration = snapshot["hydration"]
            families.append(
                counter_family(
                    f"{_PREFIX}_snapshot_hydration_total",
                    "Worker lazy-hydration lookups, by outcome",
                    samples=[
                        Sample(hydration["hits"], (("outcome", "hit"),)),
                        Sample(hydration["misses"], (("outcome", "miss"),)),
                    ],
                )
            )
        return families
