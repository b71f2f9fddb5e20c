"""Unified telemetry plane: tracing, metrics, structured logs, exemplars.

Dependency-free (stdlib only) observability primitives shared by every
layer of the system:

* :mod:`repro.obs.trace` — ``contextvars``-propagated request traces with
  hierarchical spans.  Opening a span costs one context-variable read
  when no trace is active, so instrumented hot paths stay near-free
  unless a request is actually being traced.
* :mod:`repro.obs.metrics` — mergeable counters, gauges, and
  fixed-bucket histograms behind a :class:`~repro.obs.metrics.MetricsRegistry`
  that renders Prometheus text exposition (``GET /metrics``), plus the
  :class:`~repro.obs.metrics.TimingAccumulator` primitive that the
  engine's ``StageTiming`` builds on.
* :mod:`repro.obs.logs` — structured JSON logging on stdlib ``logging``:
  trace-id correlation, a rate-limit filter, and one configure call.
* :mod:`repro.obs.exemplars` — a bounded ring of the slowest recent
  traces (``GET /debug/traces`` and ``repro trace``).
* :mod:`repro.obs.render` — the span-tree pretty printer the CLI uses.

See ``docs/observability.md`` for the trace model, the ``/metrics`` name
reference, the log schema, and the sampling knobs.
"""

from repro.obs.exemplars import SlowTraceRing
from repro.obs.logs import JsonFormatter, configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimingAccumulator,
)
from repro.obs.render import render_trace
from repro.obs.trace import (
    Span,
    Trace,
    TraceHandle,
    current_trace,
    current_trace_id,
    span,
    start_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "SlowTraceRing",
    "Span",
    "Trace",
    "TraceHandle",
    "TimingAccumulator",
    "configure_logging",
    "current_trace",
    "current_trace_id",
    "get_logger",
    "render_trace",
    "span",
    "start_trace",
]
