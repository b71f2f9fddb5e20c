"""Telemetry plane tests: tracing, metrics, logs, exemplars, propagation.

Covers the :mod:`repro.obs` primitives, the service-side wiring
(:class:`ServiceTelemetry`, ``/metrics``, ``/debug/traces``,
``X-Trace-Id``), cross-pool trace propagation (thread and process
workers, snapshot on and off), the scheduler's EWMA-on-success-only
batch latency, and the byte-identity guarantee: telemetry must observe
the pipeline without steering it.
"""

from __future__ import annotations

import io
import json
import logging
import pickle
import threading
import time
import types
import urllib.request

import pytest

from repro import GCED
from repro.core import BatchDistiller
from repro.engine.instrumentation import StageTiming
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonFormatter,
    MetricsRegistry,
    SlowTraceRing,
    TimingAccumulator,
    render_trace,
    span,
    start_trace,
)
from repro.obs import trace as obs_trace
from repro.obs.logs import RateLimitFilter
from repro.obs.metrics import (
    counter_family,
    lint_exposition,
    parse_exposition,
    sample_value,
)
from repro.retrieval import CorpusRetriever
from repro.service import (
    DistillService,
    ServiceClient,
    ServiceConfig,
    start_server,
)
from repro.service.scheduler import MicroBatchScheduler
from repro.service.telemetry import ServiceTelemetry
from repro.utils.timing import Timer
from tests.conftest import CORPUS, QA_CASES


# ---------------------------------------------------------------- tracing


class TestSpanPrimitives:
    def test_span_without_active_trace_is_shared_noop(self):
        first = span("anything", tag=1)
        second = span("else")
        assert first is second  # the shared null handle
        with first as handle:
            assert handle.tag(more=2) is handle  # tag() safe when untraced

    def test_nested_spans_parent_correctly(self):
        with start_trace("root") as handle:
            with span("outer"):
                with span("inner"):
                    pass
            with span("sibling"):
                pass
        by_name = {s.name: s for s in handle.trace.spans}
        assert by_name["outer"].parent_id == handle.root.span_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["sibling"].parent_id == handle.root.span_id
        assert all(
            s.trace_id == handle.trace_id for s in handle.trace.spans
        )

    def test_trace_deactivated_after_exit(self):
        assert obs_trace.current() is None
        with start_trace("root"):
            assert obs_trace.current() is not None
        assert obs_trace.current() is None
        assert obs_trace.current_trace_id() is None

    def test_span_intervals_nest_monotonically(self):
        with start_trace("root") as handle:
            with span("child"):
                time.sleep(0.002)
        root, child = handle.root, handle.trace.spans[0]
        assert root.start <= child.start <= child.end <= root.end
        assert child.duration_ms >= 1.0

    def test_record_event_is_zero_duration(self):
        trace = obs_trace.Trace()
        event = obs_trace.record_event(trace, "hit", parent_id="p", k=3)
        assert event.start == event.end
        assert event.parent_id == "p"
        assert event.tags == {"k": 3}
        assert trace.spans == [event]

    def test_trace_ids_hex_and_span_ids_pid_scoped(self):
        assert len(obs_trace.new_trace_id()) == 16
        int(obs_trace.new_trace_id(), 16)  # hex or raises
        with start_trace("root") as handle:
            pass
        pid_part, _counter = handle.root.span_id.split(".")
        import os

        assert int(pid_part, 16) == os.getpid()

    def test_to_dict_sorted_and_picklable(self):
        with start_trace("root", kind="test") as handle:
            with span("a"):
                pass
            with span("b"):
                pass
        payload = handle.to_dict()
        assert payload["trace_id"] == handle.trace_id
        assert payload["n_spans"] == 3
        starts = [s["start"] for s in payload["spans"]]
        assert starts == sorted(starts)
        json.dumps(payload)  # JSON-safe for /debug/traces
        pickle.loads(pickle.dumps(handle.trace.spans))  # worker-shippable

    def test_explicit_ids_join_distributed_trace(self):
        with start_trace("worker", trace_id="feed" * 4, parent_id="up.1") as h:
            pass
        assert h.trace_id == "feed" * 4
        assert h.root.parent_id == "up.1"


class TestRenderTrace:
    def test_renders_tree_with_durations_and_tags(self):
        with start_trace("http.request", route="/distill") as handle:
            with span("scheduler.flush", size=2):
                with span("engine.distill"):
                    pass
        text = render_trace(handle.to_dict())
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {handle.trace_id} ")
        assert "http.request" in lines[1]
        assert any("└─" in line or "├─" in line for line in lines)
        assert "route=/distill" in text
        assert "size=2" in text
        assert "ms" in text

    def test_orphan_spans_become_roots(self):
        trace = obs_trace.Trace()
        obs_trace.record_event(trace, "orphan", parent_id="never.recorded")
        text = render_trace(trace.to_dict())
        assert "orphan" in text


# ----------------------------------------------------- timing primitives


class TestTimingFold:
    def test_accumulator_observe_merge_mean(self):
        acc = TimingAccumulator()
        acc.observe(0.2)
        acc.observe(0.4)
        other = TimingAccumulator(calls=2, seconds=0.4)
        acc.merge(other)
        assert acc.calls == 4
        assert acc.seconds == pytest.approx(1.0)
        assert acc.mean_ms == pytest.approx(250.0)

    def test_timer_still_exposes_dict_views(self):
        timer = Timer()
        with timer.measure("parse"):
            pass
        with timer.measure("parse"):
            pass
        assert timer.counts["parse"] == 2
        assert "parse" in timer.totals
        assert timer.totals.get("missing", 0.0) == 0.0
        assert timer.mean("parse") >= 0.0

    def test_stage_timing_is_an_accumulator_with_halts(self):
        timing = StageTiming(calls=2, seconds=0.5, halts=1)
        assert isinstance(timing, TimingAccumulator)
        other = StageTiming(calls=1, seconds=0.1, halts=2)
        timing.merge(other)
        assert (timing.calls, timing.halts) == (3, 3)
        payload = timing.to_dict()
        assert set(payload) == {"calls", "seconds", "mean_ms", "halts"}


# ---------------------------------------------------------------- metrics


class TestMetricsPrimitives:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_merge_max(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value == 3
        other = Gauge()
        other.set(7)
        gauge.merge(other)
        assert gauge.value == 7

    def test_histogram_buckets_and_merge(self):
        hist = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        cumulative, total, count = hist.snapshot()
        assert cumulative == [1, 2, 3]  # <=0.1, <=1.0, +Inf
        assert count == 3
        assert total == pytest.approx(5.55)
        other = Histogram(buckets=(0.1, 1.0))
        other.observe(0.2)
        hist.merge(other)
        assert hist.snapshot()[0] == [1, 3, 4]
        with pytest.raises(ValueError):
            hist.merge(Histogram(buckets=(0.5,)))

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.5))


class TestMetricsRegistry:
    def build_registry(self):
        registry = MetricsRegistry()
        requests = registry.counter(
            "app_requests_total", "Requests", labelnames=("route",)
        )
        requests.labels(route="/a").inc(3)
        requests.labels(route="/b").inc()
        registry.gauge("app_depth", "Depth").set(7)
        registry.histogram("app_latency_seconds", "Latency").observe(0.02)
        return registry

    def test_render_is_lint_clean_and_parses_back(self):
        registry = self.build_registry()
        text = registry.render()
        assert lint_exposition(text) == []
        families = parse_exposition(text)
        assert sample_value(families, "app_requests_total", route="/a") == 3
        assert sample_value(families, "app_depth") == 7
        assert (
            sample_value(families, "app_latency_seconds_count") == 1
        )
        assert families["app_requests_total"]["type"] == "counter"

    def test_duplicate_name_rejected(self):
        registry = self.build_registry()
        with pytest.raises(ValueError):
            registry.counter("app_requests_total", "again")

    def test_callback_families_rendered(self):
        registry = MetricsRegistry()
        registry.register_callback(
            lambda: [counter_family("cb_events_total", "Events", 4)]
        )
        families = parse_exposition(registry.render())
        assert sample_value(families, "cb_events_total") == 4

    def test_lint_catches_real_problems(self):
        bad = (
            "# TYPE x counter\nx 1\n"  # counter without _total
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="+Inf"} 3\n'  # non-monotone
            "h_count 3\nh_sum 1.0\n"
        )
        problems = lint_exposition(bad)
        assert problems  # both defects reported
        assert any("_total" in p for p in problems)
        assert any(
            "monoton" in p or "+Inf" in p or "cumulative" in p
            for p in problems
        )


# ------------------------------------------------------------------- logs


class TestStructuredLogs:
    def make_logger(self, name: str):
        logger = logging.getLogger(name)
        logger.handlers.clear()
        logger.propagate = False
        logger.setLevel(logging.INFO)
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger.addHandler(handler)
        return logger, stream

    def test_json_line_with_fields_and_trace_id(self):
        logger, stream = self.make_logger("test.obs.json")
        with start_trace("req") as handle:
            logger.info(
                "access", extra={"fields": {"path": "/x", "status": 200}}
            )
        line = json.loads(stream.getvalue().strip())
        assert line["msg"] == "access"
        assert line["level"] == "info"
        assert line["path"] == "/x"
        assert line["status"] == 200
        assert line["trace_id"] == handle.trace_id

    def test_no_trace_id_outside_traces(self):
        logger, stream = self.make_logger("test.obs.notrace")
        logger.info("plain")
        line = json.loads(stream.getvalue().strip())
        assert "trace_id" not in line

    def test_rate_limit_counts_drops(self):
        logger, stream = self.make_logger("test.obs.rate")
        limiter = RateLimitFilter(rate=0.0001, burst=2)
        logger.handlers[0].addFilter(limiter)
        for _ in range(5):
            logger.info("burst")
        lines = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if line
        ]
        assert len(lines) == 2  # burst allowed, rest dropped
        assert limiter.dropped == 3


# -------------------------------------------------------------- exemplars


class TestSlowTraceRing:
    def test_threshold_and_capacity(self):
        ring = SlowTraceRing(capacity=2, threshold_ms=100.0)
        assert not ring.offer({"trace_id": "fast"}, 50.0)
        for index in range(3):
            assert ring.offer({"trace_id": f"t{index}"}, 200.0 + index)
        snap = ring.snapshot()
        assert snap["seen"] == 4
        assert snap["kept"] == 3
        assert len(snap["traces"]) == 2  # capacity bound
        # Newest first.
        assert snap["traces"][0]["trace"]["trace_id"] == "t2"
        assert len(ring) == 2


# ----------------------------------------------------- sampling policy


def stub_service():
    """The minimal surface ServiceTelemetry touches at construction."""
    return types.SimpleNamespace(
        scheduler=types.SimpleNamespace(on_batch=None)
    )


class TestSamplingPolicy:
    def test_every_nth_deterministic(self):
        telemetry = ServiceTelemetry(stub_service(), trace_sample=0.5)
        handles = [telemetry.maybe_trace("req") for _ in range(8)]
        # Period 2: exactly every second request traced, no randomness.
        assert [h is not None for h in handles] == [False, True] * 4

    def test_zero_sample_disables_unforced_tracing(self):
        telemetry = ServiceTelemetry(stub_service(), trace_sample=0.0)
        assert telemetry.maybe_trace("req") is None
        forced = telemetry.maybe_trace("req", trace_id="cafe" * 4)
        assert forced is not None
        assert forced.trace_id == "cafe" * 4

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError):
            ServiceTelemetry(stub_service(), trace_sample=1.5)

    def test_finish_trace_feeds_slow_ring(self):
        telemetry = ServiceTelemetry(
            stub_service(), trace_sample=1.0, slow_trace_ms=0.0
        )
        handle = telemetry.maybe_trace("req")
        with handle:
            pass
        telemetry.finish_trace(handle)
        snap = telemetry.slow_ring.snapshot()
        assert snap["kept"] == 1
        assert snap["traces"][0]["trace"]["trace_id"] == handle.trace_id


# ------------------------------------------------- scheduler EWMA fix


class FlakyDistiller:
    """Batch path fails on demand; per-request fallback always works."""

    def __init__(self) -> None:
        self.fail_batches = False

    def distill_many(self, triples):
        if self.fail_batches:
            raise RuntimeError("batch executor died")
        return [("ok",) + tuple(t) for t in triples]

    def distill_one(self, question, answer, context):
        return ("ok", question, answer, context)


class TestSchedulerEwma:
    def test_failed_batches_do_not_update_ewma(self):
        distiller = FlakyDistiller()
        distiller.fail_batches = True
        observed = []
        done = threading.Event()
        with MicroBatchScheduler(
            distiller, max_batch_size=4, max_wait_ms=1
        ) as scheduler:
            scheduler.on_batch = lambda *args: (
                observed.append(args),
                done.set(),
            )
            # The batch path fails, every request succeeds via fallback —
            # its duration includes the serial re-run and must not feed
            # the Retry-After EWMA.
            assert scheduler.distill("q", "a", "c")[0] == "ok"
            assert done.wait(timeout=5)
            assert scheduler.stats().ewma_batch_ms == 0.0
            _seconds, size, _reason, ok = observed[-1]
            assert (size, ok) == (1, False)

            # A successful batch does update it.
            distiller.fail_batches = False
            done.clear()
            assert scheduler.distill("q2", "a", "c")[0] == "ok"
            assert done.wait(timeout=5)
            assert scheduler.stats().ewma_batch_ms > 0.0
            assert observed[-1][3] is True


# ----------------------------------------- cross-pool trace propagation


class TestTracePropagation:
    def test_thread_pool_spans_join_parent_trace(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        cases = QA_CASES[:3]
        with BatchDistiller(gced, workers=2, backend="thread") as batch:
            with start_trace("parent") as handle:
                batch.distill_many(cases)
        names = [s.name for s in handle.trace.spans]
        assert names.count("engine.distill") == len(cases)
        engine_spans = [
            s for s in handle.trace.spans if s.name == "engine.distill"
        ]
        # Thread workers re-activate the caller's context: engine spans
        # parent directly on the root span, stage spans on their engine
        # span, all inside the root interval.
        root = handle.root
        for engine_span in engine_spans:
            assert engine_span.parent_id == root.span_id
            assert root.start <= engine_span.start
            assert engine_span.end <= root.end
        stage_parents = {
            s.parent_id
            for s in handle.trace.spans
            if s.name.startswith("stage.")
        }
        assert stage_parents <= {s.span_id for s in engine_spans}

    @pytest.mark.parametrize("snapshot", [None, False], ids=["warm", "cold"])
    def test_process_workers_ship_spans_back(self, artifacts, snapshot):
        import os

        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        cases = QA_CASES[:3]
        kwargs = {} if snapshot is None else {"snapshot": snapshot}
        with BatchDistiller(
            gced, workers=2, backend="process", **kwargs
        ) as batch:
            with start_trace("parent") as handle:
                results = batch.distill_many(cases)
        assert all(r is not None for r in results)

        spans = handle.trace.spans
        worker_roots = [s for s in spans if s.name == "worker.distill"]
        assert len(worker_roots) == len(cases)
        root = handle.root
        worker_ids = set()
        for worker_span in worker_roots:
            # Joined trace: same trace id, rooted under the coordinator's
            # active span, stamped with the (different) worker pid.
            assert worker_span.trace_id == handle.trace_id
            assert worker_span.parent_id == root.span_id
            assert worker_span.tags["pid"] != os.getpid()
            # Wall-clock intervals nest inside the parent span.
            assert root.start <= worker_span.start
            assert worker_span.end <= root.end
            worker_ids.add(worker_span.span_id)
        # Worker-side engine/stage spans came along and nest correctly.
        engine_spans = [s for s in spans if s.name == "engine.distill"]
        assert len(engine_spans) == len(cases)
        by_id = {s.span_id: s for s in spans}
        for engine_span in engine_spans:
            assert engine_span.parent_id in worker_ids
            parent = by_id[engine_span.parent_id]
            assert parent.start <= engine_span.start
            assert engine_span.end <= parent.end
        assert any(s.name.startswith("stage.") for s in spans)

    def test_untraced_process_run_ships_no_spans(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with BatchDistiller(
            gced, workers=2, backend="process", snapshot=False
        ) as batch:
            results = batch.distill_many(QA_CASES[:2])
        assert all(r is not None for r in results)
        assert obs_trace.current() is None


class TestByteIdentity:
    def test_distill_identical_traced_or_not(self, artifacts):
        question, answer, context = QA_CASES[2]
        plain = GCED(qa_model=artifacts.reader, artifacts=artifacts).distill(
            question, answer, context
        )
        with start_trace("traced"):
            traced = GCED(
                qa_model=artifacts.reader, artifacts=artifacts
            ).distill(question, answer, context)
        assert traced.evidence == plain.evidence
        assert traced.scores == plain.scores
        assert pickle.dumps(traced.scores) == pickle.dumps(plain.scores)


# ------------------------------------------------------- HTTP telemetry


@pytest.fixture(scope="module")
def served_obs(artifacts):
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    service = DistillService(
        gced,
        config=ServiceConfig(
            max_batch_size=4,
            max_wait_ms=5,
            slow_trace_ms=0.0,  # keep every finished trace in the ring
        ),
        retriever=CorpusRetriever.build(CORPUS, n_shards=2),
    )
    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield service, client
    server.shutdown()
    server.server_close()
    service.close()


class TestHTTPTelemetry:
    def test_metrics_endpoint_lint_clean(self, served_obs):
        _service, client = served_obs
        client.distill(*QA_CASES[0])
        text = client.metrics_text()
        assert lint_exposition(text) == []

    def test_metrics_agree_with_stats(self, served_obs):
        _service, client = served_obs
        client.distill(*QA_CASES[1])
        pairs = (
            ("gced_scheduler_submitted_total", "submitted"),
            ("gced_scheduler_completed_total", "completed"),
            ("gced_scheduler_coalesced_total", "coalesced"),
            ("gced_scheduler_shed_total", "shed"),
        )
        # The flush thread bumps `completed` just after resolving the
        # future that unblocked the client, so poll briefly for the two
        # surfaces to settle on the same counters.
        for _ in range(100):
            families = parse_exposition(client.metrics_text())
            stats = client.stats()
            scheduler = stats["scheduler"]
            if all(
                sample_value(families, metric) == scheduler[field]
                for metric, field in pairs
            ):
                break
            time.sleep(0.02)
        for metric, field in pairs:
            assert sample_value(families, metric) == scheduler[field]
        assert (
            sample_value(families, "gced_admission_admitted_total")
            == stats["admission"]["admitted"]
        )
        assert sample_value(families, "gced_uptime_seconds") > 0
        assert stats["obs"]["trace_sample"] == 1.0

    def test_x_trace_id_echoed_and_trace_captured(self, served_obs):
        _service, client = served_obs
        trace_id = "cafef00d" * 2
        body = json.dumps(
            {
                "question": QA_CASES[3][0],
                "answer": QA_CASES[3][1],
                "context": QA_CASES[3][2],
            }
        ).encode()
        request = urllib.request.Request(
            f"{client.base_url}/distill",
            data=body,
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": trace_id,
            },
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Trace-Id"] == trace_id
            json.loads(response.read())
        # finish_trace runs just after the response bytes go out; poll.
        for _ in range(100):
            traces = client.debug_traces()["traces"]
            if any(t["trace"]["trace_id"] == trace_id for t in traces):
                break
            time.sleep(0.02)
        else:
            pytest.fail("X-Trace-Id trace never reached /debug/traces")

    def test_debug_traces_render_full_span_tree(self, served_obs):
        _service, client = served_obs
        client.distill(*QA_CASES[4])
        # Every request (this poll's GETs included) is traced at sample
        # 1.0 and kept at threshold 0, so hunt for a /distill exemplar
        # rather than taking the newest entry.
        entry = None
        for _ in range(100):
            for candidate in client.debug_traces()["traces"]:
                names = {s["name"] for s in candidate["trace"]["spans"]}
                if "admission.admit" in names:
                    entry = candidate
                    break
            if entry is not None:
                break
            time.sleep(0.02)
        assert entry is not None, "no /distill trace reached the ring"
        names = {s["name"] for s in entry["trace"]["spans"]}
        text = render_trace(entry["trace"])
        assert "http.request" in text
        # A traced /distill covers HTTP -> admission -> scheduler ->
        # engine stages end to end.
        assert {"http.request", "admission.admit", "scheduler.wait"} <= names
        assert any(n.startswith("scheduler.") for n in names)

    def test_trace_sample_zero_service_stays_dark(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with DistillService(
            gced,
            config=ServiceConfig(
                max_wait_ms=1,
                trace_sample=0.0,
                slow_trace_ms=0.0,
            ),
        ) as service:
            service.distill(*QA_CASES[0])
            assert service.telemetry.stats_block()["traces_started"] == 0
            assert len(service.telemetry.slow_ring) == 0
