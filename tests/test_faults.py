"""Fault tolerance: injection plane, crash recovery, deadlines, degradation.

Unit tests cover the :mod:`repro.faults` DSL/plan/breaker machinery and
the scheduler's deadline handling against a stub distiller; the
``chaos``-marked tests run the real pipeline and genuinely ``kill -9``
pool workers mid-batch, asserting recovery is *byte-identical* — the
repo's determinism contract extends through crashes.
"""

from __future__ import annotations

import http.server
import json
import os
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.batch import BatchDistiller
from repro.faults import (
    ENV_VAR,
    CircuitBreaker,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fault_point,
    injected,
    install_from_env,
    installed,
    uninstall,
)
from repro.retrieval import CorpusRetriever, RetrievalUnavailableError
from repro.service import (
    DeadlineExceededError,
    DistillService,
    MicroBatchScheduler,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    start_server,
)
from repro.utils.cache import MISSING
from tests.conftest import CORPUS, QA_CASES

POISON = "__poison__"


class StubDistiller:
    """Distiller double: records batches, fails on poisoned contexts."""

    def __init__(self) -> None:
        self.batches: list[list[tuple[str, str, str]]] = []
        self._lock = threading.Lock()

    def _one(self, triple):
        if triple[2] == POISON:
            raise ValueError(f"poisoned triple {triple[0]!r}")
        return ("evidence-for",) + triple

    def distill_many(self, triples):
        with self._lock:
            self.batches.append(list(triples))
        return [self._one(t) for t in triples]

    def memo_lookup(self, triple):
        return MISSING

    def distill_one(self, question, answer, context):
        return self._one((question, answer, context))


# --------------------------------------------------------------------- DSL


class TestFaultSpecDSL:
    def test_round_trip(self):
        spec = FaultSpec(
            site="worker.distill",
            action="die",
            every=3,
            skip=1,
            times=2,
            match="Hastings",
            token="/tmp/tok",
        )
        assert FaultSpec.parse(spec.to_text()) == spec

    def test_plan_round_trip_with_seed(self):
        plan = FaultPlan(
            (
                FaultSpec(site="a", action="raise"),
                FaultSpec(site="b", action="delay", delay_ms=5.0),
            ),
            seed=7,
        )
        again = FaultPlan.parse(plan.to_env())
        assert again.seed == 7
        assert again.specs == plan.specs

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("no-action-here")
        with pytest.raises(ValueError):
            FaultSpec.parse("site:explode")
        with pytest.raises(ValueError):
            FaultSpec.parse("site:raise:bogus=1")
        with pytest.raises(ValueError):
            FaultSpec.parse("site:raise:times")
        with pytest.raises(ValueError):
            FaultSpec(site="s", action="raise", every=0)

    def test_install_from_env(self):
        try:
            assert install_from_env({}) is None
            assert installed() is None
            plan = install_from_env({ENV_VAR: "1"})
            assert plan is not None and plan.specs == ()
            plan = install_from_env({ENV_VAR: "x:raise:times=2;seed=3"})
            assert plan.seed == 3
            assert plan.specs[0].site == "x"
            assert installed() is plan
        finally:
            uninstall()

    def test_injected_restores_previous_plan(self):
        outer = FaultPlan(())
        with injected(outer):
            with injected(FaultPlan((FaultSpec(site="x"),))):
                assert installed().specs
            assert installed() is outer
        assert installed() is None


# ------------------------------------------------------------------ firing


class TestFaultPlanFiring:
    def test_disabled_path_is_noop(self):
        uninstall()
        fault_point("anything", detail="free")  # must not raise

    def test_every_skip_times(self):
        plan = FaultPlan(
            (FaultSpec(site="s", action="raise", every=2, skip=1, times=2),)
        )
        fired = []
        with injected(plan):
            for i in range(8):
                try:
                    fault_point("s")
                except FaultInjected:
                    fired.append(i)
        # Skip pass 0, then fire every 2nd matching pass, at most twice.
        assert fired == [1, 3]
        assert plan.fired("s") == 2
        assert plan.stats()["specs"][0]["passes"] == 8

    def test_match_restricts_to_detail_substring(self):
        plan = FaultPlan((FaultSpec(site="s", action="raise", match="bad"),))
        with injected(plan):
            fault_point("s", detail="all good")
            with pytest.raises(FaultInjected):
                fault_point("s", detail="a bad pass")

    def test_seeded_phase_is_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                (FaultSpec(site="s", action="raise", every=3),), seed=seed
            )
            pattern = []
            with injected(plan):
                for i in range(9):
                    try:
                        fault_point("s")
                    except FaultInjected:
                        pattern.append(i)
            return pattern

        assert firing_pattern(seed=11) == firing_pattern(seed=11)
        assert len(firing_pattern(seed=11)) == 3  # still every 3rd pass

    def test_delay_action_sleeps(self):
        plan = FaultPlan((FaultSpec(site="s", action="delay", delay_ms=20.0),))
        with injected(plan):
            started = time.perf_counter()
            fault_point("s")
            assert time.perf_counter() - started >= 0.015

    def test_token_is_a_cross_process_one_shot(self):
        with tempfile.NamedTemporaryFile(delete=False) as handle:
            token = handle.name
        try:
            plan = FaultPlan((FaultSpec(site="s", action="raise", token=token),))
            with injected(plan):
                with pytest.raises(FaultInjected):
                    fault_point("s")
                fault_point("s")  # token consumed: must not fire again
            assert not os.path.exists(token)
            # A fresh plan (a respawned worker re-reading the env) cannot
            # re-fire a consumed token either — its counters restart but
            # the token file is gone.
            fresh = FaultPlan((FaultSpec(site="s", action="raise", token=token),))
            with injected(fresh):
                fault_point("s")
            assert fresh.fired() == 0
        finally:
            if os.path.exists(token):
                os.unlink(token)

    def test_raise_message_carries_detail(self):
        plan = FaultPlan((FaultSpec(site="s", action="raise", message="boom"),))
        with injected(plan):
            with pytest.raises(FaultInjected, match="boom.*det41l"):
                fault_point("s", detail="det41l")


# ----------------------------------------------------------------- breaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=30.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.degraded
        assert breaker.stats()["rejected"] == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_trial(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=30.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.now += 31.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single trial
        assert not breaker.allow()  # trial in flight: everyone else waits
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=30.0, clock=clock
        )
        breaker.record_failure()
        clock.now += 31.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.stats()["trips"] == 2
        assert not breaker.allow()

    def test_state_codes(self):
        breaker = CircuitBreaker(failure_threshold=1)
        assert breaker.stats()["state_code"] == 0
        breaker.record_failure()
        assert breaker.stats()["state_code"] == 2


# --------------------------------------------------------------- deadlines


class TestSchedulerDeadlines:
    def test_expired_deadline_refused_at_submit(self):
        stub = StubDistiller()
        with MicroBatchScheduler(stub, max_batch_size=4) as sched:
            with pytest.raises(DeadlineExceededError):
                sched.submit("q", "a", "c", deadline=time.monotonic() - 0.001)
            assert sched.stats().deadline_expired == 1
        assert stub.batches == []  # refused before any engine work

    def test_queued_request_expires_without_engine_work(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=8, max_wait_ms=60
        ) as sched:
            request = sched.submit(
                "q", "a", "c", deadline=time.monotonic() + 0.005
            )
            with pytest.raises(DeadlineExceededError) as excinfo:
                request.result(timeout=5)
            assert "in the scheduler queue" in str(excinfo.value)
            stats = sched.stats()
            assert stats.deadline_expired == 1
            assert stats.failed == 1
        assert stub.batches == []  # culled before the distiller saw it

    def test_live_requests_survive_an_expired_batchmate(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=8, max_wait_ms=60
        ) as sched:
            doomed = sched.submit(
                "q-doomed", "a", "c1", deadline=time.monotonic() + 0.005
            )
            live = sched.submit("q-live", "a", "c2")
            assert live.result(timeout=5) == ("evidence-for", "q-live", "a", "c2")
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5)
        assert stub.batches == [[("q-live", "a", "c2")]]

    def test_submit_many_shares_one_deadline(self):
        stub = StubDistiller()
        with MicroBatchScheduler(stub, max_batch_size=4) as sched:
            with pytest.raises(DeadlineExceededError):
                sched.submit_many(
                    [("q1", "a", "c1"), ("q2", "a", "c2")],
                    deadline=time.monotonic() - 0.001,
                )
            assert sched.stats().deadline_expired == 1


# ---------------------------------------------------- retrieval degradation


class TestRetrievalDegradation:
    def test_breaker_trips_to_unavailable_and_recovers(self):
        retriever = CorpusRetriever.build(CORPUS, n_shards=2)
        clock = FakeClock()
        breaker = retriever.breaker
        breaker.clock = clock
        breaker.failure_threshold = 2
        query = "Who led the Norman conquest of England?"
        healthy = retriever.retrieve(query, k=2)
        assert healthy and not retriever.degraded

        plan = FaultPlan(
            (FaultSpec(site="retrieval.search", action="raise", times=2),)
        )
        with injected(plan):
            with pytest.raises(RetrievalUnavailableError) as first:
                retriever.retrieve(query, k=2)  # failure 1, still closed
            with pytest.raises(RetrievalUnavailableError) as second:
                retriever.retrieve(query, k=2)  # failure 2 -> trips open
        assert plan.fired("retrieval.search") == 2
        assert first.value.retry_after == 0.0
        assert second.value.retry_after == breaker.reset_after_s
        assert breaker.state == "open" and retriever.degraded

        # While open: refused with the remaining cooldown, no scoring.
        scored = []
        top_k = retriever.scorer.top_k
        retriever.scorer.top_k = lambda *a: scored.append(a) or top_k(*a)
        clock.now += 10.0
        with pytest.raises(RetrievalUnavailableError) as third:
            retriever.retrieve(query, k=2)
        assert third.value.retry_after == breaker.reset_after_s - 10.0
        assert scored == []
        assert retriever.recovery_info()["breaker"]["rejected"] == 1

        # Cooldown elapses -> half-open trial succeeds -> fully closed,
        # and the ranking is the healthy one again.
        clock.now += breaker.reset_after_s
        assert retriever.retrieve(query, k=2) == healthy
        assert len(scored) == 1
        assert breaker.state == "closed" and not retriever.degraded

    @pytest.mark.chaos
    def test_open_breaker_ask_answers_503_under_live_ingest(
        self, artifacts, tmp_path
    ):
        from repro import GCED
        from repro.retrieval import MutableInvertedIndex

        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        service = DistillService(
            gced,
            config=ServiceConfig(max_wait_ms=1, ingest_dir=str(tmp_path)),
            retriever=CorpusRetriever.build(CORPUS, n_shards=2),
        )
        assert isinstance(service.retriever.index, MutableInvertedIndex)
        breaker = service.retriever.breaker
        breaker.clock = FakeClock()
        server, _thread = start_server(service, quiet=True)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=30)
        question, answer, _context = QA_CASES[0]

        def ranking() -> list[int]:
            payload = client.ask(question, answer, k=2)
            return [c["retrieval"]["doc_id"] for c in payload["candidates"]]

        scored = []
        top_k = service.retriever.scorer.top_k
        service.retriever.scorer.top_k = (
            lambda *args: scored.append(args) or top_k(*args)
        )
        try:
            client.ingest(["zyzzyva quokka xylophone marmalade"])
            before = ranking()
            assert len(scored) == 1
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            scored.clear()
            client.ingest(["quixotic zephyr jubilant kumquat"])
            body = json.dumps({"question": question, "answer": answer})
            request = urllib.request.Request(
                f"http://{host}:{port}/ask",
                data=body.encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            refused = excinfo.value
            assert refused.code == 503
            retry_after = refused.headers["Retry-After"]
            assert retry_after.isdigit() and int(retry_after) >= 1
            payload = json.loads(refused.read())
            assert payload["retry_after_seconds"] == breaker.reset_after_s
            assert scored == []  # the open breaker did no scoring

            assert client.healthz()["status"] == "degraded"
            metrics = client.metrics_text()
            assert 'gced_breaker_state{breaker="retrieval"} 2' in metrics

            breaker.clock.now += breaker.reset_after_s
            assert ranking() == before
            assert breaker.state == "closed"
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ---------------------------------------------------------- crash recovery


def _reference_evidence(gced, triples):
    return [gced.distill(*t).evidence for t in triples]


@pytest.mark.chaos
class TestCrashRecovery:
    def test_worker_sigkill_mid_batch_recovers_byte_identical(self, gced):
        triples = list(QA_CASES)
        reference = _reference_evidence(gced, triples)
        with tempfile.NamedTemporaryFile(delete=False) as handle:
            token = handle.name
        os.environ[ENV_VAR] = f"worker.distill:die:times=1,token={token}"
        try:
            with BatchDistiller(gced, workers=2, backend="process") as batch:
                results = batch.distill_many(triples)
                recovery = batch.executor.recovery_stats()
            assert [r.evidence for r in results] == reference
            assert recovery["pool_breaks"] == 1
            assert recovery["chunk_retries"] >= 1
            assert recovery["last_recovery_ms"] > 0.0
        finally:
            os.environ.pop(ENV_VAR, None)
            uninstall()
            if os.path.exists(token):
                os.unlink(token)

    def test_unrecovered_pool_degrades_to_serial(self, gced):
        triples = list(QA_CASES[:3])
        reference = _reference_evidence(gced, triples)
        # No token and no times cap: every (re)spawned worker dies on its
        # first job, so the pool can never recover and the breaker must
        # route the batch to the serial in-coordinator fallback.
        os.environ[ENV_VAR] = "worker.distill:die"
        try:
            with BatchDistiller(
                gced,
                workers=2,
                backend="process",
                breaker_failures=1,
                breaker_reset_s=3600.0,
            ) as batch:
                results = batch.distill_many(triples)
                assert [r.evidence for r in results] == reference
                assert batch.degraded
                info = batch.recovery_info()
                assert info["degraded_batches"] == 1
                assert info["breaker"]["state"] == "open"
                assert info["executor"]["pool_breaks"] == 2

                # While open, later batches bypass the pool entirely:
                # pool_breaks stays put and the degraded counter moves.
                more = [("What changed English history?", "The battle", CORPUS[2])]
                again = batch.distill_many(more)
                assert [r.evidence for r in again] == _reference_evidence(
                    gced, more
                )
                info = batch.recovery_info()
                assert info["degraded_batches"] == 2
                assert info["executor"]["pool_breaks"] == 2
        finally:
            os.environ.pop(ENV_VAR, None)
            uninstall()

    def test_poison_item_is_quarantined_in_degraded_batch(self, gced):
        class PoisonableGCED:
            """Delegates to the real pipeline, fails one marked context."""

            def __init__(self, inner):
                self._inner = inner

            def distill(self, question, answer, context):
                if context == POISON:
                    raise ValueError("poisoned")
                return self._inner.distill(question, answer, context)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        good = list(QA_CASES[:2])
        reference = _reference_evidence(gced, good)
        with BatchDistiller(gced, workers=2, backend="process") as batch:
            # Trip the pool breaker open so _execute takes the degraded
            # serial path, then poison one item in the coordinator.
            for _ in range(batch.pool_breaker.failure_threshold):
                batch.pool_breaker.record_failure()
            batch.gced = PoisonableGCED(gced)
            with MicroBatchScheduler(
                batch, max_batch_size=3, max_wait_ms=10_000
            ) as sched:
                requests = sched.submit_many(
                    good + [("q-poison", "a", POISON)]
                )
                assert [
                    r.result(timeout=30).evidence for r in requests[:2]
                ] == reference
                with pytest.raises(ValueError, match="poisoned"):
                    requests[2].result(timeout=30)
            # The healthy batch-mates were memoized before the poison
            # error propagated: the per-request fallback served them from
            # the memo instead of recomputing.
            assert batch.stats().n_cache_hits >= 2
            assert batch.recovery_info()["degraded_batches"] == 1


# ----------------------------------------------------------- HTTP serving


@pytest.fixture(scope="module")
def served(gced):
    service = DistillService(
        gced,
        config=ServiceConfig(max_batch_size=4, max_wait_ms=10),
        retriever=CorpusRetriever.build(CORPUS, n_shards=2),
    )
    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30)
    yield service, client
    client.close()
    server.shutdown()
    server.server_close()
    service.close()


@pytest.mark.chaos
class TestServingFaults:
    def test_expired_deadline_answers_504_with_parseable_body(self, served):
        service, client = served
        before = service.scheduler.stats().deadline_expired
        question, answer, context = QA_CASES[0]
        with pytest.raises(ServiceError) as excinfo:
            client.distill(question, answer, context, deadline_ms=0)
        assert excinfo.value.status == 504
        assert isinstance(excinfo.value.payload, dict)
        assert "deadline" in excinfo.value.payload["error"]
        assert service.scheduler.stats().deadline_expired == before + 1

    def test_healthz_and_responses_surface_degradation(self, served):
        service, client = served
        assert client.healthz()["status"] == "ok"
        question, answer, context = QA_CASES[0]
        healthy = client.ask(question, answer, k=2)
        assert "degraded" not in healthy  # byte-identical healthy path

        breaker = service.retriever.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        try:
            health = client.healthz()
            assert health["status"] == "degraded"
            assert health["checks"]["retrieval_breaker"] == "open"
            degraded = client.distill(question, answer, context)
            assert degraded["degraded"] is True
            stats = client.stats()
            assert stats["faults"]["degraded"] is True
            assert stats["faults"]["retrieval"]["breaker"]["state"] == "open"
            metrics = client.metrics_text()
            assert 'gced_breaker_state{breaker="retrieval"} 2' in metrics
            assert "gced_degraded 1" in metrics
        finally:
            breaker.record_success()
        assert client.healthz()["status"] == "ok"
        assert "degraded" not in client.ask(question, answer, k=2)

    def test_http_edge_fault_answers_500_not_a_crash(self, served):
        _service, client = served
        plan = FaultPlan(
            (FaultSpec(site="http.request", action="raise", times=1),)
        )
        with injected(plan):
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
            assert excinfo.value.status == 500
            assert "FaultInjected" in excinfo.value.payload["error"]
        assert client.healthz()["status"] == "ok"  # server survived

    def test_errors_echo_the_trace_id(self, served):
        _service, client = served
        traced = ServiceClient(
            client.base_url, timeout=30, trace_id="cafebabecafebabe"
        )
        with pytest.raises(ServiceError) as excinfo:
            traced.distill("", "", "")  # invalid input -> 400
        assert excinfo.value.status == 400
        assert excinfo.value.trace_id == "cafebabecafebabe"


# ----------------------------------------------------------- client faults


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Scripted responses for client error-path tests."""

    behaviors: list[str] = []
    calls = 0
    ports: list[int] = []  # client port of each call

    def _respond(self):
        cls = type(self)
        behavior = cls.behaviors[min(cls.calls, len(cls.behaviors) - 1)]
        cls.calls += 1
        cls.ports.append(self.client_address[1])
        if behavior == "ok":
            body = json.dumps({"ok": True}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif behavior == "shed":
            body = json.dumps(
                {"error": "shed", "retry_after_seconds": 0.01}
            ).encode()
            self.send_response(429)
            self.send_header("Retry-After", "1")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif behavior == "garbage":
            body = b'{"truncated": '
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif behavior == "stall":
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"partial": ')  # then never finish
            time.sleep(2.0)
        elif behavior == "drop":
            self.close_connection = True  # hang up without a response

    do_GET = _respond
    do_POST = _respond

    def log_message(self, format, *args):
        pass


@pytest.fixture
def stub_server():
    """A scripted HTTP server; yields a factory binding behaviors to a URL."""
    servers = []

    def make(behaviors, protocol_version="HTTP/1.0"):
        handler = type(
            "Handler",
            (_StubHandler,),
            {
                "behaviors": behaviors,
                "calls": 0,
                "ports": [],
                "protocol_version": protocol_version,
            },
        )
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        host, port = server.server_address[:2]
        return f"http://{host}:{port}", handler

    yield make
    for server in servers:
        server.shutdown()
        server.server_close()


class TestClientErrorPaths:
    def test_connection_refused_is_status_zero(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=1)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert "transport error" in excinfo.value.payload["error"]

    def test_malformed_json_body_is_status_zero(self, stub_server):
        url, _handler = stub_server(["garbage"])
        client = ServiceClient(url, timeout=5)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert "malformed response body" in excinfo.value.payload["error"]

    def test_socket_timeout_mid_body_is_status_zero(self, stub_server):
        url, _handler = stub_server(["stall"])
        client = ServiceClient(url, timeout=0.3)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert "transport error" in excinfo.value.payload["error"]

    def test_retry_policy_recovers_from_shed(self, stub_server):
        url, handler = stub_server(["shed", "shed", "ok"])
        sleeps: list[float] = []
        policy = RetryPolicy(retries=3, base_delay_s=0.001, max_delay_s=0.05)
        client = ServiceClient(
            url,
            timeout=5,
            client_id="tester",
            retry=policy,
            sleep=sleeps.append,
        )
        assert client.healthz() == {"ok": True}
        assert handler.calls == 3
        # The schedule is deterministic: body's precise retry_after_seconds
        # (0.01) beats the computed base both times, capped by max_delay_s.
        assert sleeps == [
            policy.delay(0, client_id="tester", retry_after=0.01),
            policy.delay(1, client_id="tester", retry_after=0.01),
        ]

    def test_no_retry_without_a_policy(self, stub_server):
        url, handler = stub_server(["shed", "ok"])
        client = ServiceClient(url, timeout=5)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 0.01  # precise body value
        assert handler.calls == 1

    def test_retries_exhausted_reraises(self, stub_server):
        url, handler = stub_server(["shed"])
        sleeps: list[float] = []
        client = ServiceClient(
            url,
            timeout=5,
            retry=RetryPolicy(retries=2, base_delay_s=0.001),
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 429
        assert handler.calls == 3  # 1 + 2 retries
        assert len(sleeps) == 2


class TestClientKeepAlive:
    """The client's per-thread keep-alive connection against an HTTP/1.1
    stub (the HTTP/1.0 stub above closes after every response)."""

    def test_sequential_calls_share_one_connection(self, stub_server):
        url, handler = stub_server(["ok"], protocol_version="HTTP/1.1")
        client = ServiceClient(url, timeout=5)
        for _ in range(4):
            assert client.healthz() == {"ok": True}
        client.close()
        assert len(handler.ports) == 4 and len(set(handler.ports)) == 1

    def test_next_call_succeeds_after_a_stall_times_out(self, stub_server):
        url, handler = stub_server(
            ["stall", "ok", "ok"], protocol_version="HTTP/1.1"
        )
        client = ServiceClient(url, timeout=0.3)
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert client.healthz() == {"ok": True}
        assert client.healthz() == {"ok": True}
        client.close()
        # The stalled connection was dropped; the next two share a new one.
        assert handler.ports[0] != handler.ports[1] == handler.ports[2]

    def test_hang_up_is_never_resent_silently(self, stub_server):
        url, handler = stub_server(
            ["ok", "drop", "ok"], protocol_version="HTTP/1.1"
        )
        client = ServiceClient(url, timeout=5)
        assert client.healthz() == {"ok": True}
        with pytest.raises(ServiceError) as excinfo:
            client.ingest(["not idempotent"])
        assert excinfo.value.status == 0
        assert handler.calls == 2  # the dropped request went out once
        assert client.healthz() == {"ok": True}
        client.close()
        assert handler.ports[0] == handler.ports[1] != handler.ports[2]


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy()
        assert policy.delay(0, client_id="a") == policy.delay(0, client_id="a")
        assert policy.delay(0, client_id="a") != policy.delay(0, client_id="b")
        base = policy.base_delay_s
        assert base <= policy.delay(0, client_id="a") <= base * 1.25

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            retries=8, base_delay_s=0.1, max_delay_s=0.5, backoff=2.0
        )
        delays = [policy.delay(i) for i in range(6)]
        assert delays == sorted(delays)
        assert all(d <= policy.max_delay_s for d in delays)

    def test_retry_after_hint_raises_the_delay(self):
        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=2.0)
        assert policy.delay(0, retry_after=1.5) == 1.5
        # ... but never past the cap.
        assert policy.delay(0, retry_after=10.0) == 2.0

    def test_should_retry_classification(self):
        policy = RetryPolicy()
        assert policy.should_retry(ServiceError(429, {}))
        assert policy.should_retry(ServiceError(503, {}))
        assert policy.should_retry(ServiceError(0, {}))
        assert not policy.should_retry(ServiceError(400, {}))
        assert not policy.should_retry(ServiceError(500, {}))
        strict = RetryPolicy(retry_transport=False)
        assert not strict.should_retry(ServiceError(0, {}))
