"""Serving layer: micro-batching scheduler, DistillService, HTTP server.

Scheduler unit tests run against a stub distiller so flush policy,
ordering, and error isolation are observable without pipeline noise; the
equivalence and HTTP tests run the real pipeline from the shared
conftest artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import GCED
from repro.core.batch import BatchDistiller
from repro.core.open_context import build_outcome
from repro.core.serialize import result_to_dict
from repro.retrieval import CorpusRetriever
from repro.service import (
    AdmissionController,
    DistillService,
    MicroBatchScheduler,
    QueueFullError,
    RateLimitedError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    TokenBucket,
    decode_cursor,
    encode_cursor,
    start_server,
)
from tests.conftest import CORPUS, QA_CASES

POISON = "__poison__"


class StubDistiller:
    """Distiller double: records batches, fails on poisoned contexts."""

    def __init__(self, batch_delay: float = 0.0) -> None:
        self.batches: list[list[tuple[str, str, str]]] = []
        self.batch_delay = batch_delay
        self._lock = threading.Lock()

    def _one(self, triple):
        if triple[2] == POISON:
            raise ValueError(f"poisoned triple {triple[0]!r}")
        return ("evidence-for",) + triple

    def distill_many(self, triples):
        with self._lock:
            self.batches.append(list(triples))
        if self.batch_delay:
            time.sleep(self.batch_delay)
        return [self._one(t) for t in triples]

    def distill_one(self, question, answer, context):
        return self._one((question, answer, context))


class TestMicroBatchScheduler:
    def test_flush_on_max_batch(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=3, max_wait_ms=10_000
        ) as sched:
            requests = [sched.submit(f"q{i}", "a", f"c{i}") for i in range(3)]
            results = [r.result(timeout=5) for r in requests]
        assert results == [("evidence-for", f"q{i}", "a", f"c{i}") for i in range(3)]
        stats = sched.stats()
        assert stats.batches == 1
        assert stats.size_flushes == 1
        assert stats.timeout_flushes == 0
        assert sched.batch_sizes == [3]

    def test_flush_on_timeout(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=8, max_wait_ms=40
        ) as sched:
            requests = sched.submit_many(
                [("q0", "a", "c0"), ("q1", "a", "c1")]
            )
            for request in requests:
                request.result(timeout=5)
            stats = sched.stats()
        # The batch never filled; only the max-wait deadline flushed it.
        assert stats.batches == 1
        assert stats.timeout_flushes == 1
        assert stats.size_flushes == 0
        assert sched.batch_sizes == [2]

    def test_immediate_flush_when_wait_zero(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=8, max_wait_ms=0
        ) as sched:
            assert sched.distill("q", "a", "c", timeout=5) == (
                "evidence-for",
                "q",
                "a",
                "c",
            )

    def test_fifo_ordering_and_batch_cap(self):
        stub = StubDistiller(batch_delay=0.03)
        with MicroBatchScheduler(
            stub, max_batch_size=2, max_wait_ms=1
        ) as sched:
            triples = [(f"q{i}", "a", f"c{i}") for i in range(7)]
            requests = sched.submit_many(triples)
            results = [r.result(timeout=10) for r in requests]
        # Each request got its own (not a batch-mate's) result.
        assert results == [("evidence-for",) + t for t in triples]
        # No batch exceeded the cap, and the flush sequence preserved
        # arrival order (FIFO fairness: nothing jumped the queue).
        assert all(len(batch) <= 2 for batch in stub.batches)
        flattened = [t for batch in stub.batches for t in batch]
        assert flattened == triples

    def test_error_isolation_within_batch(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=3, max_wait_ms=10_000
        ) as sched:
            good1, poisoned, good2 = sched.submit_many(
                [("q0", "a", "c0"), ("q1", "a", POISON), ("q2", "a", "c2")]
            )
            assert good1.result(timeout=5)[1] == "q0"
            assert good2.result(timeout=5)[1] == "q2"
            with pytest.raises(ValueError, match="poisoned"):
                poisoned.result(timeout=5)
            stats = sched.stats()
        assert stats.completed == 2
        assert stats.failed == 1

    def test_close_drains_pending_queue(self):
        stub = StubDistiller()
        sched = MicroBatchScheduler(stub, max_batch_size=64, max_wait_ms=60_000)
        requests = sched.submit_many([(f"q{i}", "a", "c") for i in range(5)])
        sched.close()
        # Despite the 60s max-wait, close() flushed everything queued.
        assert [r.result(timeout=1)[1] for r in requests] == [
            f"q{i}" for i in range(5)
        ]
        with pytest.raises(RuntimeError, match="closed"):
            sched.submit("q", "a", "c")

    def test_rejects_bad_policy(self):
        stub = StubDistiller()
        with pytest.raises(ValueError):
            MicroBatchScheduler(stub, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(stub, max_wait_ms=-1)


def _wait_for_first_batch(stub: StubDistiller, timeout: float = 5.0) -> None:
    """Block until the flusher has picked up (and is executing) a batch."""
    deadline = time.monotonic() + timeout
    while not stub.batches:
        if time.monotonic() > deadline:
            raise AssertionError("flusher never picked up the first batch")
        time.sleep(0.005)


class TestCoalescing:
    def test_identical_queued_submits_attach_to_one_computation(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=2, max_wait_ms=10_000
        ) as sched:
            dupes = [sched.submit("q", "a", "c") for _ in range(5)]
            assert [r.coalesced for r in dupes] == [False] + [True] * 4
            other = sched.submit("q2", "a", "c2")  # fills the batch
            results = [r.result(timeout=5) for r in dupes]
            assert other.result(timeout=5)[1] == "q2"
            stats = sched.stats()
        assert results == [("evidence-for", "q", "a", "c")] * 5
        # The engine saw the triple once: coalescing, not N-way duplication.
        assert stub.batches == [[("q", "a", "c"), ("q2", "a", "c2")]]
        assert stats.submitted == 6
        assert stats.coalesced == 4
        assert stats.coalesce_hit_rate == pytest.approx(4 / 6)
        # Requests (coalesced included) vs engine-side queue slots.
        assert stats.completed == 6
        assert stats.flushed == 2
        assert stats.mean_batch_size == pytest.approx(2.0)

    def test_identical_submit_attaches_while_batch_is_executing(self):
        stub = StubDistiller(batch_delay=0.5)
        with MicroBatchScheduler(
            stub, max_batch_size=1, max_wait_ms=0
        ) as sched:
            first = sched.submit("q", "a", "c")
            _wait_for_first_batch(stub)
            # The triple is mid-flight (flusher sleeping in distill_many);
            # an identical submit must attach, not recompute.
            second = sched.submit("q", "a", "c")
            assert second.coalesced
            assert first.result(timeout=5) == second.result(timeout=5)
        assert len(stub.batches) == 1

    def test_concurrent_identical_requests_one_engine_invocation(
        self, artifacts
    ):
        direct = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        question, answer, context = QA_CASES[5]
        expected = json.dumps(
            result_to_dict(
                direct.distill(question, answer, context), question, answer
            ),
            sort_keys=True,
        )
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with DistillService(
            gced,
            config=ServiceConfig(max_batch_size=64, max_wait_ms=200),
        ) as service:
            requests = [
                service.submit(question, answer, context) for _ in range(8)
            ]
            payloads = [
                json.dumps(
                    result_to_dict(r.result(timeout=60), question, answer),
                    sort_keys=True,
                )
                for r in requests
            ]
            sched_stats = service.scheduler.stats()
            batch_stats = service.distiller.stats()
        # N identical concurrent requests -> exactly one engine
        # invocation, byte-identical to the serial single-shot result.
        assert payloads == [expected] * 8
        assert batch_stats.n_distilled == 1
        assert batch_stats.n_cache_hits == 0
        assert sched_stats.coalesced == 7
        assert sched_stats.flushed == 1


class TestLoadShedding:
    def test_submit_sheds_past_max_queue_depth(self):
        stub = StubDistiller(batch_delay=1.0)
        sched = MicroBatchScheduler(
            stub, max_batch_size=1, max_wait_ms=0, max_queue_depth=2
        )
        try:
            first = sched.submit("q0", "a", "c0")
            _wait_for_first_batch(stub)
            # Flusher is busy with q0; these two fill the bounded queue.
            sched.submit("q1", "a", "c1")
            sched.submit("q2", "a", "c2")
            with pytest.raises(QueueFullError) as excinfo:
                sched.submit("q3", "a", "c3")
            assert excinfo.value.retry_after > 0
            # A triple identical to in-flight work still coalesces — it
            # takes no queue slot, so a full queue does not shed it.
            dup = sched.submit("q0", "a", "c0")
            assert dup.coalesced
            # submit_many admission is all-or-nothing.
            with pytest.raises(QueueFullError):
                sched.submit_many([("q4", "a", "c4"), ("q5", "a", "c5")])
            stats = sched.stats()
            assert stats.shed == 3
            assert stats.queue_depth == 2
            assert first.result(timeout=10)[1] == "q0"
            assert dup.result(timeout=10)[1] == "q0"
        finally:
            sched.close(drain=False)

    def test_retry_after_hint_scales_with_backlog(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=4, max_wait_ms=10_000, max_queue_depth=0
        ) as sched:
            # No flushes observed yet: the hint falls back to the flush
            # policy rather than claiming zero wait.
            assert sched.retry_after_hint() > 0


class TestAdmissionControl:
    def test_token_bucket_debits_and_reports_exact_wait(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.try_acquire(5.0, now=0.0) == 0.0  # starts full
        assert bucket.try_acquire(1.0, now=0.0) == pytest.approx(0.1)
        # Refill at 10/s: 0.1s later exactly one token is back.
        assert bucket.try_acquire(1.0, now=0.1) == 0.0
        # Refill never exceeds the burst ceiling.
        assert bucket.try_acquire(6.0, now=100.0) == pytest.approx(0.1)

    def test_controller_disabled_by_default(self):
        ctrl = AdmissionController()
        assert not ctrl.enabled
        for _ in range(1000):
            ctrl.admit("anyone", cost=100.0)  # never sheds
        assert ctrl.stats()["rate_limited"] == 0

    def test_rate_limits_per_client_with_retry_hint(self):
        ctrl = AdmissionController(rate=1.0, burst=2.0)
        ctrl.admit("alice", cost=2.0)
        with pytest.raises(RateLimitedError) as excinfo:
            ctrl.admit("alice", cost=2.0)
        assert 0 < excinfo.value.retry_after <= 2.0
        # Distinct clients draw from independent buckets.
        ctrl.admit("bob", cost=2.0)
        # Anonymous requests share one default bucket.
        ctrl.admit(None, cost=2.0)
        with pytest.raises(RateLimitedError):
            ctrl.admit(None, cost=1.0)
        stats = ctrl.stats()
        assert stats["enabled"] is True
        assert stats["admitted"] == 3
        assert stats["rate_limited"] == 2
        assert stats["clients"] == 3

    def test_client_table_is_lru_bounded(self):
        ctrl = AdmissionController(rate=1.0, burst=1.0, max_clients=2)
        ctrl.admit("a")
        ctrl.admit("b")
        ctrl.admit("c")  # evicts "a"
        assert ctrl.stats()["clients"] == 2
        ctrl.admit("a")  # re-admitted with a fresh (full) bucket
        with pytest.raises(RateLimitedError):
            ctrl.admit("c")  # still tracked: bucket empty


class TestShutdownEdges:
    def test_close_without_drain_fails_queued_requests_promptly(self):
        stub = StubDistiller(batch_delay=0.5)
        sched = MicroBatchScheduler(stub, max_batch_size=1, max_wait_ms=0)
        first = sched.submit("q0", "a", "c0")
        _wait_for_first_batch(stub)
        queued = [sched.submit(f"q{i}", "a", f"c{i}") for i in (1, 2, 3)]
        attached = sched.submit("q1", "a", "c1")
        assert attached.coalesced
        started = time.monotonic()
        sched.close(timeout=10, drain=False)
        # No hang: close did not wait out the 3 x 0.5s backlog.
        assert time.monotonic() - started < 5
        for request in [*queued, attached]:
            with pytest.raises(RuntimeError, match="closed before"):
                request.result(timeout=1)
        # The batch already executing still completed.
        assert first.result(timeout=5)[1] == "q0"
        stats = sched.stats()
        assert stats.failed == 4
        assert stats.queue_depth == 0

    def test_submit_after_close_raises(self):
        sched = MicroBatchScheduler(StubDistiller(), max_wait_ms=1)
        sched.close()
        with pytest.raises(RuntimeError, match="closed"):
            sched.submit("q", "a", "c")
        with pytest.raises(RuntimeError, match="closed"):
            sched.submit_many([("q", "a", "c")])
        sched.close()  # idempotent

    def test_coalesced_requests_share_failure_batchmates_unaffected(self):
        stub = StubDistiller()
        with MicroBatchScheduler(
            stub, max_batch_size=2, max_wait_ms=10_000
        ) as sched:
            poisoned = sched.submit("qp", "a", POISON)
            attached = sched.submit("qp", "a", POISON)
            assert attached.coalesced
            good = sched.submit("qg", "a", "cg")  # fills the batch
            assert good.result(timeout=5)[1] == "qg"
            # Both holders of the shared computation see the same error;
            # the batch-mate is untouched (per-request isolation).
            for request in (poisoned, attached):
                with pytest.raises(ValueError, match="poisoned"):
                    request.result(timeout=5)
            stats = sched.stats()
        assert stats.completed == 1
        assert stats.failed == 2


class TestCursor:
    def test_round_trip(self):
        cursor = encode_cursor("who?", "them", 5, 10, 3)
        assert decode_cursor(cursor) == {
            "question": "who?",
            "answer": "them",
            "k": 5,
            "offset": 10,
            "page_size": 3,
        }

    def test_rejects_garbage_and_tampering(self):
        import base64

        with pytest.raises(ValueError, match="malformed"):
            decode_cursor("!!not-base64!!")
        with pytest.raises(ValueError, match="malformed"):
            decode_cursor(
                base64.urlsafe_b64encode(b'"a-string"').decode("ascii")
            )
        for payload in (
            b'{"v":99,"q":"q","a":"a","k":1,"o":0,"s":1}',  # bad version
            b'{"v":1,"q":7,"a":"a","k":1,"o":0,"s":1}',  # non-string q
            b'{"v":1,"q":"q","a":"a","k":true,"o":0,"s":1}',  # bool k
            b'{"v":1,"q":"q","a":"a","k":1,"o":-2,"s":1}',  # negative offset
            b'{"v":1,"q":"q","a":"a","k":0,"o":0,"s":1}',  # k < 1
        ):
            tampered = base64.urlsafe_b64encode(payload).decode("ascii")
            with pytest.raises(ValueError, match="malformed"):
                decode_cursor(tampered)


class TestServedEquivalence:
    def test_served_results_byte_identical_to_single_shot(self, artifacts):
        direct_gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        direct = {
            case[0]: json.dumps(
                result_to_dict(direct_gced.distill(*case), case[0], case[1]),
                sort_keys=True,
            )
            for case in QA_CASES
        }
        served_gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with DistillService(
            served_gced,
            config=ServiceConfig(max_batch_size=4, max_wait_ms=10),
        ) as service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                served = list(
                    pool.map(lambda c: (c, service.distill(*c)), QA_CASES)
                )
        for case, result in served:
            payload = json.dumps(
                result_to_dict(result, case[0], case[1]), sort_keys=True
            )
            assert payload == direct[case[0]]

    def test_distill_batch_isolates_poisoned_triple(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with DistillService(
            gced,
            config=ServiceConfig(max_batch_size=4, max_wait_ms=5),
        ) as service:
            outcomes = service.distill_batch(
                [QA_CASES[0], ("q", "a", "   "), QA_CASES[1]]
            )
        assert outcomes[0].evidence
        assert isinstance(outcomes[1], ValueError)
        assert outcomes[2].evidence

    def test_batch_distiller_counters_consistent_under_concurrent_flushes(
        self, artifacts
    ):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        distiller = BatchDistiller(gced)
        n_threads, rounds = 4, 3

        def hammer(_seed: int) -> int:
            total = 0
            for _ in range(rounds):
                results = distiller.distill_many(QA_CASES)
                assert all(r is not None for r in results)
                total += len(QA_CASES)
            return total

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            submitted = sum(pool.map(hammer, range(n_threads)))
        stats = distiller.stats()
        # Every request was either distilled-and-recorded or a memo hit;
        # under racy counters this bookkeeping identity is what breaks.
        assert stats.n_distilled + stats.n_cache_hits == submitted
        assert stats.n_distilled >= len(QA_CASES)


class TestServiceConfig:
    """``ServiceConfig`` is the one spelling of every serving knob."""

    @staticmethod
    def _recorded_ask_k(service) -> int:
        seen = []

        def retrieve_for_qa(question, answer, k):
            seen.append(k)
            return []

        service.retriever.retrieve_for_qa = retrieve_for_qa
        service.ask("Who won?", "the Rams")
        return seen[0]

    def test_every_serving_value_comes_from_config(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        config = ServiceConfig(
            workers=2, backend="process", cache_size=7, top_k=5
        )
        with DistillService(
            gced, config=config, retriever=CorpusRetriever.build(CORPUS)
        ) as service:
            assert service.distiller.executor.workers == 2
            assert service.distiller._results.capacity == 7
            assert self._recorded_ask_k(service) == 5
            assert service.stats()["service"]["config"] == config.to_dict()

    def test_default_config_keeps_honest_dataset_labels(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with DistillService(gced) as service:
            config = service.stats()["service"]["config"]
        assert config["dataset"] == "custom" and config["seed"] == -1
        assert config["n_train"] == config["n_dev"] == 0
        assert config["cache_size"] == ServiceConfig().cache_size

    def test_from_corpus_forwards_fields_to_config(self):
        with DistillService.from_corpus(CORPUS, top_k=5) as service:
            stats = service.stats()["service"]
            assert stats["config"]["top_k"] == 5
            assert stats["retrieval"]["top_k"] == 5
            assert self._recorded_ask_k(service) == 5

    def test_from_corpus_rejects_unknown_field_by_name(self):
        with pytest.raises(TypeError, match="retrieval_width"):
            DistillService.from_corpus(CORPUS, retrieval_width=2)

    def test_serve_flags_mirror_config_fields(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        serve = subparsers.choices["serve"]
        fields = {knob.name: knob for knob in dataclasses.fields(ServiceConfig)}
        process_flags = {"help", "host", "port", "log_level", "self_test"}
        config_flags = [
            action
            for action in serve._actions
            if action.dest not in process_flags
        ]
        assert sorted(action.dest for action in config_flags) == sorted(fields)
        for action in config_flags:
            knob = fields[action.dest]
            assert action.option_strings == [
                "--" + knob.name.replace("_", "-")
            ]
            assert action.default == knob.default
        args = parser.parse_args(["serve"])
        assert ServiceConfig(
            **{name: getattr(args, name) for name in fields}
        ) == ServiceConfig()


@pytest.fixture(scope="module")
def served(artifacts):
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    service = DistillService(
        gced,
        config=ServiceConfig(max_batch_size=4, max_wait_ms=10),
        retriever=CorpusRetriever.build(CORPUS, n_shards=2),
    )
    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield service, client
    server.shutdown()
    server.server_close()
    service.close()


class TestHTTPServer:
    def test_healthz(self, served):
        _service, client = served
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_distill_round_trip(self, served, artifacts):
        service, client = served
        question, answer, context = QA_CASES[0]
        payload = client.distill(question, answer, context)
        direct = GCED(
            qa_model=artifacts.reader, artifacts=artifacts
        ).distill(question, answer, context)
        assert payload["evidence"] == direct.evidence
        assert payload["question"] == question
        assert payload["scores"]["hybrid"] == pytest.approx(
            direct.scores.hybrid
        )

    def test_concurrent_distills_all_answered(self, served):
        _service, client = served
        cases = [QA_CASES[i % len(QA_CASES)] for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            payloads = list(pool.map(lambda c: client.distill(*c), cases))
        assert len(payloads) == 8
        for (question, _answer, _context), payload in zip(cases, payloads):
            assert payload["question"] == question

    def test_batch_endpoint_isolates_errors(self, served):
        _service, client = served
        question, answer, context = QA_CASES[2]
        payload = client.distill_batch(
            [
                {"question": question, "answer": answer, "context": context},
                {"question": "poisoned", "answer": "x", "context": "  "},
            ]
        )
        assert payload["errors"] == 1
        assert payload["results"][0]["evidence"]
        assert "error" in payload["results"][1]

    def test_stats_reports_timings_queue_and_cache_rates(self, served):
        service, client = served
        client.distill(*QA_CASES[3])
        stats = client.stats()
        assert stats["service"]["config"]["max_batch_size"] == 4
        assert stats["scheduler"]["completed"] >= 1
        assert "queue_depth" in stats["scheduler"]
        assert stats["batch"]["n_distilled"] >= 1
        assert stats["stages"], "per-stage timings missing"
        for timing in stats["stages"].values():
            assert timing["calls"] >= 1
            assert timing["seconds"] >= 0
        assert "results" in stats["caches"]
        for cache in stats["caches"].values():
            assert 0.0 <= cache["hit_rate"] <= 1.0
        # The in-process view and the HTTP view agree on request counts.
        assert service.stats()["scheduler"]["submitted"] >= stats[
            "scheduler"
        ]["submitted"]

    def test_stats_concurrent_with_distills_never_errors(self, served):
        # Regression: /stats snapshots the live pipeline profile while
        # the flusher mutates it; merge() must not iterate live dicts.
        _service, client = served
        cases = [QA_CASES[i % len(QA_CASES)] for i in range(12)]
        with ThreadPoolExecutor(max_workers=6) as pool:
            distills = [pool.submit(client.distill, *case) for case in cases]
            stats_calls = [pool.submit(client.stats) for _ in range(12)]
            for future in distills + stats_calls:
                future.result(timeout=60)

    def test_rejects_empty_context_with_400(self, served):
        _service, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.distill("q", "a", "   ")
        assert excinfo.value.status == 400

    def test_rejects_missing_fields_with_400(self, served):
        _service, client = served
        with pytest.raises(ServiceError) as excinfo:
            client._request("/distill", {"question": "q"})
        assert excinfo.value.status == 400
        assert "answer" in str(excinfo.value)

    def test_unknown_path_404(self, served):
        _service, client = served
        with pytest.raises(ServiceError) as excinfo:
            client._request("/nope")
        assert excinfo.value.status == 404

    def test_invalid_json_body_400(self, served):
        _service, client = served
        request = urllib.request.Request(
            f"{client.base_url}/distill",
            data=b"not-json{",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_wrong_method_on_known_path_405_with_allow(self, served):
        _service, client = served
        # GET on a POST-only route.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                urllib.request.Request(f"{client.base_url}/distill"), timeout=10
            )
        assert excinfo.value.code == 405
        assert excinfo.value.headers.get("Allow") == "POST"
        # POST on a GET-only route.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                urllib.request.Request(
                    f"{client.base_url}/healthz",
                    data=b"{}",
                    headers={"Content-Type": "application/json"},
                ),
                timeout=10,
            )
        assert excinfo.value.code == 405
        assert excinfo.value.headers.get("Allow") == "GET"


class TestAskEndpoint:
    def test_served_ask_matches_inline_open_context(self, served):
        service, client = served
        question, answer, _context = QA_CASES[2]
        served_payload = client.ask(question, answer, k=3)
        hits = service.retriever.retrieve_for_qa(question, answer, k=3)
        direct = build_outcome(
            question,
            answer,
            hits,
            [
                service.gced.distill(question, answer, hit.text)
                for hit in hits
            ],
        ).to_dict()
        assert json.dumps(served_payload, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_ask_ranks_gold_paragraph_first(self, served):
        _service, client = served
        question, answer, context = QA_CASES[0]
        payload = client.ask(question, answer, k=3)
        assert payload["best_evidence"]
        assert payload["candidates"][0]["retrieval"]["doc_id"] == CORPUS.index(
            context
        )
        assert payload["errors"] == 0

    def test_ask_rejects_missing_fields_and_bad_k(self, served):
        _service, client = served
        with pytest.raises(ServiceError) as excinfo:
            client._request("/ask", {"question": "q"})
        assert excinfo.value.status == 400
        assert "answer" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client._request("/ask", {"question": "q", "answer": "a", "k": 0})
        assert excinfo.value.status == 400
        assert "'k'" in str(excinfo.value)

    def test_ask_without_retriever_raises_inline(self, artifacts):
        gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
        with DistillService(
            gced,
            config=ServiceConfig(max_wait_ms=1),
        ) as service:
            with pytest.raises(RuntimeError, match="no retriever"):
                service.ask("q", "a")

    def test_stats_reports_retrieval_block(self, served):
        _service, client = served
        retrieval = client.stats()["service"]["retrieval"]
        assert retrieval["docs"] == len(CORPUS)
        assert retrieval["shards"] == 2
        assert retrieval["scorer"] == "bm25"

    def test_stats_reports_admission_and_shed_counters(self, served):
        _service, client = served
        stats = client.stats()
        admission = stats["admission"]
        assert admission["enabled"] is False  # served fixture: no limits
        assert {"rate_per_sec", "burst", "clients", "admitted"} <= set(
            admission
        )
        scheduler = stats["scheduler"]
        for key in ("coalesced", "coalesce_hit_rate", "shed", "ewma_batch_ms"):
            assert key in scheduler


class TestPagedAsk:
    def test_pages_concatenate_to_fat_response(self, served):
        _service, client = served
        question, answer, _context = QA_CASES[1]
        fat = client.ask(question, answer, k=3)
        n = len(fat["candidates"])
        assert n >= 2, "corpus too small for a meaningful paging test"
        pages = list(client.ask_pages(question, answer, k=3, page_size=1))
        assert len(pages) == n
        stitched = [c for page in pages for c in page["candidates"]]
        assert json.dumps(stitched, sort_keys=True) == json.dumps(
            fat["candidates"], sort_keys=True
        )
        for page in pages:
            # Summary fields ride on every page, slice-independent.
            assert page["best_evidence"] == fat["best_evidence"]
            assert page["retrieved"] == fat["retrieved"]
            assert page["errors"] == fat["errors"]
        assert all(page["next_cursor"] for page in pages[:-1])
        assert pages[-1]["next_cursor"] is None
        assert pages[0]["page"] == {"offset": 0, "size": 1, "returned": 1}

    def test_fresh_paged_request_and_manual_cursor_follow(self, served):
        _service, client = served
        question, answer, _context = QA_CASES[2]
        first = client.ask(question, answer, k=2, page_size=1)
        assert first["page"]["offset"] == 0
        assert len(first["candidates"]) == 1
        assert first["next_cursor"]
        second = client.ask(cursor=first["next_cursor"])
        assert second["page"]["offset"] == 1
        assert second["candidates"][0] != first["candidates"][0]

    def test_page_size_override_on_cursor(self, served):
        _service, client = served
        question, answer, _context = QA_CASES[0]
        first = client.ask(question, answer, k=3, page_size=1)
        assert first["next_cursor"]
        rest = client.ask(cursor=first["next_cursor"], page_size=2)
        assert rest["page"]["size"] == 2

    def test_offset_past_end_yields_empty_page(self, served):
        _service, client = served
        question, answer, _context = QA_CASES[0]
        cursor = encode_cursor(question, answer, 2, 99, 2)
        page = client.ask(cursor=cursor)
        assert page["candidates"] == []
        assert page["page"]["returned"] == 0
        assert page["next_cursor"] is None

    def test_invalid_cursor_and_page_size_rejected_400(self, served):
        _service, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.ask(cursor="garbage-not-a-cursor")
        assert excinfo.value.status == 400
        assert "cursor" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client._request("/ask", {"cursor": 7})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "/ask", {"question": "q", "answer": "a", "page_size": 0}
            )
        assert excinfo.value.status == 400
        assert "page_size" in str(excinfo.value)


@pytest.fixture(scope="module")
def limited(artifacts):
    """A served service with aggressive per-client rate limiting.

    rate=0.01/s makes mid-test refill negligible; burst=2 admits exactly
    two unit-cost requests per client before shedding.
    """
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    service = DistillService(
        gced,
        config=ServiceConfig(
            max_batch_size=4,
            max_wait_ms=5,
            client_rate=0.01,
            client_burst=2.0,
        ),
        retriever=CorpusRetriever.build(CORPUS, n_shards=2),
    )
    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close()


class TestRateLimitingHTTP:
    def test_429_with_retry_after_per_client(self, limited):
        service, base_url = limited
        question, answer, context = QA_CASES[0]
        alice = ServiceClient(base_url, client_id="alice")
        alice.distill(question, answer, context)
        alice.distill(question, answer, context)  # burst spent
        with pytest.raises(ServiceError) as excinfo:
            alice.distill(question, answer, context)
        error = excinfo.value
        assert error.status == 429
        assert error.retry_after is not None and error.retry_after > 0
        assert error.payload["retry_after_seconds"] == pytest.approx(
            error.retry_after
        )
        # A distinct client id draws from its own (full) bucket.
        bob = ServiceClient(base_url, client_id="bob")
        assert bob.distill(question, answer, context)["evidence"]
        assert service.stats()["admission"]["rate_limited"] >= 1

    def test_retry_after_header_is_whole_seconds(self, limited):
        _service, base_url = limited
        question, answer, context = QA_CASES[0]
        body = json.dumps(
            {"question": question, "answer": answer, "context": context}
        ).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "X-Client-Id": "carol",
        }

        def post():
            request = urllib.request.Request(
                f"{base_url}/distill", data=body, headers=headers
            )
            return urllib.request.urlopen(request, timeout=30)

        post()
        post()  # burst spent
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post()
        assert excinfo.value.code == 429
        header = excinfo.value.headers.get("Retry-After")
        assert header is not None and header.isdigit()
        assert int(header) >= 1

    def test_anonymous_requests_share_default_bucket(self, limited):
        _service, base_url = limited
        question, answer, context = QA_CASES[1]
        anon_a = ServiceClient(base_url)
        anon_b = ServiceClient(base_url)
        anon_a.distill(question, answer, context)
        anon_a.distill(question, answer, context)
        # A different *connection* without an id is still the same bucket.
        with pytest.raises(ServiceError) as excinfo:
            anon_b.distill(question, answer, context)
        assert excinfo.value.status == 429

    def test_ask_charged_k_tokens(self, limited):
        _service, base_url = limited
        question, answer, _context = QA_CASES[2]
        dave = ServiceClient(base_url, client_id="dave")
        with pytest.raises(ServiceError) as excinfo:
            dave.ask(question, answer, k=3)  # cost 3 > burst 2
        assert excinfo.value.status == 429
        # k=2 fits the burst exactly.
        assert "candidates" in dave.ask(question, answer, k=2)
