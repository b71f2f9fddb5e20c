"""Service behaviour past capacity — coalescing and load shedding.

Two phases against the real HTTP serving stack, configured with a small
admission queue so saturation is reachable on a laptop:

1. **Coalesce** — rounds of identical concurrent requests for a triple
   the service has never seen, released together through a barrier.  The
   engine must be invoked exactly once per round (coalescing for the
   concurrent copies, the content-keyed memo for stragglers), proven by
   the distiller's ``n_distilled`` delta.
2. **Saturation** — open-loop traffic: one thread per request, each
   firing at its scheduled instant regardless of completions, with the
   inter-arrival gap pinned well below the measured per-request service
   time.  The bounded queue must shed the overflow as ``429`` responses
   that all carry ``Retry-After``, while admitted requests keep a
   bounded p95 (the queue, not the client, absorbs the overload).

Metrics land in ``benchmarks/results/service_saturation.{txt,json}``;
``service.shed_rate`` and ``service.coalesce_hit_rate`` are gated by
CI's perf gate (``benchmarks/perf_gate.py``), and the saturated p50/p95
ride along as context (service latency percentiles stay context-only —
absolute wall-clock under a thread storm varies too much across runner
hardware to gate).
"""

from __future__ import annotations

import threading
import time

from benchmarks.common import N_DEV, N_TRAIN, SEED, emit, emit_json, sample_size

MAX_QUEUE_DEPTH = 8
MAX_BATCH_SIZE = 4
# High enough that a barrier-released burst is still queued (coalescing
# window), low enough that saturation-phase batches flush promptly.
MAX_WAIT_MS = 25.0

COALESCE_ROUNDS = sample_size("BENCH_COALESCE_ROUNDS", 3)
COALESCE_CLIENTS = 8
SATURATION_REQUESTS = sample_size("BENCH_SATURATION_REQUESTS", 96)
# Open-loop arrival rate = this multiple of the measured *serial*
# capacity.  Micro-batching raises effective capacity well past serial,
# so this must sit far beyond the knee for a stable shed rate.
OVERLOAD_FACTOR = 8.0


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _probe_triples(examples, count: int, tag: str):
    """``count`` unique triples the service has never distilled.

    A nonce in the question makes each triple content-distinct (no memo
    hits, full engine work) while the context stays a real paragraph.
    """
    triples = []
    for i in range(count):
        example = examples[i % len(examples)]
        triples.append(
            (
                f"{example.question} [{tag} {i}]",
                example.primary_answer,
                example.context,
            )
        )
    return triples


def _run_coalesce_phase(service, client, triples) -> dict:
    """Barrier-released identical bursts: one engine invocation each."""
    from repro.service import ServiceError

    before = client.stats()["scheduler"]
    invocations = []
    for triple in triples:
        distilled_before = service.distiller.stats().n_distilled
        barrier = threading.Barrier(COALESCE_CLIENTS)
        payloads: list[dict] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def one():
            barrier.wait()
            try:
                payload = client.distill(*triple)
            except ServiceError as exc:  # pragma: no cover - would fail below
                with lock:
                    errors.append(exc)
                return
            with lock:
                payloads.append(payload)

        threads = [
            threading.Thread(target=one) for _ in range(COALESCE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, f"coalesce burst errored: {errors[0]}"
        assert len(payloads) == COALESCE_CLIENTS
        # Every copy of the burst saw the same evidence.
        evidences = {payload["evidence"] for payload in payloads}
        assert len(evidences) == 1
        invocations.append(
            service.distiller.stats().n_distilled - distilled_before
        )
    # N identical concurrent requests -> exactly 1 engine invocation.
    assert invocations == [1] * len(triples), invocations
    after = client.stats()["scheduler"]
    submitted = after["submitted"] - before["submitted"]
    coalesced = after["coalesced"] - before["coalesced"]
    return {
        "rounds": len(triples),
        "clients_per_round": COALESCE_CLIENTS,
        "engine_invocations": sum(invocations),
        "submitted": submitted,
        "coalesced": coalesced,
        "coalesce_hit_rate": round(coalesced / submitted, 4)
        if submitted
        else 0.0,
    }


def _run_saturation_phase(service, client, triples, interval_s: float) -> dict:
    """Open-loop dispatch: fire request i at t0 + i*interval, no matter what."""
    from repro.service import ServiceError

    latencies: list[float] = []
    shed: list[float] = []
    failures: list[str] = []
    depth_samples: list[int] = []
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.1

    def one(index: int, triple) -> None:
        delay = t0 + index * interval_s - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        started = time.perf_counter()
        try:
            payload = client.distill(*triple)
        except ServiceError as exc:
            with lock:
                if exc.status == 429 and exc.retry_after is not None:
                    shed.append(exc.retry_after)
                else:
                    failures.append(f"HTTP {exc.status}: {exc}")
            return
        elapsed = time.perf_counter() - started
        with lock:
            latencies.append(elapsed)
            assert "evidence" in payload

    threads = [
        threading.Thread(target=one, args=(i, triple))
        for i, triple in enumerate(triples)
    ]
    for thread in threads:
        thread.start()
    # Sample the queue while the storm is in flight: the bound must hold.
    while any(thread.is_alive() for thread in threads):
        depth_samples.append(client.stats()["scheduler"]["queue_depth"])
        time.sleep(0.02)
    for thread in threads:
        thread.join(timeout=120)

    assert not failures, f"non-shed failure under saturation: {failures[0]}"
    total = len(triples)
    assert len(latencies) + len(shed) == total
    # Past capacity the bounded queue must shed, but not everything: the
    # queue's worth of admitted requests still completes.
    assert 0 < len(shed) < total, (len(shed), total)
    assert all(hint > 0 for hint in shed), "a 429 lacked Retry-After"
    assert max(depth_samples, default=0) <= MAX_QUEUE_DEPTH
    latencies.sort()
    return {
        "requests": total,
        "interval_ms": round(1000 * interval_s, 2),
        "completed": len(latencies),
        "shed": len(shed),
        "shed_rate": round(len(shed) / total, 4),
        "max_observed_queue_depth": max(depth_samples, default=0),
        "retry_after_mean_s": round(sum(shed) / len(shed), 3),
        "p50_ms": round(1000 * _percentile(latencies, 0.50), 2),
        "p95_ms": round(1000 * _percentile(latencies, 0.95), 2),
    }


def test_service_saturation():
    from repro.service import DistillService, ServiceClient, ServiceConfig
    from repro.service.server import start_server

    service = DistillService.build(
        ServiceConfig(
            dataset="squad11",
            seed=SEED,
            n_train=N_TRAIN,
            n_dev=N_DEV,
            max_batch_size=MAX_BATCH_SIZE,
            max_wait_ms=MAX_WAIT_MS,
            max_queue_depth=MAX_QUEUE_DEPTH,
        )
    )
    examples = service.dataset.answerable_dev()
    assert examples, "no dev examples to serve"

    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=120)
    try:
        assert client.healthz()["status"] == "ok"
        # Warm the shared stage caches so the service-time estimate (and
        # the saturation run) measure steady-state work, not cold fills.
        warmup = _probe_triples(examples, 8, "warmup")
        started = time.perf_counter()
        for triple in warmup:
            client.distill(*triple)
        service_time_s = (time.perf_counter() - started) / len(warmup)

        coalesce = _run_coalesce_phase(
            service, client, _probe_triples(examples, COALESCE_ROUNDS, "co")
        )
        saturation = _run_saturation_phase(
            service,
            client,
            _probe_triples(examples, SATURATION_REQUESTS, "sat"),
            interval_s=service_time_s / OVERLOAD_FACTOR,
        )
        scheduler = client.stats()["scheduler"]
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.close()

    lines = [
        "service saturation, HTTP + bounded admission on squad11 "
        f"(queue depth {MAX_QUEUE_DEPTH}, ~{OVERLOAD_FACTOR:g}x overload)",
        f"  coalesce: {coalesce['rounds']} rounds x "
        f"{coalesce['clients_per_round']} identical concurrent requests -> "
        f"{coalesce['engine_invocations']} engine invocations "
        f"(hit rate {coalesce['coalesce_hit_rate']:.2f})",
        f"  shedding: {saturation['shed']}/{saturation['requests']} shed "
        f"({saturation['shed_rate']:.0%}), max queue depth observed "
        f"{saturation['max_observed_queue_depth']}, mean Retry-After "
        f"{saturation['retry_after_mean_s']:.2f}s",
        f"  admitted: {saturation['completed']} served, "
        f"p50={saturation['p50_ms']:.2f}ms p95={saturation['p95_ms']:.2f}ms "
        f"at {saturation['interval_ms']:.1f}ms inter-arrival",
        f"  scheduler totals: {scheduler['shed']} shed, "
        f"{scheduler['coalesced']} coalesced, "
        f"mean batch {scheduler['mean_batch_size']:.1f}",
    ]
    emit("service_saturation", "\n".join(lines))
    emit_json(
        "service_saturation",
        {
            "config": {
                "max_queue_depth": MAX_QUEUE_DEPTH,
                "max_batch_size": MAX_BATCH_SIZE,
                "max_wait_ms": MAX_WAIT_MS,
                "overload_factor": OVERLOAD_FACTOR,
            },
            "coalesce": coalesce,
            "saturation": saturation,
            "scheduler": scheduler,
            "metrics": {
                "service.shed_rate": saturation["shed_rate"],
                "service.coalesce_hit_rate": coalesce["coalesce_hit_rate"],
            },
            "latency_ms": {
                "service.saturated": {
                    "p50": saturation["p50_ms"],
                    "p95": saturation["p95_ms"],
                }
            },
        },
    )
