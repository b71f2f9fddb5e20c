"""Service latency and throughput — p50/p95 at concurrency 1 / 4 / 16.

Starts the real HTTP serving stack (``DistillService`` + micro-batching
scheduler + stdlib threading server) on an ephemeral localhost port, then
replays a fixed dev-set sample through :class:`ServiceClient` workers at
each concurrency level.  The client keeps one keep-alive connection per
worker thread, the transport production clients use.  Each level
replays its request list ``N_PASSES`` (7) times and reports the
median pass rate, so one noisy pass does not set the gated
number.  Before each pass the distiller's result memo is cleared (stage
caches stay warm), so every request does full pipeline work and the
levels are comparable; a warmup pass first takes the one-time
cache-filling cost out of the measurement.

Metrics land in ``benchmarks/results/service_latency.{txt,json}``; the
JSON feeds CI's perf gate (``benchmarks/perf_gate.py``).
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.common import N_DEV, N_TRAIN, SEED, emit, emit_json, sample_size

CONCURRENCY_LEVELS = (1, 4, 16)
N_REQUESTS = sample_size("BENCH_SERVICE_REQUESTS", 24)
# Passes per level; the gated req/s is the median pass.
N_PASSES = 7


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _measure_level(service, client, triples, concurrency: int) -> dict:
    latencies: list[float] = []
    pass_rates: list[float] = []

    def one(triple) -> None:
        started = time.perf_counter()
        payload = client.distill(*triple)
        latencies.append(time.perf_counter() - started)
        assert "evidence" in payload

    # One pool per level: its threads keep their connections across passes.
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for _ in range(N_PASSES):
            # Fresh memo per pass: every request pays full pipeline cost.
            service.distiller._results.clear()
            started = time.perf_counter()
            list(pool.map(one, triples))
            pass_rates.append(len(triples) / (time.perf_counter() - started))
    latencies.sort()
    return {
        "concurrency": concurrency,
        "requests": len(triples),
        "passes": N_PASSES,
        "p50_ms": round(1000 * _percentile(latencies, 0.50), 2),
        "p95_ms": round(1000 * _percentile(latencies, 0.95), 2),
        "req_per_sec": round(statistics.median(pass_rates), 2),
        "pass_req_per_sec": [round(rate, 2) for rate in pass_rates],
    }


def test_service_latency():
    from repro.service import DistillService, ServiceClient, ServiceConfig
    from repro.service.server import start_server

    service = DistillService.build(
        ServiceConfig(
            dataset="squad11",
            seed=SEED,
            n_train=N_TRAIN,
            n_dev=N_DEV,
            max_batch_size=16,
            max_wait_ms=2.0,
        )
    )
    examples = service.dataset.answerable_dev()
    triples = [
        (e.question, e.primary_answer, e.context)
        for e in (examples * (N_REQUESTS // max(1, len(examples)) + 1))
    ][:N_REQUESTS]
    assert triples, "no dev examples to serve"

    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    rows = []
    try:
        assert client.healthz()["status"] == "ok"
        for triple in triples:  # warm the shared stage caches once
            client.distill(*triple)
        for concurrency in CONCURRENCY_LEVELS:
            rows.append(_measure_level(service, client, triples, concurrency))
        stats = client.stats()
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.close()

    assert stats["scheduler"]["completed"] >= N_PASSES * len(
        CONCURRENCY_LEVELS
    ) * len(triples)

    lines = [
        "service latency/throughput, HTTP + micro-batching on squad11 "
        f"({N_REQUESTS} requests x {N_PASSES} passes per level, keep-alive; "
        "req/s = median pass)"
    ]
    for row in rows:
        lines.append(
            f"  c={row['concurrency']:<3d} p50={row['p50_ms']:>8.2f}ms "
            f"p95={row['p95_ms']:>8.2f}ms  {row['req_per_sec']:>7.2f} req/s  "
            f"passes {row['pass_req_per_sec']}"
        )
    batches = stats["scheduler"]["batches"]
    served = stats["scheduler"]["completed"]
    lines.append(
        f"  scheduler: {served} served in {batches} batches "
        f"(mean {stats['scheduler']['mean_batch_size']:.1f}/batch)"
    )
    emit("service_latency", "\n".join(lines))
    emit_json(
        "service_latency",
        {
            "requests_per_level": N_REQUESTS,
            "passes_per_level": N_PASSES,
            "levels": rows,
            "scheduler": stats["scheduler"],
            "metrics": {
                f"service.c{row['concurrency']}.req_per_sec": row["req_per_sec"]
                for row in rows
            },
            "latency_ms": {
                f"service.c{row['concurrency']}": {
                    "p50": row["p50_ms"],
                    "p95": row["p95_ms"],
                }
                for row in rows
            },
        },
    )
