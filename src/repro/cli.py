"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``distill`` — distill evidence for one QA pair over a corpus file.
* ``batch`` — distill a whole dataset split on the engine executor.
* ``index`` — build and persist a sharded corpus retrieval index.
* ``ask`` — open-context distillation: retrieve top-k paragraphs from a
  persisted index, distill each, rank by hybrid evidence score.
* ``serve`` — run the long-lived evidence service (JSON over HTTP).
* ``trace`` — pretty-print a running service's ``/debug/traces`` ring
  (or a saved trace JSON file) as span trees.
* ``dataset`` — generate a synthetic dataset and write SQuAD-schema JSON.
* ``experiment`` — run one of the paper's experiments and print the table.
* ``errors`` — triage weak evidences (Sec. IV-G error analysis).

``--workers N`` fans distillation out over the staged execution engine's
parallel executor; ``--profile`` prints the per-stage wall-clock and
shared-cache hit rates the engine collected.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from repro import GCED, QATrainer
from repro.datasets import DATASET_KEYS, load_dataset
from repro.datasets.io import save_dataset
from repro.eval import (
    ExperimentContext,
    ablation_table,
    agreement_table,
    degradation_curves,
    format_table,
    human_evaluation_table,
    qa_augmentation_table,
    reduction_statistics,
)
from repro.eval.error_analysis import CATEGORY_DESCRIPTIONS, analyze_errors

__all__ = ["main", "build_parser"]

DEFAULT_INDEX_PATH = pathlib.Path("gced_index.json")

_EXPERIMENTS = (
    "table2",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "fig7",
    "reduction",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Grow-and-Clip Evidence Distillation (GCED) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_distill = sub.add_parser("distill", help="distill evidence for a QA pair")
    p_distill.add_argument("--question", required=True)
    p_distill.add_argument("--answer", required=True)
    p_distill.add_argument(
        "--context",
        help="context string; defaults to the corpus file's first paragraph",
    )
    p_distill.add_argument(
        "--corpus",
        type=pathlib.Path,
        help="text file, one context paragraph per line (training corpus)",
    )
    p_distill.add_argument("--seed", type=int, default=0)
    p_distill.add_argument(
        "--trace", action="store_true", help="print the full distillation trace"
    )
    p_distill.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage timings and cache hit rates",
    )

    p_batch = sub.add_parser(
        "batch", help="distill a dataset split on the engine executor"
    )
    p_batch.add_argument("--dataset", default="squad11", choices=DATASET_KEYS)
    p_batch.add_argument("--n-examples", type=int, default=24)
    p_batch.add_argument("--n-train", type=int, default=100)
    p_batch.add_argument("--n-dev", type=int, default=60)
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument(
        "--workers", type=int, default=1, help="executor pool size (1 = serial)"
    )
    p_batch.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage timings and cache hit rates",
    )
    p_batch.add_argument(
        "--out",
        type=pathlib.Path,
        help="write distilled evidences as JSONL to this path",
    )

    p_index = sub.add_parser(
        "index", help="build and persist a sharded corpus retrieval index"
    )
    p_index.add_argument("--dataset", default="squad11", choices=DATASET_KEYS)
    p_index.add_argument(
        "--corpus",
        type=pathlib.Path,
        help="text file, one paragraph per line (overrides --dataset)",
    )
    p_index.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_INDEX_PATH,
        help=f"index file to write (default: {DEFAULT_INDEX_PATH})",
    )
    p_index.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count of the persisted index layout",
    )
    p_index.add_argument("--n-train", type=int, default=120)
    p_index.add_argument("--n-dev", type=int, default=60)
    p_index.add_argument("--seed", type=int, default=0)
    p_index.add_argument(
        "--workers",
        type=int,
        default=1,
        help="executor pool size for shard construction (1 = serial)",
    )

    p_ask = sub.add_parser(
        "ask",
        help="open-context distillation over a persisted retrieval index",
    )
    p_ask.add_argument("--question", required=True)
    p_ask.add_argument("--answer", required=True)
    p_ask.add_argument(
        "--index",
        type=pathlib.Path,
        default=DEFAULT_INDEX_PATH,
        help=f"index file written by `repro index` (default: {DEFAULT_INDEX_PATH})",
    )
    p_ask.add_argument(
        "--k", type=int, default=3, help="paragraphs to retrieve and distill"
    )
    p_ask.add_argument(
        "--scorer", default="bm25", choices=("bm25", "tfidf")
    )
    p_ask.add_argument(
        "--workers", type=int, default=1, help="executor pool size (1 = serial)"
    )
    p_ask.add_argument(
        "--json",
        action="store_true",
        help="print the full ranked outcome as JSON",
    )
    p_ask.add_argument(
        "--page-size",
        type=int,
        default=0,
        help="page the ranked candidates (0 = one fat response); pages "
        "use the same stateless cursors the /ask endpoint serves",
    )
    p_ask.add_argument(
        "--trace",
        action="store_true",
        help="record a request trace and print the span tree "
        "(retrieval, engine stages, process-worker spans)",
    )

    p_serve = sub.add_parser(
        "serve", help="run the evidence service (JSON over HTTP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    _add_config_flags(p_serve)
    p_serve.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="JSON access/structured log level on stderr",
    )
    p_serve.add_argument(
        "--self-test",
        action="store_true",
        help="serve on an ephemeral port, exercise every endpoint "
        "concurrently, verify byte-identity with single-shot distill, exit",
    )

    p_ingest = sub.add_parser(
        "ingest",
        help="manage the durable live-corpus plane (offline dir or "
        "running service)",
    )
    p_ingest.add_argument(
        "--url",
        default=None,
        help="running service base URL (uses POST /ingest + DELETE "
        "/docs); mutually exclusive with --dir",
    )
    p_ingest.add_argument(
        "--dir",
        type=pathlib.Path,
        default=None,
        help="ingest directory to open offline (recovers WAL state; "
        "mutually exclusive with --url)",
    )
    p_ingest.add_argument(
        "--corpus",
        type=pathlib.Path,
        default=None,
        help="bootstrap corpus (one paragraph per line) for a fresh "
        "--dir with no segment yet",
    )
    p_ingest.add_argument(
        "--add",
        action="append",
        default=[],
        metavar="TEXT",
        help="durably append one paragraph (repeatable)",
    )
    p_ingest.add_argument(
        "--add-file",
        type=pathlib.Path,
        default=None,
        help="durably append one paragraph per non-blank line",
    )
    p_ingest.add_argument(
        "--delete",
        action="append",
        type=int,
        default=[],
        metavar="DOC_ID",
        help="tombstone one document id (repeatable)",
    )
    p_ingest.add_argument(
        "--compact",
        action="store_true",
        help="fold the WAL into a fresh segment (offline --dir only)",
    )
    p_ingest.add_argument(
        "--stats",
        action="store_true",
        help="print the ingest stats block (default when no other action)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="pretty-print slow-trace exemplars from a running service",
    )
    p_trace.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="service base URL to fetch GET /debug/traces from",
    )
    p_trace.add_argument(
        "--file",
        type=pathlib.Path,
        help="read a /debug/traces JSON snapshot (or one trace dict) "
        "from this file instead of a running service",
    )
    p_trace.add_argument(
        "--limit", type=int, default=5, help="newest traces to print"
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw snapshot JSON instead of span trees",
    )

    p_dataset = sub.add_parser("dataset", help="generate a synthetic dataset")
    p_dataset.add_argument("key", choices=DATASET_KEYS)
    p_dataset.add_argument("--out", type=pathlib.Path, required=True)
    p_dataset.add_argument("--n-train", type=int, default=120)
    p_dataset.add_argument("--n-dev", type=int, default=60)
    p_dataset.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    p_exp.add_argument("--dataset", default=None, choices=DATASET_KEYS)
    p_exp.add_argument("--n-examples", type=int, default=24)
    p_exp.add_argument("--n-train", type=int, default=100)
    p_exp.add_argument("--n-dev", type=int, default=60)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--workers", type=int, default=1, help="executor pool size (1 = serial)"
    )

    p_err = sub.add_parser("errors", help="triage weak evidences (Sec. IV-G)")
    p_err.add_argument("--dataset", default="squad11", choices=DATASET_KEYS)
    p_err.add_argument("--n-examples", type=int, default=30)
    p_err.add_argument("--seed", type=int, default=0)

    p_report = sub.add_parser(
        "report", help="run the full evaluation suite and write a markdown report"
    )
    p_report.add_argument("--dataset", default="squad11", choices=DATASET_KEYS)
    p_report.add_argument("--out", type=pathlib.Path, required=True)
    p_report.add_argument("--n-examples", type=int, default=24)
    p_report.add_argument("--n-train", type=int, default=100)
    p_report.add_argument("--n-dev", type=int, default=60)
    p_report.add_argument("--seed", type=int, default=0)
    return parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One ``--flag`` per :class:`ServiceConfig` field.

    Type and default come from the field, help text and choices from its
    metadata, so a new serving knob needs no CLI change.
    """
    from repro.service.service import ServiceConfig

    for knob in dataclasses.fields(ServiceConfig):
        parser.add_argument(
            f"--{knob.name.replace('_', '-')}",
            type=type(knob.default),
            default=knob.default,
            choices=knob.metadata["choices"],
            help=knob.metadata["help"],
        )


def _default_dataset(name: str) -> str:
    return {
        "table2": "squad11",
        "table4": "squad11",
        "table5": "triviaqa-web",
        "table6": "squad11",
        "table7": "triviaqa-web",
        "table8": "squad20",
        "fig7": "squad11",
        "reduction": "squad11",
    }[name]


def _run_distill(args: argparse.Namespace) -> int:
    if args.corpus:
        corpus = [
            line.strip()
            for line in args.corpus.read_text().splitlines()
            if line.strip()
        ]
    elif args.context:
        corpus = [args.context]
    else:
        print("error: provide --corpus and/or --context", file=sys.stderr)
        return 2
    context = args.context or corpus[0]
    artifacts = QATrainer(seed=args.seed).train(corpus)
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    if args.trace:
        from repro.obs import render_trace, start_trace

        with start_trace("cli.distill") as handle:
            result = gced.distill(args.question, args.answer, context)
        print(result.explain())
        print(render_trace(handle.to_dict()))
    else:
        result = gced.distill(args.question, args.answer, context)
        print(result.evidence)
    if args.profile:
        print(gced.snapshot_caches().report())
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    from repro.core import BatchDistiller, write_results_jsonl
    from repro.datasets import load_dataset as _load

    dataset = _load(
        args.dataset, seed=args.seed, n_train=args.n_train, n_dev=args.n_dev
    )
    artifacts = QATrainer(seed=args.seed).train(dataset.contexts())
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    examples = dataset.answerable_dev()[: args.n_examples]
    with BatchDistiller(gced, workers=args.workers) as batch:
        results = batch.distill_examples(examples)
        stats = batch.stats()
        print(stats.summary())
        if args.profile:
            print(stats.profile.report())
    if args.out:
        count = write_results_jsonl(
            args.out,
            (
                (e.question, e.primary_answer, r)
                for e, r in zip(examples, results)
            ),
        )
        print(f"wrote {count} records to {args.out}")
    return 0


def _run_index(args: argparse.Namespace) -> int:
    from repro.retrieval import CorpusRetriever

    if args.corpus:
        docs = [
            line.strip()
            for line in args.corpus.read_text().splitlines()
            if line.strip()
        ]
        metadata = {"source": str(args.corpus), "seed": args.seed}
        source = str(args.corpus)
    else:
        from repro.datasets import load_dataset as _load

        dataset = _load(
            args.dataset, seed=args.seed, n_train=args.n_train, n_dev=args.n_dev
        )
        docs = list(dataset.contexts())
        metadata = {
            "dataset": args.dataset,
            "seed": args.seed,
            "n_train": args.n_train,
            "n_dev": args.n_dev,
        }
        source = args.dataset
    if not docs:
        print("error: the corpus has no paragraphs", file=sys.stderr)
        return 2
    retriever = CorpusRetriever.build(
        docs,
        n_shards=args.shards,
        workers=args.workers,
        metadata=metadata,
    )
    path = retriever.save(args.out)
    print(f"indexed {source}: {retriever.index.describe()}")
    print(f"wrote {path}")
    return 0


def _run_ask(args: argparse.Namespace) -> int:
    import json

    from repro.core import BatchDistiller, OpenContextDistiller
    from repro.retrieval import CorpusRetriever, make_scorer

    if not args.index.exists():
        print(
            f"error: no index at {args.index}; build one first with "
            "`repro index --dataset squad11`",
            file=sys.stderr,
        )
        return 2
    retriever = CorpusRetriever.load(args.index, scorer=make_scorer(args.scorer))
    seed = int(retriever.index.metadata.get("seed", 0))
    artifacts = QATrainer(seed=seed).train(retriever.corpus)
    gced = GCED(qa_model=artifacts.reader, artifacts=artifacts)
    trace_handle = None
    with OpenContextDistiller(
        BatchDistiller(gced, workers=args.workers),
        retriever,
        top_k=args.k,
    ) as distiller:
        if args.trace:
            from repro.obs import start_trace

            with start_trace("cli.ask", k=args.k) as trace_handle:
                outcome = distiller.ask(args.question, args.answer)
        else:
            outcome = distiller.ask(args.question, args.answer)
    if trace_handle is not None:
        from repro.obs import render_trace

        print(render_trace(trace_handle.to_dict()), file=sys.stderr)
    if args.page_size > 0:
        # Same page envelopes the /ask endpoint serves, built offline.
        from repro.service.paging import paginate_ask

        outcome_dict = outcome.to_dict()
        offset = 0
        while True:
            page = paginate_ask(
                outcome_dict, args.k, offset, args.page_size
            )
            print(json.dumps(page, indent=2, sort_keys=True))
            if page["next_cursor"] is None:
                break
            offset += args.page_size
        return 0 if outcome.best is not None else 1
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        # Same exit-code contract as the plain-text mode below.
        return 0 if outcome.best is not None else 1
    if outcome.best is None:
        print("no supporting evidence found", file=sys.stderr)
        return 1
    print(outcome.best.result.evidence)
    for position, candidate in enumerate(outcome.candidates, start=1):
        hit = candidate.paragraph
        if candidate.ok:
            detail = (
                f"hybrid {candidate.result.scores.hybrid:.4f}, "
                f"evidence: {candidate.result.evidence[:80]}"
            )
        else:
            detail = f"error: {candidate.error}"
        print(
            f"  #{position} doc {hit.doc_id} "
            f"(retrieval rank {hit.rank}, score {hit.score:.3f}) {detail}",
            file=sys.stderr,
        )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.faults import install_from_env
    from repro.obs import configure_logging
    from repro.service import DistillService, ServiceConfig, make_server

    configure_logging(level=args.log_level)
    # Honor a REPRO_FAULTS plan in the coordinator too (workers install
    # it in their own initializer) — the chaos CI leg's entry point.
    install_from_env()
    config = ServiceConfig(
        **{
            knob.name: getattr(args, knob.name)
            for knob in dataclasses.fields(ServiceConfig)
        }
    )
    print(f"building service resources for {args.dataset} ...", file=sys.stderr)
    service = DistillService.build(config)
    if args.self_test:
        return _serve_self_test(service)
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"serving GCED on http://{host}:{port} "
        f"(workers={args.workers}, max_batch_size={args.max_batch_size}, "
        f"max_wait_ms={args.max_wait_ms:g}, "
        f"max_queue_depth={args.max_queue_depth}, "
        f"client_rate={args.client_rate:g}) — Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


# A keep-alive memo hit is answered at submit: one HTTP exchange and no
# scheduler wait.  The bound leaves room for a shared CPU but not for a
# Nagle stall, which adds ~40 ms to every response.
KEEPALIVE_MEMO_HIT_BOUND_MS = 10.0


def _serve_self_test(service) -> int:
    """End-to-end smoke: serve, hit every endpoint, verify byte-identity."""
    import json
    import statistics
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.core.serialize import result_to_dict
    from repro.service import ServiceClient, ServiceError, start_server

    server, _thread = start_server(service, quiet=True)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    failures: list[str] = []
    try:
        if client.healthz().get("status") != "ok":
            failures.append("healthz did not report ok")

        examples = service.dataset.answerable_dev()[:6]
        with ThreadPoolExecutor(max_workers=4) as pool:
            served = list(
                pool.map(
                    lambda e: client.distill(
                        e.question, e.primary_answer, e.context
                    ),
                    examples,
                )
            )
        for example, payload in zip(examples, served):
            direct = result_to_dict(
                service.gced.distill(
                    example.question, example.primary_answer, example.context
                ),
                example.question,
                example.primary_answer,
            )
            if json.dumps(payload, sort_keys=True) != json.dumps(
                direct, sort_keys=True
            ):
                failures.append(
                    f"served result diverged for {example.question!r}"
                )

        # Memo hits over the client's keep-alive connection.
        memo_hit_ms = []
        hits_before = service.distiller.stats().n_cache_hits
        for _ in range(20):
            started = time.perf_counter()
            client.distill(
                examples[0].question, examples[0].primary_answer, examples[0].context
            )
            memo_hit_ms.append(1000.0 * (time.perf_counter() - started))
        memo_hit_p50 = statistics.median(memo_hit_ms)
        if service.distiller.stats().n_cache_hits - hits_before != 20:
            failures.append("20 repeated requests did not make 20 memo hits")
        if memo_hit_p50 >= KEEPALIVE_MEMO_HIT_BOUND_MS:
            failures.append(
                f"keep-alive memo hit p50 {memo_hit_p50:.1f} ms is not under "
                f"{KEEPALIVE_MEMO_HIT_BOUND_MS:.1f} ms (a stalled response "
                "write?)"
            )

        batch = client.distill_batch(
            [
                {
                    "question": e.question,
                    "answer": e.primary_answer,
                    "context": e.context,
                }
                for e in examples[:3]
            ]
            + [{"question": "poisoned", "answer": "x", "context": "   "}]
        )
        if batch["errors"] != 1 or len(batch["results"]) != 4:
            failures.append(f"batch error isolation failed: {batch['errors']}")

        try:
            client.distill("q", "a", "")
            failures.append("empty context was not rejected")
        except ServiceError as exc:
            if exc.status != 400:
                failures.append(f"expected 400 for empty context, got {exc.status}")

        if service.retriever is None:
            failures.append("service built without a retriever")
        else:
            from repro.core.open_context import build_outcome

            example = examples[0]
            served_ask = client.ask(example.question, example.primary_answer, k=2)
            hits = service.retriever.retrieve_for_qa(
                example.question, example.primary_answer, k=2
            )
            direct_ask = build_outcome(
                example.question,
                example.primary_answer,
                hits,
                [
                    service.gced.distill(
                        example.question, example.primary_answer, hit.text
                    )
                    for hit in hits
                ],
            ).to_dict()
            if json.dumps(served_ask, sort_keys=True) != json.dumps(
                direct_ask, sort_keys=True
            ):
                failures.append(
                    "served /ask diverged from inline open-context distillation"
                )
            paged = list(
                client.ask_pages(
                    example.question, example.primary_answer, k=2, page_size=1
                )
            )
            stitched = [c for page in paged for c in page["candidates"]]
            if json.dumps(stitched, sort_keys=True) != json.dumps(
                served_ask["candidates"], sort_keys=True
            ):
                failures.append(
                    "paged /ask candidates did not concatenate to the fat response"
                )

        stats = client.stats()
        for key in ("service", "scheduler", "batch", "stages", "caches", "obs"):
            if key not in stats:
                failures.append(f"stats missing {key!r}")
        if stats.get("scheduler", {}).get("completed", 0) < len(examples):
            failures.append("stats did not count served requests")

        # Telemetry plane: /metrics must be valid Prometheus exposition
        # and agree with /stats on the shared counters.
        from repro.obs.metrics import (
            lint_exposition,
            parse_exposition,
            sample_value,
        )

        metrics_text = client.metrics_text()
        problems = lint_exposition(metrics_text)
        if problems:
            failures.append(f"/metrics failed exposition lint: {problems[:3]}")
        families = parse_exposition(metrics_text)
        stats_after = client.stats()
        for metric, block, field in (
            ("gced_scheduler_submitted_total", "scheduler", "submitted"),
            ("gced_scheduler_completed_total", "scheduler", "completed"),
            ("gced_scheduler_coalesced_total", "scheduler", "coalesced"),
            ("gced_scheduler_shed_total", "scheduler", "shed"),
            ("gced_admission_admitted_total", "admission", "admitted"),
        ):
            exposed = sample_value(families, metric)
            reported = stats_after.get(block, {}).get(field)
            if exposed is None or reported is None or exposed != reported:
                failures.append(
                    f"{metric}={exposed} disagrees with "
                    f"/stats {block}.{field}={reported}"
                )

        # An explicit X-Trace-Id must be honored and echoed back.
        import urllib.request

        example = examples[0]
        request = urllib.request.Request(
            f"http://{host}:{port}/distill",
            data=json.dumps(
                {
                    "question": example.question,
                    "answer": example.primary_answer,
                    "context": example.context,
                }
            ).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": "cafef00dcafef00d",
            },
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            echoed = resp.headers.get("X-Trace-Id")
            resp.read()
        if echoed != "cafef00dcafef00d":
            failures.append(f"X-Trace-Id not echoed (got {echoed!r})")

        # A request whose X-Deadline-Ms budget is already spent must
        # answer 504 with a parseable JSON body, without engine work.
        try:
            client.distill(
                example.question,
                example.primary_answer,
                example.context + " (deadline probe)",
                deadline_ms=0,
            )
            failures.append("expired deadline was not rejected")
        except ServiceError as exc:
            if exc.status != 504:
                failures.append(
                    f"expected 504 for expired deadline, got {exc.status}"
                )
            elif not (
                isinstance(exc.payload, dict) and exc.payload.get("error")
            ):
                failures.append(
                    f"504 body was not parseable JSON: {exc.payload!r}"
                )
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.close()

    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"self-test ok: {len(served)} concurrent /distill requests "
        "byte-identical to single-shot GCED.distill; keep-alive memo hit "
        f"p50 {memo_hit_p50:.1f} ms; /ask matched inline "
        "open-context distillation (fat and paged); /batch isolated the "
        "poisoned request; /healthz and /stats healthy; /metrics valid "
        "and consistent with /stats; X-Trace-Id honored and echoed; "
        "expired X-Deadline-Ms answered 504 with a parseable body"
    )
    return 0


def _run_ingest(args: argparse.Namespace) -> int:
    """Live-corpus writes, against a running service or an offline dir."""
    import json

    if (args.url is None) == (args.dir is None):
        print("error: provide exactly one of --url or --dir", file=sys.stderr)
        return 2
    texts = list(args.add)
    if args.add_file is not None:
        texts.extend(
            line.strip()
            for line in args.add_file.read_text().splitlines()
            if line.strip()
        )
    wants_stats = args.stats or not (texts or args.delete or args.compact)

    if args.url is not None:
        from repro.service import ServiceClient, ServiceError

        if args.compact:
            print(
                "error: --compact is offline-only (use --dir; a running "
                "service compacts via --compact-every)",
                file=sys.stderr,
            )
            return 2
        client = ServiceClient(args.url)
        try:
            if texts:
                print(json.dumps(client.ingest(texts)))
            for doc_id in args.delete:
                print(json.dumps(client.delete_doc(doc_id)))
            if wants_stats:
                print(json.dumps(client.stats().get("ingest"), indent=2))
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    from repro.retrieval import IngestManager

    corpus = None
    if args.corpus is not None:
        corpus = [
            line.strip()
            for line in args.corpus.read_text().splitlines()
            if line.strip()
        ]
    try:
        manager = IngestManager.open(args.dir, base_corpus=corpus)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with manager:
        if texts:
            print(json.dumps({"doc_ids": manager.add_documents(texts)}))
        for doc_id in args.delete:
            try:
                manager.delete_document(doc_id)
                print(json.dumps({"deleted": doc_id}))
            except KeyError:
                print(f"error: no live document {doc_id}", file=sys.stderr)
                return 1
        if args.compact:
            print(json.dumps(manager.compact()))
        if wants_stats:
            print(json.dumps(manager.stats(), indent=2))
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import render_trace

    if args.file is not None:
        snapshot = json.loads(args.file.read_text())
        # Accept either a full /debug/traces snapshot or one trace dict.
        if "spans" in snapshot:
            snapshot = {
                "traces": [
                    {
                        "duration_ms": snapshot.get("duration_ms", 0.0),
                        "trace": snapshot,
                    }
                ]
            }
    else:
        from repro.service import ServiceClient, ServiceError

        try:
            snapshot = ServiceClient(args.url).debug_traces()
        except (ServiceError, OSError) as exc:
            print(f"error: cannot fetch {args.url}/debug/traces: {exc}",
                  file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    traces = snapshot.get("traces", [])
    if not traces:
        threshold = snapshot.get("threshold_ms")
        seen = snapshot.get("seen", 0)
        print(
            f"no slow traces captured yet "
            f"({seen} traces seen, threshold {threshold}ms)"
        )
        return 0
    for entry in traces[: args.limit]:
        print(f"--- {entry['duration_ms']:.1f}ms ---")
        print(render_trace(entry["trace"]))
    remaining = len(traces) - args.limit
    if remaining > 0:
        print(f"... {remaining} older trace(s) not shown (--limit)")
    return 0


def _run_dataset(args: argparse.Namespace) -> int:
    dataset = load_dataset(
        args.key, seed=args.seed, n_train=args.n_train, n_dev=args.n_dev
    )
    save_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.train)} train / {len(dataset.dev)} dev examples "
        f"to {args.out}"
    )
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    dataset_key = args.dataset or _default_dataset(args.name)
    with ExperimentContext.build(
        dataset_key,
        seed=args.seed,
        n_train=args.n_train,
        n_dev=args.n_dev,
        workers=args.workers,
    ) as ctx:
        n = args.n_examples
        if args.name == "table2":
            print(format_table(agreement_table(ctx, n_examples=n)))
        elif args.name in ("table4", "table5"):
            print(format_table(human_evaluation_table(ctx, n_examples=n)))
        elif args.name in ("table6", "table7"):
            print(format_table(qa_augmentation_table(ctx, n_examples=n)))
        elif args.name == "table8":
            print(format_table(ablation_table(ctx, n_examples=n)))
        elif args.name == "fig7":
            print(format_table(degradation_curves(ctx, n_examples=n)))
        elif args.name == "reduction":
            stats = reduction_statistics(ctx, n_examples=n)
            print(
                f"{stats['dataset']}: {100 * stats['mean_reduction']:.1f}% "
                f"words removed ({stats['mean_context_words']:.0f} -> "
                f"{stats['mean_evidence_words']:.0f})"
            )
    return 0


def _run_errors(args: argparse.Namespace) -> int:
    ctx = ExperimentContext.build(args.dataset, seed=args.seed)
    diagnoses = analyze_errors(ctx, n_examples=args.n_examples)
    counts: dict[str, int] = {}
    for diagnosis in diagnoses:
        counts[diagnosis.category] = counts.get(diagnosis.category, 0) + 1
    print("category counts:")
    for category, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"  {category:<22} {count:>3}  {CATEGORY_DESCRIPTIONS[category]}")
    worst = [d for d in diagnoses if d.category != "ok"][:5]
    if worst:
        print("\nworst cases:")
        for diagnosis in worst:
            print(f"  [{diagnosis.category}] Q: {diagnosis.question}")
            print(f"    evidence: {diagnosis.evidence[:100]}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from repro.eval.report import write_report

    ctx = ExperimentContext.build(
        args.dataset, seed=args.seed, n_train=args.n_train, n_dev=args.n_dev
    )
    path = write_report(ctx, args.out, n_examples=args.n_examples)
    print(f"report written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "distill": _run_distill,
        "batch": _run_batch,
        "index": _run_index,
        "ask": _run_ask,
        "serve": _run_serve,
        "ingest": _run_ingest,
        "trace": _run_trace,
        "dataset": _run_dataset,
        "experiment": _run_experiment,
        "errors": _run_errors,
        "report": _run_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests/CLI
    raise SystemExit(main())
