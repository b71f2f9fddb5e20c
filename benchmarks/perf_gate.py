"""CI perf gate: merge benchmark JSON and compare against the baseline.

Usage (after running the perf benchmarks so that
``benchmarks/results/*.json`` exist)::

    python benchmarks/perf_gate.py --out BENCH_pr.json
    python benchmarks/perf_gate.py --write-baseline   # refresh baseline

The gate merges every known benchmark JSON into one ``BENCH_pr.json``
artifact and fails (exit 1) if any metric regressed more than
``--tolerance`` (default 30%, overridable via the ``PERF_GATE_TOLERANCE``
environment variable) against ``benchmarks/results/baseline.json``:
throughput metrics gate *downward*, and latency metrics — keys ending in
``_ms`` (the hot-path stage timings from ``bench_distill_profile.py``) —
gate *upward*; so does ``batch.pool_start_ms`` (2-worker pool start
through the warm-up barrier, from ``bench_batch_throughput.py``).  Size
metrics — keys ending in ``bytes`` — gate upward like latencies.
Ratios such as ``service.coalesce_hit_rate`` gate downward like
throughput.

A few metrics gate against an *absolute* ceiling instead of the
baseline (``ABSOLUTE_CEILINGS``): telemetry overhead
(``obs.overhead_pct`` from ``bench_obs_overhead.py``) hovers near zero,
so any ratio-vs-baseline comparison would flake — it simply must stay
under a few percent.  These keys are excluded from baseline writes and
comparisons.

With ``PERF_GATE_MULTICORE=1`` the gate additionally enforces a hard
floor of 1.3x on ``batch.parallel_speedup`` regardless of the baseline —
only set it on runners with >= 2 CPUs.  On single-CPU runners (where the
process backend cannot beat serial) leave it unset and the gate relies
on ``batch.pool_start_ms`` instead.

Absolute wall-clock varies across runner hardware more
than relative throughput does, so latency baselines must be produced on
CI-comparable hardware (same rule the throughput baselines already
follow) and re-blessed with ``--write-baseline`` after an intentional
slowdown; service latency *percentiles* stay context-only.

Only metric keys present in *both* the baseline and the current run are
compared, so adding a new benchmark never breaks the gate — refresh the
baseline with ``--write-baseline`` to start gating it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SOURCE_FILES = (
    "batch_throughput.json",
    "service_latency.json",
    "service_saturation.json",
    "retrieval.json",
    "distill_profile.json",
    "obs_overhead.json",
    "fault_recovery.json",
    "ingest_recovery.json",
)
# Hard floor on multi-core batch speedup, enforced only when the runner
# opts in via PERF_GATE_MULTICORE=1 (a single-CPU runner cannot meet it).
MULTICORE_FLOOR = 1.3
# Metrics gated against an absolute ceiling instead of the baseline:
# near-zero noisy numbers (telemetry overhead hovers around 0-1%) would
# flake any ratio comparison, so they are excluded from the baseline and
# fail outright when they cross the ceiling.  Enforced whenever the
# metric was measured.
ABSOLUTE_CEILINGS = {"obs.overhead_pct": 5.0}
# Context-only payload keys carried into the artifact, keyed by source so
# two benchmarks reporting latencies never clobber each other.
CONTEXT_KEYS = ("latency_ms", "query_latency_ms")


def collect_metrics(results_dir: pathlib.Path) -> tuple[dict, list[str]]:
    """Gather throughput metrics (and context) from benchmark JSON files."""
    metrics: dict[str, float] = {}
    extras: dict[str, dict] = {}
    sources: list[str] = []
    for filename in SOURCE_FILES:
        path = results_dir / filename
        if not path.exists():
            continue
        payload = json.loads(path.read_text())
        metrics.update(payload.get("metrics", {}))
        for key in CONTEXT_KEYS:
            if key in payload:
                extras.setdefault(key, {})[filename.removesuffix(".json")] = (
                    payload[key]
                )
        sources.append(filename)
    return {"metrics": metrics, **extras}, sources


def compare(
    current: dict[str, float], baseline: dict[str, float], tolerance: float
) -> tuple[list[str], list[str]]:
    """Regressions beyond tolerance, plus one info line per metric.

    Throughput metrics regress *downward* (below ``base * (1 - tol)``);
    latency and size metrics — any key ending in ``_ms`` or ``bytes`` —
    regress *upward*, so the gate protects the hot-path stage timings
    from ``bench_distill_profile.py`` and the pool start time from
    ``bench_batch_throughput.py`` in the direction that actually hurts.
    Absolute wall-clock varies across runner hardware more than relative
    throughput does, so latency keys get double the tolerance: a slower
    runner shifts every ``_ms`` value together, while the multi-x
    regressions the gate exists to catch still trip it.
    """
    failures: list[str] = []
    report: list[str] = []
    for key in sorted(baseline):
        if key in ABSOLUTE_CEILINGS:
            continue  # gated against a fixed ceiling, not the baseline
        if key not in current:
            report.append(f"  {key:<36} baseline-only (not measured)")
            continue
        base, now = float(baseline[key]), float(current[key])
        delta = (now - base) / base if base else 0.0
        if key.endswith("_ms") or key.endswith("bytes"):
            ceiling = base * (1.0 + 2.0 * tolerance)
            regressed = now > ceiling
            direction = "above"
        else:
            floor = base * (1.0 - tolerance)
            regressed = now < floor
            direction = "below"
        status = "REGRESSED" if regressed else "ok"
        report.append(
            f"  {key:<36} {now:>9.2f} vs baseline {base:>9.2f} "
            f"({delta:+.1%}) {status}"
        )
        if regressed:
            failures.append(
                f"{key}: {now:.2f} is more than {tolerance:.0%} {direction} "
                f"baseline {base:.2f}"
            )
    return failures, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=pathlib.Path, default=RESULTS_DIR
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=RESULTS_DIR / "baseline.json",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_pr.json"),
        help="merged metrics artifact to write",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("PERF_GATE_TOLERANCE", "0.30")),
        help="allowed fractional regression vs baseline (throughput drop, "
        "or *_ms latency rise)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="overwrite the baseline with the current metrics and exit",
    )
    args = parser.parse_args(argv)

    current, sources = collect_metrics(args.results_dir)
    if not current["metrics"]:
        print(
            "perf gate: no benchmark JSON found — run the perf benchmarks "
            "first (bench_batch_throughput.py, bench_service_latency.py)",
            file=sys.stderr,
        )
        return 2
    current["sources"] = sources
    current["tolerance"] = args.tolerance

    args.out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"perf gate: wrote {args.out} ({len(current['metrics'])} metrics)")

    if args.write_baseline:
        baseline_metrics = {
            key: value
            for key, value in current["metrics"].items()
            if key not in ABSOLUTE_CEILINGS
        }
        args.baseline.write_text(
            json.dumps({"metrics": baseline_metrics}, indent=2, sort_keys=True)
            + "\n"
        )
        print(f"perf gate: baseline refreshed at {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"perf gate: no baseline at {args.baseline}; "
            "run with --write-baseline to create one",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(args.baseline.read_text())["metrics"]
    failures, report = compare(current["metrics"], baseline, args.tolerance)
    if os.environ.get("PERF_GATE_MULTICORE") == "1":
        speedup = current["metrics"].get("batch.parallel_speedup")
        if speedup is None:
            failures.append(
                "PERF_GATE_MULTICORE=1 but batch.parallel_speedup was not "
                "measured — run bench_batch_throughput.py"
            )
        elif float(speedup) < MULTICORE_FLOOR:
            failures.append(
                f"batch.parallel_speedup: {float(speedup):.2f} is below the "
                f"multi-core floor {MULTICORE_FLOOR} (PERF_GATE_MULTICORE=1)"
            )
    for key, ceiling in ABSOLUTE_CEILINGS.items():
        value = current["metrics"].get(key)
        if value is None:
            continue  # benchmark not run; nothing to enforce
        report.append(
            f"  {key:<36} {float(value):>9.2f} vs ceiling  {ceiling:>9.2f} "
            f"{'REGRESSED' if float(value) > ceiling else 'ok'}"
        )
        if float(value) > ceiling:
            failures.append(
                f"{key}: {float(value):.2f} exceeds the absolute ceiling "
                f"{ceiling:.2f}"
            )
    print(
        "perf gate: metrics vs baseline "
        f"(tolerance {args.tolerance:.0%}; *_ms and *bytes gate upward)"
    )
    print("\n".join(report))
    if failures:
        for failure in failures:
            print(f"perf gate FAILED: {failure}", file=sys.stderr)
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
