"""Prometheus exposition lint — ``promtool check metrics``, pure python.

Validates Prometheus text-format (0.0.4) output against the rules
:func:`repro.obs.metrics.lint_exposition` enforces: metric/label name
syntax, ``HELP``/``TYPE`` ordering and uniqueness, counters ending in
``_total``, parseable sample values, no duplicate samples, well-formed
histograms (``le`` labels, cumulative monotone buckets, ``+Inf`` bucket
equal to ``_count``, ``_sum``/``_count`` present), and a trailing
newline.

Three input modes::

    python tools/check_metrics.py exposition.txt   # lint a file
    curl -s host:8080/metrics | python tools/check_metrics.py -
    python tools/check_metrics.py --sample         # self-contained check

``--sample`` builds a tiny in-process :class:`DistillService` with a
live-ingest directory, serves a couple of requests and one ingest
through it, renders its live ``/metrics`` exposition, and lints that —
so CI validates the *real* registry output (``gced_ingest_*`` families
included) on every run, not a fixture that can drift from the code.

Exit 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.metrics import lint_exposition, parse_exposition  # noqa: E402

SAMPLE_CORPUS = [
    "The American Football Conference champion Denver Broncos defeated "
    "the Carolina Panthers to earn the Super Bowl title.",
    "The Rams won the battle after a long siege of the fortress.",
    "Marie Curie received the Nobel Prize in Physics for research on "
    "radiation phenomena.",
    "The committee approved the budget for the new railway station.",
]


def sample_exposition() -> str:
    """Render live ``/metrics`` text from a tiny exercised service."""
    from repro.service import DistillService

    with tempfile.TemporaryDirectory() as ingest_dir, DistillService.from_corpus(
        SAMPLE_CORPUS, corpus_info="check_metrics", ingest_dir=ingest_dir
    ) as service:
        service.distill(
            "Which NFL team won the Super Bowl title?",
            "Denver Broncos",
            SAMPLE_CORPUS[0],
        )
        service.ask("Who won the battle?", "the Rams", k=2)
        service.ingest.add_documents(["The river flooded the valley in spring."])
        return service.telemetry.metrics_text()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "source",
        nargs="?",
        help="exposition file to lint, or '-' for stdin",
    )
    parser.add_argument(
        "--sample",
        action="store_true",
        help="lint the live exposition of a small in-process service",
    )
    args = parser.parse_args(argv)

    if args.sample == (args.source is not None):
        parser.error("pass exactly one of: a file, '-', or --sample")

    if args.sample:
        text = sample_exposition()
        origin = "--sample service"
    elif args.source == "-":
        text = sys.stdin.read()
        origin = "stdin"
    else:
        path = pathlib.Path(args.source)
        if not path.exists():
            print(f"check_metrics: no such file: {path}", file=sys.stderr)
            return 2
        text = path.read_text()
        origin = str(path)

    problems = lint_exposition(text)
    if problems:
        for problem in problems:
            print(f"check_metrics: {origin}: {problem}", file=sys.stderr)
        return 1
    families = parse_exposition(text)
    samples = sum(len(family["samples"]) for family in families.values())
    print(
        f"check_metrics: {origin}: ok "
        f"({len(families)} families, {samples} samples)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
