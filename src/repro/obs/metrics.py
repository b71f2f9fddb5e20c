"""Mergeable metrics primitives + a Prometheus-text-exposition registry.

Three first-class instruments — :class:`Counter` (monotone),
:class:`Gauge` (set-to-value), :class:`Histogram` (fixed cumulative
buckets) — plus :class:`TimingAccumulator`, the calls+seconds primitive
that the engine's ``StageTiming`` is built on, so the repo has exactly
one timing implementation.

All instruments support :meth:`merge` with another instance of the same
shape (histograms require identical buckets), which is how per-worker
metric sets fold into a coordinator's — the same delta-merging contract
``PipelineProfile.merge`` established for stage timings.

A :class:`MetricsRegistry` owns *direct* instruments (created through
:meth:`MetricsRegistry.counter` etc., optionally labelled) and
*callback* families (:meth:`MetricsRegistry.register_callback`) built at
scrape time from state the registry does not own (the service's
callback projects one ``/stats`` snapshot, see
:func:`repro.service.telemetry.project_stats`).
:meth:`MetricsRegistry.render` emits Prometheus text exposition (format
0.0.4); :func:`lint_exposition` is the pure-python validator behind
``tools/check_metrics.py``; and :func:`parse_exposition` gives tests and
the serve self-test sample values by name and label set.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Callable, Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
    "TimingAccumulator",
    "lint_exposition",
    "parse_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Latency buckets (seconds): sub-5ms cache hits through 10s batch storms.
DEFAULT_BUCKETS = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_TYPES = ("counter", "gauge", "histogram", "untyped")


class TimingAccumulator:
    """Calls + total seconds — the one shared timing primitive.

    The engine's ``StageTiming`` extends it with a halt counter and
    keeps the ``calls`` / ``seconds`` / ``mean_ms`` surface this class
    defines.  Plain picklable data (instances travel inside
    ``PipelineProfile`` to and from process workers); accumulation is
    not internally locked — holders that share instances across threads
    guard them, exactly as ``PipelineProfile`` already does.
    """

    __slots__ = ("calls", "seconds")

    def __init__(self, calls: int = 0, seconds: float = 0.0) -> None:
        self.calls = calls
        self.seconds = seconds

    def observe(self, seconds: float) -> None:
        """Fold one measured duration in."""
        self.calls += 1
        self.seconds += seconds

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.seconds / self.calls if self.calls else 0.0

    def merge(self, other: "TimingAccumulator") -> None:
        self.calls += other.calls
        self.seconds += other.seconds

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimingAccumulator)
            and type(self) is type(other)
            and self.calls == other.calls
            and self.seconds == other.seconds
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(calls={self.calls}, seconds={self.seconds})"


class Counter:
    """A monotonically increasing float counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: float = 0.0) -> None:
        self._value = float(value)
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def merge(self, other: "Counter") -> None:
        self.inc(other.value)


class Gauge:
    """A value that goes up and down (queue depth, bytes, ratios)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, value: float = 0.0) -> None:
        self._value = float(value)
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def merge(self, other: "Gauge") -> None:
        """Gauges merge by taking the max (the conventional aggregate
        for sizes/depths across workers; override by setting directly)."""
        with self._lock:
            self._value = max(self._value, other.value)


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds, strictly increasing; a
    ``+Inf`` bucket is implicit.  :meth:`observe` is O(log buckets).
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        uppers = tuple(float(b) for b in buckets)
        if not uppers:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(uppers, uppers[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if any(math.isinf(b) for b in uppers):
            raise ValueError("+Inf bucket is implicit; pass finite bounds")
        self.buckets = uppers
        self._counts = [0] * (len(uppers) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """``(cumulative_counts_incl_inf, sum, count)`` under the lock."""
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        cumulative: list[int] = []
        running = 0
        for count in counts:
            running += count
            cumulative.append(running)
        return cumulative, total_sum, total_count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            counts = list(other._counts)
            other_sum, other_count = other._sum, other._count
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += count
            self._sum += other_sum
            self._count += other_count


# ----------------------------------------------------------------- families
class Sample:
    """One exposition line: ``name{labels} value`` (suffix for histograms)."""

    __slots__ = ("suffix", "labels", "value")

    def __init__(
        self,
        value: float,
        labels: Iterable[tuple[str, str]] = (),
        suffix: str = "",
    ) -> None:
        self.value = value
        self.labels = tuple(labels)
        self.suffix = suffix


class MetricFamily:
    """A named metric with HELP/TYPE metadata and its current samples."""

    __slots__ = ("name", "type", "help", "samples")

    def __init__(
        self, name: str, type: str, help: str, samples: list[Sample]
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if type not in _TYPES:
            raise ValueError(f"invalid metric type {type!r}")
        self.name = name
        self.type = type
        self.help = help
        self.samples = samples


class _Labelled:
    """Per-label-value children of one labelled instrument."""

    __slots__ = ("label_names", "_factory", "_children", "_lock")

    def __init__(self, label_names: tuple[str, ...], factory: Callable) -> None:
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.label_names = label_names
        self._factory = factory
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels):
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"expected labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._factory()
            return child

    def items(self) -> list[tuple[tuple[tuple[str, str], ...], object]]:
        with self._lock:
            children = dict(self._children)
        return [
            (tuple(zip(self.label_names, key)), child)
            for key, child in sorted(children.items())
        ]


class MetricsRegistry:
    """Direct instruments + scrape-time callbacks, rendered as one page.

    Direct instruments (``registry.counter(...)``) are for events the
    instrumented code observes itself (HTTP requests, latencies).
    Callbacks (``registry.register_callback(fn)``) return families built
    when the page is scraped from state owned by other components.
    """

    def __init__(self) -> None:
        self._direct: dict[str, tuple[str, str, object]] = {}
        self._callbacks: list[Callable[[], Iterable[MetricFamily]]] = []
        self._lock = threading.Lock()

    # -------------------------------------------------------- registration
    def _register(self, name: str, type: str, help: str, instrument):
        with self._lock:
            if name in self._direct:
                raise ValueError(f"metric {name!r} already registered")
            self._direct[name] = (type, help, instrument)
        return instrument

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()):
        """Register a counter (a :class:`_Labelled` family if labelled)."""
        instrument = (
            Counter() if not labelnames else _Labelled(tuple(labelnames), Counter)
        )
        return self._register(name, "counter", help, instrument)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()):
        instrument = (
            Gauge() if not labelnames else _Labelled(tuple(labelnames), Gauge)
        )
        return self._register(name, "gauge", help, instrument)

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        """Register a histogram (a :class:`_Labelled` family if labelled).

        Labelled children share ``buckets``, so every ``{route=...}``
        series of one family stays merge- and render-compatible.
        """
        instrument = (
            Histogram(buckets)
            if not labelnames
            else _Labelled(tuple(labelnames), lambda: Histogram(buckets))
        )
        return self._register(name, "histogram", help, instrument)

    def register_callback(
        self, fn: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Add a scrape-time producer of :class:`MetricFamily` objects."""
        with self._lock:
            self._callbacks.append(fn)

    # ------------------------------------------------------------- scraping
    def collect(self) -> list[MetricFamily]:
        """Every family, direct and callback-produced, sorted by name."""
        with self._lock:
            direct = list(self._direct.items())
            callbacks = list(self._callbacks)
        families: list[MetricFamily] = []
        for name, (type_, help_, instrument) in direct:
            families.append(
                MetricFamily(name, type_, help_, _samples_of(instrument))
            )
        for callback in callbacks:
            families.extend(callback())
        families.sort(key=lambda family: family.name)
        return families

    def render(self) -> str:
        """Prometheus text exposition (format 0.0.4) of :meth:`collect`."""
        lines: list[str] = []
        for family in self.collect():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for sample in family.samples:
                label_text = _format_labels(sample.labels)
                lines.append(
                    f"{family.name}{sample.suffix}{label_text} "
                    f"{_format_value(sample.value)}"
                )
        return "\n".join(lines) + "\n"


def _samples_of(instrument) -> list[Sample]:
    if isinstance(instrument, (Counter, Gauge)):
        return [Sample(instrument.value)]
    if isinstance(instrument, Histogram):
        return _histogram_samples(instrument)
    if isinstance(instrument, _Labelled):
        samples: list[Sample] = []
        for labels, child in instrument.items():
            if isinstance(child, Histogram):
                for sub in _histogram_samples(child):
                    samples.append(
                        Sample(sub.value, labels + sub.labels, sub.suffix)
                    )
            else:
                samples.append(Sample(child.value, labels))
        return samples
    raise TypeError(f"unknown instrument {instrument!r}")


def _histogram_samples(histogram: Histogram) -> list[Sample]:
    cumulative, total_sum, total_count = histogram.snapshot()
    samples = [
        Sample(count, (("le", _format_value(upper)),), "_bucket")
        for upper, count in zip(histogram.buckets, cumulative)
    ]
    samples.append(Sample(cumulative[-1], (("le", "+Inf"),), "_bucket"))
    samples.append(Sample(total_sum, (), "_sum"))
    samples.append(Sample(total_count, (), "_count"))
    return samples


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


# ----------------------------------------------------------------- linting
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def _parse_labels(text: str | None) -> tuple[tuple[str, str], ...] | None:
    """Parse ``{a="x",b="y"}`` into pairs; None on malformed syntax."""
    if not text:
        return ()
    inner = text[1:-1].strip().rstrip(",")
    if not inner:
        return ()
    pairs: list[tuple[str, str]] = []
    position = 0
    while position < len(inner):
        match = _LABEL_PAIR_RE.match(inner, position)
        if match is None:
            return None
        value = match.group(2)
        value = (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        pairs.append((match.group(1), value))
        position = match.end()
        if position < len(inner):
            if inner[position] != ",":
                return None
            position += 1
    return tuple(pairs)


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse exposition text into ``{family: {"type", "help", "samples"}}``.

    ``samples`` maps ``(sample_name, labels_tuple)`` → float value, where
    ``sample_name`` includes any histogram suffix.  Raises
    :class:`ValueError` on lines that do not parse (use
    :func:`lint_exposition` for a full diagnostic sweep).
    """
    families: dict[str, dict] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if base != sample_name and base in families:
                if families[base]["type"] == "histogram":
                    return base
        return sample_name

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(None, 3)
            name = parts[2]
            entry = families.setdefault(
                name, {"type": "untyped", "help": "", "samples": {}}
            )
            if parts[1] == "TYPE":
                entry["type"] = parts[3] if len(parts) > 3 else "untyped"
            else:
                entry["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: unparseable sample {raw!r}")
        labels = _parse_labels(match.group("labels"))
        if labels is None:
            raise ValueError(f"line {line_number}: malformed labels in {raw!r}")
        value_text = match.group("value")
        value = (
            math.inf
            if value_text == "+Inf"
            else -math.inf
            if value_text == "-Inf"
            else float(value_text)
        )
        sample_name = match.group("name")
        entry = families.setdefault(
            family_of(sample_name),
            {"type": "untyped", "help": "", "samples": {}},
        )
        entry["samples"][(sample_name, labels)] = value
    return families


def sample_value(
    families: dict[str, dict], name: str, **labels
) -> float | None:
    """Look one sample up from :func:`parse_exposition` output."""
    wanted = tuple(sorted((k, str(v)) for k, v in labels.items()))
    for suffix in ("", "_bucket", "_sum", "_count"):
        base = name.removesuffix(suffix) if suffix else name
        entry = families.get(base) or families.get(name)
        if entry is None:
            continue
        for (sample_name, sample_labels), value in entry["samples"].items():
            if sample_name == name and tuple(sorted(sample_labels)) == wanted:
                return value
    return None


def lint_exposition(text: str) -> list[str]:
    """Validate Prometheus text exposition; returns a list of problems.

    Checks (the ``promtool check metrics`` essentials, pure python):
    metric/label name syntax, float-parseable values, ``TYPE``/``HELP``
    before the family's samples and at most once, known types, counters
    ending in ``_total``, no duplicate ``(name, labels)`` samples,
    histogram completeness (``le`` labels, monotone cumulative buckets,
    a ``+Inf`` bucket equal to ``_count``, ``_sum``/``_count`` present),
    and a trailing newline.
    """
    problems: list[str] = []
    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    meta: dict[str, dict] = {}
    seen_samples: set[tuple[str, tuple]] = set()
    sample_rows: list[tuple[int, str, tuple[tuple[str, str], ...], float]] = []

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                kind, name = parts[1], parts[2]
                if not _NAME_RE.match(name):
                    problems.append(
                        f"line {line_number}: invalid metric name {name!r}"
                    )
                entry = meta.setdefault(
                    name, {"type": None, "help": None, "sampled": False}
                )
                if entry["sampled"]:
                    problems.append(
                        f"line {line_number}: {kind} for {name} appears "
                        "after its samples"
                    )
                key = kind.lower()
                if entry[key] is not None:
                    problems.append(
                        f"line {line_number}: duplicate {kind} for {name}"
                    )
                entry[key] = parts[3] if len(parts) > 3 else ""
                if kind == "TYPE" and entry["type"] not in _TYPES:
                    problems.append(
                        f"line {line_number}: unknown TYPE "
                        f"{entry['type']!r} for {name}"
                    )
            continue
        match = _SAMPLE_RE.match(line.strip())
        if match is None:
            problems.append(f"line {line_number}: unparseable line {raw!r}")
            continue
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        if labels is None:
            problems.append(f"line {line_number}: malformed labels {raw!r}")
            continue
        for label_name, _value in labels:
            if not _LABEL_RE.match(label_name):
                problems.append(
                    f"line {line_number}: invalid label name {label_name!r}"
                )
        value_text = match.group("value")
        if value_text not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value_text)
            except ValueError:
                problems.append(
                    f"line {line_number}: unparseable value {value_text!r}"
                )
                continue
        value = (
            math.inf
            if value_text == "+Inf"
            else -math.inf
            if value_text == "-Inf"
            else math.nan
            if value_text == "NaN"
            else float(value_text)
        )
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name.removesuffix(suffix)
            if base != name and base in meta:
                family = base
                break
        if family in meta:
            meta[family]["sampled"] = True
        sample_key = (name, labels)
        if sample_key in seen_samples:
            problems.append(
                f"line {line_number}: duplicate sample {name}"
                f"{_format_labels(labels)}"
            )
        seen_samples.add(sample_key)
        sample_rows.append((line_number, name, labels, value))

    for name, entry in meta.items():
        if entry["type"] == "counter" and not name.endswith("_total"):
            problems.append(f"counter {name} should end in _total")
        if entry["type"] is None:
            problems.append(f"metric {name} has HELP but no TYPE")

    # Histogram shape checks, per family and non-le label set.
    histograms = {
        name for name, entry in meta.items() if entry["type"] == "histogram"
    }
    for family in histograms:
        buckets: dict[tuple, list[tuple[float, float]]] = {}
        counts: dict[tuple, float] = {}
        sums: set[tuple] = set()
        for _line, name, labels, value in sample_rows:
            base_labels = tuple(
                (k, v) for k, v in labels if k != "le"
            )
            if name == f"{family}_bucket":
                le = dict(labels).get("le")
                if le is None:
                    problems.append(
                        f"{family}_bucket sample is missing its le label"
                    )
                    continue
                upper = (
                    math.inf if le == "+Inf" else float(le)
                )
                buckets.setdefault(base_labels, []).append((upper, value))
            elif name == f"{family}_count":
                counts[base_labels] = value
            elif name == f"{family}_sum":
                sums.add(base_labels)
        for base_labels, rows in buckets.items():
            rows.sort(key=lambda row: row[0])
            uppers = [upper for upper, _count in rows]
            values = [count for _upper, count in rows]
            if uppers[-1] != math.inf:
                problems.append(f"{family}: no +Inf bucket")
            if any(b2 < b1 for b1, b2 in zip(values, values[1:])):
                problems.append(
                    f"{family}: bucket counts are not cumulative/monotone"
                )
            if base_labels in counts and values and (
                values[-1] != counts[base_labels]
            ):
                problems.append(
                    f"{family}: +Inf bucket ({values[-1]:g}) != _count "
                    f"({counts[base_labels]:g})"
                )
            if base_labels not in counts:
                problems.append(f"{family}: missing _count sample")
            if base_labels not in sums:
                problems.append(f"{family}: missing _sum sample")
    return problems
