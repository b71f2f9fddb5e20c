"""Request tracing: hierarchical spans propagated through ``contextvars``.

The model is deliberately small:

* a :class:`Trace` is a flat, thread-safe bag of finished :class:`Span`
  records sharing one ``trace_id``;
* a :class:`Span` is a named ``[start, end]`` wall-clock interval with a
  ``parent_id`` pointing at the enclosing span, so the flat bag always
  reassembles into a tree (:func:`repro.obs.render.render_trace`);
* the *active* position — which trace, under which parent span — lives
  in one :data:`contextvars.ContextVar`, so nested :func:`span` calls
  parent correctly through plain function calls without any plumbing.

**Cost model.** Nothing in this module keeps global mutable state beyond
the context variable and an id counter.  Tracing is "off" simply when no
trace has been activated on the current context: :func:`span` then costs
one context-variable read and a ``None`` check and returns a shared
no-op handle.  That is the whole disabled-path overhead, which
``benchmarks/bench_obs_overhead.py`` measures and CI gates.

**Cross-thread / cross-process propagation.**  Context variables do not
cross pool boundaries on their own:

* another thread (the serving scheduler's flusher) re-activates an
  explicit ``(trace, parent_id)`` pair via :func:`activate` /
  :func:`deactivate`;
* process workers open their own :class:`TraceHandle` with the parent's
  ``trace_id`` and ``parent_id`` (spans are picklable), ship the
  finished span list back with the result, and the coordinator folds it
  into the live trace with :meth:`Trace.extend` — the same
  merge-the-delta pattern ``PipelineProfile.merge`` uses.

Span timestamps are ``time.time()`` wall clock: within one host it is
shared across processes, so worker span intervals nest inside their
parent span without any clock translation.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time

__all__ = [
    "Span",
    "Trace",
    "TraceHandle",
    "activate",
    "current",
    "current_trace",
    "current_trace_id",
    "deactivate",
    "new_trace_id",
    "record_event",
    "span",
    "start_trace",
]

# (trace, parent_span_id) for the code currently executing, or None when
# the request is not being traced.
_active: contextvars.ContextVar = contextvars.ContextVar(
    "gced_active_span", default=None
)

# Span ids are "<pid hex>.<counter hex>": unique within a process by the
# counter, across processes by the pid — no randomness, so tracing can
# never perturb seeded RNG state (outputs stay byte-identical).
_span_counter = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (``os.urandom``; no RNG state touched)."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    return f"{os.getpid():x}.{next(_span_counter):x}"


class Span:
    """One named wall-clock interval inside a trace.

    Plain picklable data (``__slots__``, stdlib types only) so process
    workers can ship finished spans back to the coordinator.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end", "tags")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str | None = None,
        parent_id: str | None = None,
        start: float = 0.0,
        end: float = 0.0,
        tags: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id or _new_span_id()
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.tags = tags

    @property
    def duration_ms(self) -> float:
        return max(0.0, (self.end - self.start) * 1000.0)

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.tags:
            payload["tags"] = dict(self.tags)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f}ms, "
            f"id={self.span_id}, parent={self.parent_id})"
        )


class Trace:
    """A thread-safe bag of finished spans sharing one trace id."""

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def extend(self, spans: list[Span]) -> None:
        """Fold spans recorded elsewhere (e.g. a process worker) in."""
        with self._lock:
            self.spans.extend(spans)

    def root(self) -> Span | None:
        """The first recorded parentless span, if any."""
        with self._lock:
            for span in self.spans:
                if span.parent_id is None:
                    return span
        return None

    @property
    def duration_ms(self) -> float:
        root = self.root()
        return root.duration_ms if root is not None else 0.0

    def to_dict(self) -> dict:
        with self._lock:
            spans = sorted(self.spans, key=lambda s: (s.start, s.span_id))
            return {
                "trace_id": self.trace_id,
                "n_spans": len(spans),
                "spans": [span.to_dict() for span in spans],
            }


class _NullSpanHandle:
    """The shared no-op handle :func:`span` returns when not tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def tag(self, **tags) -> "_NullSpanHandle":
        return self


_NULL_SPAN = _NullSpanHandle()


class _SpanHandle:
    """Context manager recording one span and re-parenting the context."""

    __slots__ = ("trace", "span", "_token")

    def __init__(self, trace: Trace, span: Span) -> None:
        self.trace = trace
        self.span = span
        self._token = None

    def __enter__(self) -> "_SpanHandle":
        self.span.start = time.time()
        self._token = _active.set((self.trace, self.span.span_id))
        return self

    def __exit__(self, *exc_info) -> None:
        self.span.end = time.time()
        if self._token is not None:
            _active.reset(self._token)
            self._token = None
        self.trace.add(self.span)

    def tag(self, **tags) -> "_SpanHandle":
        if self.span.tags is None:
            self.span.tags = {}
        self.span.tags.update(tags)
        return self


def span(name: str, **tags):
    """Open a child span under the active trace (no-op when untraced).

    >>> with span("stage.clip", reason="size"):
    ...     ...

    The returned handle supports ``.tag(key=value)`` for facts known
    only after the work ran.
    """
    active = _active.get()
    if active is None:
        return _NULL_SPAN
    trace, parent_id = active
    return _SpanHandle(
        trace,
        Span(name, trace.trace_id, parent_id=parent_id, tags=tags or None),
    )


class TraceHandle:
    """A whole trace: root span + context activation, as one ``with``.

    Created by :func:`start_trace`.  While entered, every :func:`span`
    on the same context (and anything the batch layers re-activate the
    context into) records into :attr:`trace`.  After exit the root span
    is finished and the trace is complete — ship :attr:`trace` (or its
    :meth:`Trace.to_dict`) wherever it needs to go.
    """

    __slots__ = ("trace", "root", "_token")

    def __init__(self, trace: Trace, root: Span) -> None:
        self.trace = trace
        self.root = root
        self._token = None

    @property
    def trace_id(self) -> str:
        return self.trace.trace_id

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def tag(self, **tags) -> "TraceHandle":
        if self.root.tags is None:
            self.root.tags = {}
        self.root.tags.update(tags)
        return self

    def __enter__(self) -> "TraceHandle":
        self.root.start = time.time()
        self._token = _active.set((self.trace, self.root.span_id))
        return self

    def __exit__(self, *exc_info) -> None:
        self.root.end = time.time()
        if self._token is not None:
            _active.reset(self._token)
            self._token = None
        self.trace.add(self.root)

    def to_dict(self) -> dict:
        return self.trace.to_dict()


def start_trace(
    name: str,
    trace_id: str | None = None,
    parent_id: str | None = None,
    **tags,
) -> TraceHandle:
    """Begin a new trace rooted at a span called ``name``.

    ``trace_id`` joins an existing distributed trace (the ``X-Trace-Id``
    header, or the coordinator's id inside a process worker);
    ``parent_id`` parents the root span on a span recorded in another
    process, which is how worker-side spans nest under the coordinator's
    span once merged back.
    """
    trace = Trace(trace_id)
    root = Span(name, trace.trace_id, parent_id=parent_id, tags=tags or None)
    return TraceHandle(trace, root)


# --------------------------------------------------------------- low level
def current():
    """The active ``(trace, parent_span_id)`` pair, or ``None``."""
    return _active.get()


def current_trace() -> Trace | None:
    active = _active.get()
    return active[0] if active is not None else None


def current_trace_id() -> str | None:
    active = _active.get()
    return active[0].trace_id if active is not None else None


def activate(trace: Trace, parent_id: str | None):
    """Make ``(trace, parent_id)`` current on this thread; returns a token.

    Used by worker threads that must record into a trace started on
    another thread (context variables do not propagate into pools).
    Always pair with :func:`deactivate` in a ``finally``.
    """
    return _active.set((trace, parent_id))


def deactivate(token) -> None:
    _active.reset(token)


def record_event(
    trace: Trace, name: str, parent_id: str | None = None, **tags
) -> Span:
    """Record an instantaneous (zero-duration) span, e.g. a coalesce hit."""
    now = time.time()
    span = Span(
        name,
        trace.trace_id,
        parent_id=parent_id,
        start=now,
        end=now,
        tags=tags or None,
    )
    trace.add(span)
    return span
