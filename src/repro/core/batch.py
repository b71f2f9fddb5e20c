"""Batch distillation — the paper's "speed up distillation" future work.

Distilling a corpus one example at a time re-parses and re-scores the same
sentences constantly.  :class:`BatchDistiller` exploits two structural
facts about QA workloads:

* multiple questions share a context (SQuAD has several QAs per
  paragraph), so grouping by context maximizes the parser/attention/LM
  cache hit rate;
* identical (question, answer, context) triples recur across experiment
  conditions, so finished results are memoized.

Scheduling is delegated to an :mod:`engine executor
<repro.engine.executor>`: ``workers=1`` runs inline, ``workers>1`` fans
context-grouped chunks out to a process pool while preserving
input order and memoization.  Per-stage wall-clock and shared-cache hit
rates aggregate into a :class:`~repro.engine.instrumentation.PipelineProfile`
exposed through :meth:`BatchDistiller.stats` / :meth:`profile`.
"""

from __future__ import annotations

import contextlib
import operator
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.pipeline import GCED, DistillationResult
from repro.engine.executor import WarmupReport, build_executor
from repro.engine.instrumentation import CacheStats, PipelineProfile
from repro.faults import CircuitBreaker, fault_point, install_from_env
from repro.obs import trace as obs_trace
from repro.obs.logs import get_logger
from repro.utils.cache import LRUCache, MISSING

_log = get_logger("batch")

__all__ = ["BatchDistiller", "BatchStats"]

Triple = tuple[str, str, str]

_by_context = operator.itemgetter(2)


def _traced_task_context(task) -> str:
    """Context-locality key for ``(triple, trace_id, parent_id)`` tasks."""
    return task[0][2]

# Per-process pipeline installed by the process-pool initializer, so each
# task ships a (question, answer, context) triple instead of the pipeline.
_WORKER_GCED: GCED | None = None


def _init_worker(gced: GCED) -> None:
    """Install the per-process pipeline.

    Under the ``fork`` start method ``gced`` is the coordinator's own
    object, inherited with no pickling; other start methods unpickle a
    full copy (caches included) into each worker.
    """
    global _WORKER_GCED
    # Re-read the fault plan in every (re)spawned worker: respawn after a
    # crash starts fresh processes, and chaos plans must reach them too.
    install_from_env()
    _WORKER_GCED = gced


def _worker_pid() -> int | None:
    """Warmup probe: this worker's pid, once its initializer has run."""
    return os.getpid() if _WORKER_GCED is not None else None


def _worker_distill(triple: Triple) -> tuple[DistillationResult, PipelineProfile]:
    """Distill in a pool worker, returning the result plus the profile
    *delta* (stage timings and cache hits attributable to this call) so
    the parent can aggregate observability across processes."""
    gced = _WORKER_GCED
    assert gced is not None, "process pool initializer did not run"
    fault_point("worker.distill", detail=triple[2])
    delta = PipelineProfile()
    parent_profile, gced.profile = gced.profile, delta
    before = {
        name: cache.snapshot()[:2]
        for name, cache in gced.shared_caches().items()
    }
    try:
        result = gced.distill(*triple)
    finally:
        gced.profile = parent_profile
    for name, cache in gced.shared_caches().items():
        hits0, misses0 = before.get(name, (0, 0))
        snap = cache.snapshot()
        delta.record_cache(
            CacheStats(
                name=name,
                hits=snap.hits - hits0,
                misses=snap.misses - misses0,
                size=snap.size,
            )
        )
    return result, delta


def _worker_distill_traced(
    task: tuple[Triple, str, str | None],
) -> tuple[DistillationResult, PipelineProfile, list[obs_trace.Span]]:
    """Traced variant of :func:`_worker_distill` for pool workers.

    The worker opens its own trace joined to the coordinator's
    ``trace_id``, rooted under the coordinator-side ``parent_id``, and
    ships the finished (picklable) span list back with the result so the
    parent folds it into the live trace — the span analogue of the
    profile delta.
    """
    triple, trace_id, parent_id = task
    with obs_trace.start_trace(
        "worker.distill", trace_id=trace_id, parent_id=parent_id,
        pid=os.getpid(),
    ) as handle:
        result, delta = _worker_distill(triple)
    return result, delta, list(handle.trace.spans)


@dataclass(frozen=True)
class BatchStats:
    """Aggregate statistics for a batch run."""

    n_distilled: int
    n_cache_hits: int
    total_seconds: float
    mean_ms: float
    mean_reduction: float
    cache_stats: tuple[CacheStats, ...] = ()
    profile: PipelineProfile | None = field(default=None, compare=False)

    def summary(self) -> str:
        text = (
            f"{self.n_distilled} distilled "
            f"({self.n_cache_hits} cache hits), "
            f"{self.total_seconds:.2f}s total, "
            f"{self.mean_ms:.1f}ms/example, "
            f"{100 * self.mean_reduction:.1f}% mean word reduction"
        )
        cache_parts = [
            stats.describe() for stats in self.cache_stats if stats.lookups
        ]
        if cache_parts:
            text += "; shared caches: " + ", ".join(cache_parts)
        return text


class BatchDistiller:
    """Distills many (question, answer, context) triples efficiently.

    Args:
        gced: the configured pipeline.
        cache_size: memoized finished results (LRU).
        workers: parallelism for :meth:`distill_many`: 1 runs inline,
            more runs a process pool whose workers inherit ``gced`` when
            they fork (0 = one per CPU).
        backend: ``"process"``, the only pool kind; other values raise.
        breaker_failures / breaker_reset_s: circuit-breaker tuning for
            the process pool — after ``breaker_failures`` consecutive
            unrecovered pool breaks, batches run serially in the
            coordinator (degraded but correct) until a half-open trial
            succeeds ``breaker_reset_s`` seconds later.
    """

    def __init__(
        self,
        gced: GCED,
        cache_size: int = 4096,
        workers: int = 1,
        backend: str = "process",
        breaker_failures: int = 3,
        breaker_reset_s: float = 30.0,
    ) -> None:
        if backend != "process":
            raise ValueError(
                f"backend={backend!r} is not supported: the thread backend "
                "was removed; workers > 1 always runs a process pool"
            )
        self.gced = gced
        n_workers = workers if workers > 0 else (os.cpu_count() or 1)
        pool_kwargs = {}
        if n_workers > 1:
            pool_kwargs = {"initializer": _init_worker, "initargs": (gced,)}
        self.executor = build_executor(workers=n_workers, **pool_kwargs)
        self._worker_profile = PipelineProfile()
        # Warm start: spawn pool workers (and run the pipeline initializer
        # in each) now, so the first batch measures distillation, not
        # worker startup.  The probe reports each initialized worker's pid.
        warmup: WarmupReport = self.executor.warmup(probe=_worker_pid)
        self._worker_profile.count("pool_warmup_ms", round(warmup.seconds * 1000.0, 3))
        self._results = LRUCache(capacity=cache_size)
        # Guards the run counters below: the serving scheduler may flush a
        # batch while another thread reads stats() or distills inline.
        self._stats_lock = threading.Lock()
        self._n_distilled = 0
        self._n_hits = 0
        # Wall-clock seconds spent distilling (memo hits excluded).
        self._distill_seconds = 0.0
        # Summed in record order, so mean_reduction equals the mean
        # over every result distilled so far.
        self._reduction_sum = 0.0
        # Trips open after repeated unrecovered pool breaks; while open,
        # _execute() degrades to serial in-parent execution.
        self.pool_breaker = CircuitBreaker(
            name="process_pool",
            failure_threshold=breaker_failures,
            reset_after_s=breaker_reset_s,
        )
        self._degraded_batches = 0

    # ------------------------------------------------------------- single
    def distill_one(
        self, question: str, answer: str, context: str
    ) -> DistillationResult:
        """Distill a single triple through the memo cache."""
        key = (question, answer, context)
        cached = self._results.get(key, MISSING)
        if cached is not MISSING:
            with self._stats_lock:
                self._n_hits += 1
            return cached
        with self._timed():
            result = self.gced.distill(question, answer, context)
        self._record(key, result)
        return result

    def memo_lookup(self, triple: Triple) -> DistillationResult:
        """The memoized result for ``triple``, or ``MISSING``.

        A hit is accounted exactly as :meth:`distill_many` accounts it; a
        miss is not counted, since the triple goes on to a
        :meth:`distill_many` call that counts it.
        """
        cached = self._results.get(tuple(triple), MISSING, count_miss=False)
        if cached is not MISSING:
            with self._stats_lock:
                self._n_hits += 1
        return cached

    @contextlib.contextmanager
    def _timed(self):
        """Add the block's wall-clock to the distill total, even on error."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._stats_lock:
                self._distill_seconds += elapsed

    def _record(self, key: Triple, result: DistillationResult) -> None:
        self._results.put(key, result)
        with self._stats_lock:
            self._n_distilled += 1
            self._reduction_sum += result.reduction

    # -------------------------------------------------------------- batch
    def distill_many(
        self, triples: Iterable[Triple]
    ) -> list[DistillationResult]:
        """Distill a sequence of triples, grouped by context for locality.

        Duplicate and previously-memoized triples are distilled only once
        (every extra occurrence counts as a cache hit); the rest is
        scheduled on the executor as context-grouped chunks.  The returned
        list preserves the input order.
        """
        triples = [tuple(t) for t in triples]
        results: list[DistillationResult | None] = [None] * len(triples)
        pending: dict[Triple, list[int]] = {}
        for idx, key in enumerate(triples):
            if key in pending:
                # Within-batch duplicate: one distillation will serve it.
                # Credited as a memo hit once the result lands, without a
                # second (miss-counting) lookup now.
                pending[key].append(idx)
                continue
            cached = self._results.get(key, MISSING)
            if cached is not MISSING:
                with self._stats_lock:
                    self._n_hits += 1
                results[idx] = cached
            else:
                pending[key] = [idx]

        if pending:
            jobs = list(pending)
            with self._timed():
                outcomes = self._execute(jobs)
            for key, result in zip(jobs, outcomes):
                self._record(key, result)
                positions = pending[key]
                with self._stats_lock:
                    self._n_hits += len(positions) - 1
                self._results.record_hits(len(positions) - 1)
                for idx in positions:
                    results[idx] = result
        return results  # type: ignore[return-value]

    def _execute(self, jobs: list[Triple]) -> list[DistillationResult]:
        """Run unique jobs on the executor, folding back worker profiles.

        Serial execution runs in the caller's own trace context.  On the
        pool the trace crosses the process boundary explicitly: workers
        open a joined trace and ship their span buffer back with the
        result exactly like the profile delta.
        """
        if self.executor.workers > 1:
            active = obs_trace.current()
            if self.pool_breaker.allow():
                try:
                    results = self._execute_process(jobs, active)
                except BrokenProcessPool:
                    # The executor already respawned and retried once;
                    # landing here means the pool broke twice in a row.
                    self.pool_breaker.record_failure()
                    _log.warning(
                        "process pool unrecovered; running batch serially "
                        "in the coordinator",
                        exc_info=True,
                        jobs=len(jobs),
                        breaker=self.pool_breaker.state,
                    )
                else:
                    self.pool_breaker.record_success()
                    return results
            return self._execute_degraded(jobs)
        return self.executor.map(self._distill_uncached, jobs, key=_by_context)

    def _execute_process(
        self, jobs: list[Triple], active
    ) -> list[DistillationResult]:
        """The happy-path process-pool fan-out (traced or not)."""
        if active is not None:
            trace, parent_id = active
            tasks = [(job, trace.trace_id, parent_id) for job in jobs]
            rows = self.executor.map(
                _worker_distill_traced, tasks, key=_traced_task_context
            )
            for _result, delta, spans in rows:
                self._worker_profile.merge(delta)
                trace.extend(spans)
            return [result for result, _delta, _spans in rows]
        pairs = self.executor.map(_worker_distill, jobs, key=_by_context)
        for _result, delta in pairs:
            self._worker_profile.merge(delta)
        return [result for result, _delta in pairs]

    def _execute_degraded(self, jobs: list[Triple]) -> list[DistillationResult]:
        """Serial in-parent fallback when the process pool is unusable.

        Same outputs as the pool path (the pipeline is deterministic per
        triple), just slower, and traced in the caller's own context.
        If one job genuinely fails mid-batch, the completed batch-mates
        are memoized *before* the error propagates, so the scheduler's
        per-request retry serves them from the memo and only the
        poisoned item surfaces an error.
        """
        with self._stats_lock:
            self._degraded_batches += 1
        results: list[DistillationResult | None] = [None] * len(jobs)
        done: list[tuple[Triple, DistillationResult]] = []
        for i in sorted(range(len(jobs)), key=lambda i: jobs[i][2]):
            try:
                results[i] = self.gced.distill(*jobs[i])
            except Exception:
                for key, result in done:
                    self._record(key, result)
                raise
            done.append((jobs[i], results[i]))
        return results  # type: ignore[return-value]

    def _distill_uncached(self, triple: Triple) -> DistillationResult:
        return self.gced.distill(*triple)

    def distill_examples(self, examples: Sequence) -> list[DistillationResult]:
        """Convenience wrapper over :class:`repro.datasets.types.QAExample`."""
        return self.distill_many(
            (e.question, e.primary_answer, e.context) for e in examples
        )

    # ------------------------------------------------------ observability
    @property
    def degraded(self) -> bool:
        """True while the pool breaker is open/half-open (serial fallback)."""
        return self.pool_breaker.degraded

    def recovery_info(self) -> dict:
        """Crash-recovery state for ``/stats``, ``/metrics``, and benches."""
        recovery = getattr(self.executor, "recovery_stats", None)
        executor_stats = (
            recovery()
            if callable(recovery)
            else {"pool_breaks": 0, "chunk_retries": 0, "last_recovery_ms": 0.0}
        )
        with self._stats_lock:
            degraded_batches = self._degraded_batches
        return {
            "degraded": self.degraded,
            "degraded_batches": degraded_batches,
            "breaker": self.pool_breaker.stats(),
            "executor": executor_stats,
        }

    def snapshot_info(self) -> None:
        """Always None: workers inherit the pipeline, nothing is packed."""
        return None

    def profile(self) -> PipelineProfile:
        """Combined per-stage/per-cache profile of all work so far.

        Serial execution accumulates directly on the pipeline; process
        workers ship profile deltas back with each result.  The memo
        cache of finished results appears as ``results``.
        """
        combined = PipelineProfile()
        combined.merge(self.gced.snapshot_caches())
        combined.merge(self._worker_profile)
        snap = self._results.snapshot()
        combined.record_cache(
            CacheStats(
                name="results",
                hits=snap.hits,
                misses=snap.misses,
                size=snap.size,
            )
        )
        return combined

    def stats(self) -> BatchStats:
        with self._stats_lock:
            total = self._distill_seconds
            n_distilled = self._n_distilled
            n_hits = self._n_hits
            reduction_sum = self._reduction_sum
        n = max(1, n_distilled)
        profile = self.profile()
        return BatchStats(
            n_distilled=n_distilled,
            n_cache_hits=n_hits,
            total_seconds=total,
            mean_ms=1000.0 * total / n,
            mean_reduction=(
                reduction_sum / n_distilled if n_distilled else 0.0
            ),
            cache_stats=tuple(
                profile.caches[name] for name in sorted(profile.caches)
            ),
            profile=profile,
        )

    def close(self) -> None:
        """Shut down the worker pool."""
        self.executor.close()

    def __enter__(self) -> "BatchDistiller":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
