"""Batch executors — who runs the pipeline over many items, and where.

:class:`SerialExecutor` runs everything inline; :class:`ParallelExecutor`
fans chunks out to a process pool.  Both present the same ``map``
contract:

* the returned list preserves input order, always;
* an optional ``key`` groups similar items (e.g. same context paragraph)
  into the same chunk, so each worker's caches stay hot;
* chunks execute as single tasks, bounding scheduling overhead.

Process pools need picklable work: pass a module-level ``fn`` and use
``initializer``/``initargs`` to install heavyweight state (a configured
pipeline) once per worker instead of once per task.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.faults import fault_point
from repro.obs.logs import get_logger

_log = get_logger("executor")

__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "WarmupReport",
    "build_executor",
]

@dataclass(frozen=True)
class WarmupReport:
    """Timing and per-worker findings of one :meth:`Executor.warmup`.

    Attributes:
        seconds: wall-clock of the warmup barrier (pool spawn plus every
            initializer run for pools; ~0 for serial).
        worker_infos: whatever the warmup probes returned, one entry per
            non-None probe result (process pools report per-worker facts
            like snapshot-load milliseconds here).
    """

    seconds: float = 0.0
    worker_infos: tuple = field(default=())


class Executor:
    """Common interface: ordered ``map`` with optional locality grouping."""

    workers: int = 1

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        key: Callable[[Any], Any] | None = None,
    ) -> list:
        raise NotImplementedError

    def warmup(self, probe: Callable | None = None) -> WarmupReport:
        """Spin up pool workers now (no-op for serial execution).

        Long-lived callers (the batch distiller, the serving layer) call
        this at construction so worker spawn and per-worker initializers
        — unpickling a configured pipeline is the expensive part — run
        during startup instead of inside the first measured ``map``.
        Returns a :class:`WarmupReport`; ``probe`` (a picklable zero-arg
        callable) replaces the default barrier task so callers can
        collect per-worker facts.
        """
        return WarmupReport()

    def close(self) -> None:
        """Release pool resources (no-op for serial execution)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Runs every item inline, in input order.

    The ``key`` grouping still applies (items are *processed* in locality
    order) so serial and parallel runs traverse caches the same way.
    """

    workers = 1

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        key: Callable[[Any], Any] | None = None,
    ) -> list:
        items = list(items)
        fault_point("executor.map", detail=f"serial:{len(items)}")
        results: list[Any] = [None] * len(items)
        for idx in _locality_order(items, key):
            results[idx] = fn(items[idx])
        return results


class ParallelExecutor(Executor):
    """Process-pool executor with context-grouped chunking.

    Work runs in true parallelism with per-worker caches, so ``fn`` and
    the items must be picklable.

    Args:
        workers: pool size (≥ 1; ``0`` means one per CPU).
        chunks_per_worker: how many chunks to cut per worker — higher
            values balance skewed chunk costs, lower values maximize
            per-chunk cache locality.
        initializer / initargs: run once in each pool worker before any
            task; use for per-process pipeline setup.

    The pool is created lazily on first ``map`` and reused until
    :meth:`close`, so process workers amortize their setup cost across
    batches.
    """

    def __init__(
        self,
        workers: int = 2,
        chunks_per_worker: int = 4,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be at least 1")
        self.workers = workers or os.cpu_count() or 1
        self.chunks_per_worker = chunks_per_worker
        self._initializer = initializer
        self._initargs = initargs
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self.last_warmup: WarmupReport | None = None
        # Crash-recovery bookkeeping (see map()): how many times the
        # process pool broke, how many chunks were re-run after a
        # respawn, and the wall-clock of the most recent recovery.
        self.pool_breaks = 0
        self.chunk_retries = 0
        self.last_recovery_ms = 0.0

    def _ensure_pool(self):
        # Double-checked under a lock: concurrent first maps (e.g. two
        # scheduler flushes racing) must not each create a pool, which
        # would leak the loser's worker processes.
        if self._pool is None:
            with self._pool_lock:
                if self._closed:
                    # Refuse, loudly: recreating the pool here used to
                    # silently resurrect a closed executor — workers (and
                    # their initializer state, possibly a now-unlinked
                    # snapshot) respawned behind the caller's back.
                    raise RuntimeError(
                        "executor is closed; create a new one instead of "
                        "mapping on a closed executor"
                    )
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=self._initializer,
                        initargs=self._initargs,
                    )
        return self._pool

    def set_initargs(self, initargs: tuple) -> None:
        """Replace the initializer arguments for *future* pool spawns.

        Existing workers are untouched — callers refresh them in place
        (e.g. by broadcasting an adopt task); this only ensures a later
        :meth:`_respawn` re-initializes workers from current state (a
        fresh snapshot handle) instead of the one captured at build time.
        """
        with self._pool_lock:
            self._initargs = initargs

    def warmup(self, probe: Callable | None = None) -> WarmupReport:
        """Create the pool and run per-worker initializers eagerly.

        Submits one barrier task per worker so process workers spawn (and
        unpickle their initializer state — the warm pipeline) now rather
        than lazily inside the first real batch.  Best effort: a fast
        worker may serve several barriers, but the dominant cost (pool
        creation plus initializer runs for every spawned worker) is paid
        here either way.  Idempotent; safe to call on a warm pool.  The
        report (also kept as ``last_warmup``) carries the barrier's
        wall-clock and the non-None probe results.
        """
        started = time.perf_counter()
        pool = self._ensure_pool()
        task = probe or _warm_worker
        infos = []
        for future in [pool.submit(task) for _ in range(self.workers)]:
            info = future.result()
            if info is not None:
                infos.append(info)
        report = WarmupReport(
            seconds=time.perf_counter() - started, worker_infos=tuple(infos)
        )
        self.last_warmup = report
        return report

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        key: Callable[[Any], Any] | None = None,
    ) -> list:
        items = list(items)
        if not items:
            return []
        fault_point("executor.map", detail=f"process:{len(items)}")
        order = _locality_order(items, key)
        chunks = _chunk(order, self.workers * self.chunks_per_worker)
        results: list[Any] = [None] * len(items)
        failed = self._map_chunks(fn, items, chunks, results)
        if failed:
            # A dead worker (kill -9, OOM kill, hard crash) marks the
            # whole ProcessPoolExecutor broken and fails every in-flight
            # chunk, not just the one the victim was running.  Respawn
            # the pool once — fresh workers re-run the initializer,
            # re-hydrating the snapshot, whose segment the coordinator
            # still owns — and retry only the failed chunks.
            started = time.perf_counter()
            self._respawn()
            still_failed = self._map_chunks(fn, items, failed, results)
            with self._pool_lock:
                self.chunk_retries += len(failed) - len(still_failed)
                self.last_recovery_ms = (time.perf_counter() - started) * 1000.0
            if still_failed:
                # Broke twice in a row: respawn again so the executor
                # stays usable (the distiller falls back to serial
                # in-parent execution), then surface the failure.
                self._respawn()
                raise BrokenProcessPool(
                    f"process pool broke twice; {len(still_failed)} chunk(s) "
                    "unrecovered"
                )
        return results

    def _map_chunks(
        self,
        fn: Callable[[Any], Any],
        items: list,
        chunks: list[list[int]],
        results: list,
    ) -> list[list[int]]:
        """Run ``chunks`` on the pool, filling ``results`` in place.

        Returns the chunks that failed with :class:`BrokenProcessPool`
        (submit- or result-side) instead of raising, so the caller can
        retry exactly those after a respawn.  Any other exception — a
        genuine error from ``fn`` — propagates unchanged.
        """
        pool = self._ensure_pool()
        futures: list[tuple[Future, list[int]]] = []
        broken_at = len(chunks)
        for pos, chunk in enumerate(chunks):
            try:
                futures.append(
                    (pool.submit(_run_chunk, fn, [items[i] for i in chunk]), chunk)
                )
            except BrokenProcessPool:
                broken_at = pos
                break
        failed = list(chunks[broken_at:])
        for future, chunk in futures:
            try:
                values = future.result()
            except BrokenProcessPool:
                failed.append(chunk)
                continue
            for idx, value in zip(chunk, values):
                results[idx] = value
        return failed

    def _respawn(self) -> None:
        """Replace a broken pool with a fresh one (same initializer).

        The snapshot handle in ``initargs`` is still valid — the
        coordinator owns the shared-memory segment until :meth:`close`
        — so respawned workers re-hydrate from it in their initializer.
        Raises if the executor was closed meanwhile.
        """
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            pool, self._pool = self._pool, None
            self.pool_breaks += 1
            breaks = self.pool_breaks
        if pool is not None:
            pool.shutdown(wait=True)
        _log.warning(
            "process pool broken; respawning workers",
            workers=self.workers,
            pool_breaks=breaks,
        )

    def recovery_stats(self) -> dict:
        """Pool-break counters for ``/stats`` and the recovery bench."""
        with self._pool_lock:
            return {
                "pool_breaks": self.pool_breaks,
                "chunk_retries": self.chunk_retries,
                "last_recovery_ms": round(self.last_recovery_ms, 3),
            }

    def close(self) -> None:
        """Shut the pool down and mark the executor closed.

        Terminal: later ``map``/``warmup`` calls raise instead of
        silently recreating the pool (the old behaviour, which leaked
        respawned workers past teardown).  Idempotent.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _run_chunk(fn: Callable[[Any], Any], chunk_items: list) -> list:
    """Execute one chunk inline inside a pool worker."""
    return [fn(item) for item in chunk_items]


def _warm_worker() -> None:
    """Barrier task: forces worker spawn + initializer before real work."""


def _locality_order(
    items: Sequence[Any], key: Callable[[Any], Any] | None
) -> list[int]:
    """Indices of ``items`` in processing order (stable-sorted by ``key``)."""
    if key is None:
        return list(range(len(items)))
    return sorted(range(len(items)), key=lambda i: key(items[i]))


def _chunk(order: list[int], n_chunks: int) -> list[list[int]]:
    """Split ``order`` into ≤ ``n_chunks`` contiguous, balanced runs."""
    n_chunks = max(1, min(n_chunks, len(order)))
    size, extra = divmod(len(order), n_chunks)
    chunks: list[list[int]] = []
    start = 0
    for c in range(n_chunks):
        end = start + size + (1 if c < extra else 0)
        chunks.append(order[start:end])
        start = end
    return chunks


def build_executor(workers: int = 1, **kwargs) -> Executor:
    """Serial for 1 worker, a process pool otherwise (0 = one per CPU)."""
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers=workers, **kwargs)
