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
pipeline) once per worker instead of once per task.  Under the ``fork``
start method the workers inherit ``initargs`` with no pickling; other
start methods pickle them into each worker.
"""

from __future__ import annotations

import multiprocessing
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
            non-None probe result; a process pool runs the probe exactly
            once in every worker.
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
        run during startup instead of inside the first measured ``map``.
        Returns a :class:`WarmupReport`; ``probe`` (a picklable zero-arg
        callable) runs once per worker after the barrier, so callers can
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
                    # their initializer state) respawned behind the
                    # caller's back.
                    raise RuntimeError(
                        "executor is closed; create a new one instead of "
                        "mapping on a closed executor"
                    )
                if self._pool is None:
                    # Each pool gets its own start barrier (a respawn
                    # must not inherit a barrier a dead worker broke).
                    barrier = multiprocessing.get_context().Barrier(self.workers)
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_pool_init,
                        initargs=(barrier, self._initializer, self._initargs),
                    )
        return self._pool

    def warmup(self, probe: Callable | None = None) -> WarmupReport:
        """Create the pool and run per-worker initializers eagerly.

        Submits one barrier task per worker, so the workers spawn and run
        their initializer now rather than inside the first real batch.
        Each task waits (up to ``WARMUP_TIMEOUT_S``) until all of them
        have started, so no worker can answer two: the warm-up returns
        only once every worker's initializer has finished, and ``probe``
        runs exactly once in each.  Safe to call again on a warm pool.
        The report (also kept as ``last_warmup``) carries the barrier's
        wall-clock and the non-None probe results.

        Raises:
            threading.BrokenBarrierError: some worker did not reach the
                barrier within ``WARMUP_TIMEOUT_S``.
        """
        started = time.perf_counter()
        pool = self._ensure_pool()
        futures = [
            pool.submit(_warm_worker, probe, WARMUP_TIMEOUT_S)
            for _ in range(self.workers)
        ]
        infos = []
        for future in futures:
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
            # the pool once — fresh workers re-run the initializer — and
            # retry only the failed chunks.
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

        The next :meth:`_ensure_pool` forks the new workers from the
        coordinator as it is now.  Raises if the executor was closed
        meanwhile.
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


# Seconds a warm-up task waits for the other workers' barrier tasks.
WARMUP_TIMEOUT_S = 60.0

# The pool's start barrier, installed in each worker by _pool_init.
_START_BARRIER = None


def _pool_init(barrier, initializer: Callable | None, initargs: tuple) -> None:
    """Worker initializer: keep the start barrier, then run the caller's."""
    global _START_BARRIER
    _START_BARRIER = barrier
    if initializer is not None:
        initializer(*initargs)


def _warm_worker(probe: Callable | None, timeout: float) -> Any:
    """Barrier task: holds this worker until every worker holds one."""
    _START_BARRIER.wait(timeout)
    return probe() if probe is not None else None


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
