"""Per-stage observability: timings, counters, and cache hit rates.

A :class:`PipelineProfile` accumulates across every context a pipeline
runs.  Profiles are plain picklable data and support :meth:`merge`, so
parallel workers can profile locally and ship their numbers back to the
coordinating :class:`~repro.core.batch.BatchDistiller`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.obs.metrics import TimingAccumulator

__all__ = ["CacheStats", "PipelineProfile", "StageTiming"]


class StageTiming(TimingAccumulator):
    """Accumulated wall-clock of one stage.

    The shared :class:`~repro.obs.metrics.TimingAccumulator` (calls +
    seconds + ``mean_ms``) extended with a halt counter for stages that
    short-circuit the pipeline.
    """

    __slots__ = ("halts",)

    def __init__(
        self, calls: int = 0, seconds: float = 0.0, halts: int = 0
    ) -> None:
        super().__init__(calls, seconds)
        self.halts = halts

    def merge(self, other: "StageTiming") -> None:
        super().merge(other)
        self.halts += getattr(other, "halts", 0)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.halts == other.halts

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "mean_ms": self.mean_ms,
            "halts": self.halts,
        }


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss snapshot of one shared cache."""

    name: str
    hits: int
    misses: int
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        """``name 85% (17/20)`` — the one-line digest of this cache."""
        return (
            f"{self.name} {100 * self.hit_rate:.0f}% "
            f"({self.hits}/{self.lookups})"
        )

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "hit_rate": self.hit_rate,
        }


@dataclass
class PipelineProfile:
    """Everything the engine observed while running pipelines.

    Attributes:
        stages: per-stage timing accumulators, in first-seen order (which
            matches pipeline order for a fixed plan).
        counters: free-form event counts (contexts run, early halts, ...).
        caches: latest shared-cache snapshots, by cache name.
    """

    stages: dict[str, StageTiming] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    caches: dict[str, CacheStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Accumulation must be safe across serving threads; the lock
        # is excluded from pickling so profiles still travel to/from
        # worker processes.
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def record_stage(
        self, name: str, seconds: float, halted: bool = False
    ) -> None:
        """Add one stage execution to the accumulators."""
        with self._lock:
            timing = self.stages.get(name)
            if timing is None:
                timing = self.stages[name] = StageTiming()
            timing.calls += 1
            timing.seconds += seconds
            if halted:
                timing.halts += 1

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def record_cache(self, stats: CacheStats) -> None:
        """Store the latest snapshot of a shared cache."""
        with self._lock:
            self.caches[stats.name] = stats

    # ------------------------------------------------------------ combining
    def merge(self, other: "PipelineProfile") -> None:
        """Fold another profile (e.g. from a worker process) into this one.

        Timings and counters add; cache snapshots add hit/miss counts
        (each worker owns its own cache instances).  ``other`` may be a
        *live* profile another thread is still recording into (the
        serving layer snapshots the pipeline profile mid-flush), so its
        dicts are copied under its own lock first; the two locks are
        never held together.
        """
        with other._lock:
            stages = {
                name: StageTiming(
                    calls=timing.calls,
                    seconds=timing.seconds,
                    halts=timing.halts,
                )
                for name, timing in other.stages.items()
            }
            counters = dict(other.counters)
            caches = dict(other.caches)
        with self._lock:
            self._merge_locked(stages, counters, caches)

    def _merge_locked(
        self,
        stages: dict[str, StageTiming],
        counters: dict[str, int],
        caches: dict[str, CacheStats],
    ) -> None:
        for name, timing in stages.items():
            mine = self.stages.get(name)
            if mine is None:
                mine = self.stages[name] = StageTiming()
            mine.calls += timing.calls
            mine.seconds += timing.seconds
            mine.halts += timing.halts
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, stats in caches.items():
            mine_stats = self.caches.get(name)
            if mine_stats is None:
                self.caches[name] = stats
            else:
                self.caches[name] = CacheStats(
                    name=name,
                    hits=mine_stats.hits + stats.hits,
                    misses=mine_stats.misses + stats.misses,
                    size=max(mine_stats.size, stats.size),
                )

    # ------------------------------------------------------------ reporting
    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.stages.values())

    def cache_summary(self) -> str:
        """One-line hit-rate digest of the shared caches."""
        return ", ".join(
            self.caches[name].describe()
            for name in sorted(self.caches)
            if self.caches[name].lookups
        )

    def to_dict(self) -> dict:
        """JSON-safe snapshot of everything observed, for ``/stats``."""
        with self._lock:
            return {
                "stages": {
                    name: timing.to_dict()
                    for name, timing in self.stages.items()
                },
                "counters": dict(self.counters),
                "caches": {
                    name: self.caches[name].to_dict()
                    for name in sorted(self.caches)
                },
                "total_seconds": sum(
                    t.seconds for t in self.stages.values()
                ),
            }

    def report(self) -> str:
        """Human-readable per-stage table plus cache hit rates."""
        lines = ["stage               calls   total(s)   mean(ms)  halts"]
        for name, timing in self.stages.items():
            lines.append(
                f"{name:<18} {timing.calls:>6d} {timing.seconds:>10.3f} "
                f"{timing.mean_ms:>10.3f} {timing.halts:>6d}"
            )
        for name, value in sorted(self.counters.items()):
            # Counters are ints for event counts but floats for timing
            # accumulators (e.g. pool_warmup_ms).
            rendered = (
                f"{value:>6d}" if isinstance(value, int) else f"{value:>9.2f}"
            )
            lines.append(f"{name:<18} {rendered}")
        if self.caches:
            lines.append("shared caches: " + (self.cache_summary() or "(cold)"))
        return "\n".join(lines)
