"""Small caching helpers used by the QA models and parsers.

Parsing and attention are the most expensive stages of the GCED pipeline
and are frequently re-invoked on the same sentence (e.g. once by ASE, once
by WSPTC, once per clip candidate when re-scoring).  A bounded LRU cache
keyed on the raw text keeps the pipeline near-linear in practice.

``MISSING`` is the shared not-found sentinel: ``cache.get(key, MISSING)``
distinguishes "never cached" from "cached a falsy value" (including
``None``), which plain ``get(key) is None`` cannot.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

__all__ = ["CacheSnapshot", "LRUCache", "MISSING", "memoize_method"]


class _MissingType:
    """Singleton sentinel distinct from every cacheable value."""

    _instance: "_MissingType | None" = None

    def __new__(cls) -> "_MissingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing>"


MISSING = _MissingType()

_MEMO_CREATE_LOCK = threading.Lock()


class CacheSnapshot(NamedTuple):
    """A consistent point-in-time view of one :class:`LRUCache`.

    Compares equal to a plain ``(hits, misses, size)`` tuple.
    """

    hits: int
    misses: int
    size: int


class LRUCache:
    """A minimal least-recently-used cache with a fixed capacity.

    Lookups and insertions are guarded by a lock, so instances can be
    shared by the threads of a
    :class:`~repro.engine.executor.ParallelExecutor`.

    The entry count is the only bound: callers size ``capacity`` from
    the measured footprint of one value (see ``docs/performance.md``,
    "Cache bounds").

    >>> cache = LRUCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None
    True
    >>> cache.get("c")
    3
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(
        self, key: Hashable, default: Any = None, count_miss: bool = True
    ) -> Any:
        """Return the cached value, refreshing its recency, or ``default``.

        Pass ``default=MISSING`` to tell a cached ``None`` (a hit) apart
        from an absent key (a miss).  ``count_miss=False`` leaves an
        absent key uncounted, like :meth:`peek`, while a hit still counts
        and refreshes: for a probe whose miss the cache's own workload
        will count when it looks the key up again.
        """
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is not MISSING:
                self.hits += 1
                self._data.move_to_end(key)
                return value
            if count_miss:
                self.misses += 1
        return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Stats-free lookup: no hit/miss counting, no recency refresh.

        For probes that are not part of the cache's own workload — e.g.
        a side cache checking whether the main cache already holds a
        value — so observability counters keep measuring real traffic.
        """
        with self._lock:
            value = self._data.get(key, MISSING)
            return default if value is MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least-recently-used entry when
        the cache exceeds its capacity."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def items(self) -> list[tuple[Hashable, Any]]:
        """A point-in-time list of ``(key, value)`` pairs, LRU-first.

        Taken under the lock (safe against concurrent mutation) and
        without recency churn, so inspecting a cache never reorders it.
        """
        with self._lock:
            return list(self._data.items())

    def record_hits(self, n: int = 1) -> None:
        """Credit ``n`` hits that were served without a :meth:`get` lookup.

        Batch deduplication resolves several logical lookups with one
        physical distillation; callers credit the extra occurrences here
        instead of mutating ``hits`` directly (which would race with the
        lock-guarded counter updates in :meth:`get`).
        """
        with self._lock:
            self.hits += n

    def snapshot(self) -> CacheSnapshot:
        """A consistent :class:`CacheSnapshot` taken under the lock."""
        with self._lock:
            return CacheSnapshot(self.hits, self.misses, len(self._data))

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0


def memoize_method(maxsize: int = 1024) -> Callable:
    """Decorator memoizing an instance method on hashable arguments.

    Unlike ``functools.lru_cache`` applied to a method, the cache lives on
    the *instance* (stored under ``_memo_<name>``), so instances can be
    garbage-collected and do not share entries.
    """

    def decorator(func: Callable) -> Callable:
        attr = f"_memo_{func.__name__}"

        @functools.wraps(func)
        def wrapper(self, *args):
            cache: LRUCache | None = getattr(self, attr, None)
            if cache is None:
                # Double-checked under a lock: concurrent first calls from
                # two threads must not each install their own cache.
                with _MEMO_CREATE_LOCK:
                    cache = getattr(self, attr, None)
                    if cache is None:
                        cache = LRUCache(capacity=maxsize)
                        setattr(self, attr, cache)
            value = cache.get(args, MISSING)
            if value is MISSING:
                value = func(self, *args)
                cache.put(args, value)
            return value

        return wrapper

    return decorator
