"""Unit tests for utilities: rng and cache."""

import threading

import pytest

from repro.utils import LRUCache, derive_seed, memoize_method, rng_from


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_label_separates_streams(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_parent_separates_streams(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_32bit_range(self):
        seed = derive_seed(123456789, "long-label" * 10)
        assert 0 <= seed < 2**32

    def test_rng_from_reproducible(self):
        assert rng_from(7, "x").random() == rng_from(7, "x").random()


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1

    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zz")
        assert cache.hits == 1 and cache.misses == 1

    def test_update_refreshes(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_clear(self):
        cache = LRUCache()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_record_hits_and_snapshot(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.record_hits(3)
        assert cache.snapshot() == (4, 1, 1)

    def test_peek_is_stats_and_recency_free(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing", "default") == "default"
        # No hit/miss counting...
        assert cache.snapshot() == (0, 0, 2)
        # ...and no recency refresh: "a" is still the eviction victim.
        cache.put("c", 3)
        assert "a" not in cache and "b" in cache


class TestLRUCacheConcurrency:
    """The scheduler's concurrent flushes hammer one shared cache."""

    N_THREADS = 8
    OPS = 3000

    def test_stress_from_8_threads(self):
        cache = LRUCache(capacity=64)
        barrier = threading.Barrier(self.N_THREADS)
        gets_done = [0] * self.N_THREADS
        errors: list[BaseException] = []

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(self.OPS):
                    key = (tid * 7 + i * 13) % 200
                    if i % 3 == 0:
                        cache.put(key, (tid, i))
                    else:
                        cache.get(key)
                        gets_done[tid] += 1
                    if i % 17 == 0:
                        assert len(cache) <= 64
                        key in cache  # noqa: B015 - exercises locked path
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        # Eviction never overshoots the capacity bound.
        assert len(cache) <= 64
        # Counter bookkeeping survived: every get() recorded exactly one
        # hit or miss, with no lost updates.
        hits, misses, size = cache.snapshot()
        assert hits + misses == sum(gets_done)
        assert size == len(cache)

    def test_record_hits_concurrent_credits_are_not_lost(self):
        cache = LRUCache(capacity=8)
        per_thread, n_threads = 250, 8
        barrier = threading.Barrier(n_threads)

        def credit() -> None:
            barrier.wait()
            for _ in range(per_thread):
                cache.record_hits(1)

        threads = [
            threading.Thread(target=credit) for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert cache.hits == per_thread * n_threads


class TestMemoizeMethod:
    def test_caches_per_instance(self):
        calls = []

        class Thing:
            @memoize_method()
            def compute(self, x):
                calls.append(x)
                return x * 2

        t1, t2 = Thing(), Thing()
        assert t1.compute(3) == 6
        assert t1.compute(3) == 6
        assert t2.compute(3) == 6
        assert calls == [3, 3]  # once per instance
