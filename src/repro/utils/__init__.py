"""Shared utilities: deterministic RNG and caching."""

from repro.utils.rng import derive_seed, rng_from
from repro.utils.cache import LRUCache, memoize_method

__all__ = ["derive_seed", "rng_from", "LRUCache", "memoize_method"]
