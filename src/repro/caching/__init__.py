"""Hot-pair caching.

Two pieces, composable and individually usable:

* :class:`~repro.caching.cache.DistanceCache` — the seeded, TTL'd,
  size-budgeted LRU every tier shares (engine decorator, server-side
  shim, client-side remote tier);
* :class:`~repro.caching.engine.CachedEngine` — the ``cached:*`` engine
  decorator, reachable through the registry as ``engine="cached:fast"``,
  ``"cached:remote"``, … for both orientations.

The engine registry (:mod:`repro.core.engines`) resolves ``cached:``
names by importing this package lazily, so nothing here loads unless a
cached engine is actually requested.
"""

from repro.caching.cache import ENTRY_BYTES, DistanceCache
from repro.caching.engine import (
    DEFAULT_CACHE_ENTRIES,
    ENV_CACHE_ENABLE,
    ENV_CACHE_ENTRIES,
    ENV_CACHE_TTL_S,
    CachedEngine,
    cache_entries_from_env,
    cache_ttl_from_env,
    cached_factory,
)

__all__ = [
    "ENTRY_BYTES",
    "DistanceCache",
    "CachedEngine",
    "cached_factory",
    "cache_entries_from_env",
    "cache_ttl_from_env",
    "DEFAULT_CACHE_ENTRIES",
    "ENV_CACHE_ENABLE",
    "ENV_CACHE_ENTRIES",
    "ENV_CACHE_TTL_S",
]
