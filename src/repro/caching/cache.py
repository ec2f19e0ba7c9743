"""The hot-pair distance cache: a seeded, TTL'd, size-budgeted LRU.

Real point-to-point traffic is Zipf-skewed — a tiny set of ``(s, t)``
pairs dominates — yet every query otherwise re-runs the Equation 1
label merge (and possibly the CSR search stage) even when the identical
pair was answered microseconds ago.  :class:`DistanceCache` is the
read-through store in front of any engine: the cached-engine decorator
(:mod:`repro.caching.engine`), the server-side tier inside
:class:`repro.serving.server.ShardServer` and the client-side tier of
``engine="cached:remote"`` all share this one implementation.

Keys canonicalize the pair per orientation: undirected caches normalize
``(s, t)`` to ``(min, max)`` (``dist(s, t) == dist(t, s)``, so both
orders hit one entry), directed caches keep the order.  Only exact
answers are cached, so a key is just the canonical pair.

Eviction has three independent causes, counted separately so the stats
distinguish a small cache from a stale one:

* **capacity** — the LRU tail falls off when the entry or byte budget
  is exceeded (``evictions``);
* **TTL** — an entry older than ``ttl_s`` is discarded at lookup time
  (``expired``; the staleness counter);
* **invalidation** — §8.3 dynamic updates report dirty vertices and
  every cached pair touching one is evicted exactly
  (``invalidated``), with a conservative full flush past a dirtiness
  threshold (``flushes``) — see :meth:`invalidate`.

All operations are guarded by one internal lock, so a cache shared by a
server's admission-executor threads needs no external coordination.
The clock is injectable (``clock=...``) so TTL behavior is unit-testable
with a fake clock instead of ``sleep``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import QueryError

__all__ = ["DistanceCache", "ENTRY_BYTES"]

#: Nominal accounting size of one cache entry: the key tuple (two boxed
#: int64s), the float value, the timestamp and the two hash-table slots
#: (LRU map + per-vertex index).  A deliberate model constant — the byte
#: budget is a planning knob, not an allocator audit, and it keeps its
#: historical value so existing budgets keep their meaning.
ENTRY_BYTES = 160

#: Fraction of distinct cached vertices that may be dirtied before
#: :meth:`DistanceCache.invalidate` gives up on exact eviction and
#: flushes everything (walking most of the per-vertex index would cost
#: more than re-filling the survivors).
FLUSH_THRESHOLD = 0.5


class DistanceCache:
    """LRU of ``(s, t) -> distance`` with TTL and byte budget.

    ``max_entries`` and ``max_bytes`` (``ENTRY_BYTES`` per entry) are
    independent ceilings; whichever is hit first evicts the LRU tail.
    ``ttl_s=None`` disables expiry.  ``directed=False`` canonicalizes
    undirected pairs to ``(min, max)``.  ``seed`` pre-warms the cache
    (hot pairs known ahead of time — e.g. replayed from yesterday's
    traffic — never pay a cold miss).
    """

    def __init__(
        self,
        max_entries: int = 65536,
        ttl_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        directed: bool = False,
        clock: Callable[[], float] = time.monotonic,
        seed: Optional[Iterable[Tuple[int, int, float]]] = None,
    ) -> None:
        if max_entries < 1:
            raise QueryError(
                f"DistanceCache needs max_entries >= 1, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < ENTRY_BYTES:
            raise QueryError(
                f"DistanceCache max_bytes must be >= {ENTRY_BYTES} "
                f"(one entry), got {max_bytes}"
            )
        if ttl_s is not None and ttl_s <= 0:
            raise QueryError(f"DistanceCache ttl_s must be positive, got {ttl_s}")
        self.max_entries = int(max_entries)
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self.directed = bool(directed)
        self._clock = clock
        # key -> (value, stamp); insertion order is recency order.
        self._entries: "OrderedDict[Tuple[int, int], Tuple[float, float]]" = (
            OrderedDict()
        )
        # vertex -> set of keys touching it, for exact dirty eviction.
        self._by_vertex: Dict[int, set] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expired = 0
        self.invalidated = 0
        self.flushes = 0
        self.seeded = 0
        if seed is not None:
            self.seed(seed)

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def key_of(self, s: int, t: int) -> Tuple[int, int]:
        """The canonical cache key for one pair (per orientation)."""
        s, t = int(s), int(t)
        if not self.directed and t < s:
            s, t = t, s
        return (s, t)

    # ------------------------------------------------------------------
    # Read-through primitives
    # ------------------------------------------------------------------
    def lookup(self, s: int, t: int):
        """``(hit, value)`` for one pair; counts the hit/miss/expiry."""
        key = self.key_of(s, t)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self.ttl_s is not None:
                if self._clock() - entry[1] >= self.ttl_s:
                    self._remove(key)
                    self.expired += 1
                    entry = None
            if entry is None:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, entry[0]

    def put(self, s: int, t: int, value: float) -> None:
        """Insert/refresh one answer and enforce the size budgets."""
        key = self.key_of(s, t)
        with self._lock:
            self._store(key, value)

    def seed(self, items: Iterable[Tuple[int, int, float]]) -> int:
        """Pre-warm the cache; returns how many entries landed."""
        count = 0
        with self._lock:
            for s, t, value in items:
                self._store(self.key_of(s, t), value)
                count += 1
            self.seeded += count
        return count

    def _store(self, key, value: float) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = (value, self._clock())
            return
        self._entries[key] = (value, self._clock())
        for v in key:
            self._by_vertex.setdefault(v, set()).add(key)
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and len(self._entries) * ENTRY_BYTES > self.max_bytes
        ):
            victim = next(iter(self._entries))
            self._remove(victim)
            self.evictions += 1

    def _remove(self, key) -> None:
        self._entries.pop(key, None)
        for v in key:
            keys = self._by_vertex.get(v)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_vertex[v]

    # ------------------------------------------------------------------
    # Invalidation (§8.3)
    # ------------------------------------------------------------------
    def invalidate(self, dirty: Optional[Iterable[int]] = None) -> int:
        """Evict entries made stale by a dirty-label set; returns the count.

        ``dirty=None`` (or a dirtiness past :data:`FLUSH_THRESHOLD` of
        the distinct cached vertices) flushes everything.  Otherwise
        eviction is exact: every cached pair whose source or target is
        in ``dirty`` goes.
        """
        with self._lock:
            if dirty is None:
                return self._flush()
            dirty = {int(v) for v in dirty}
            touched = dirty & self._by_vertex.keys()
            if len(touched) > FLUSH_THRESHOLD * max(len(self._by_vertex), 1):
                return self._flush()
            victims = set()
            for v in touched:
                victims.update(self._by_vertex[v])
            for key in victims:
                self._remove(key)
            self.invalidated += len(victims)
            return len(victims)

    def flush(self) -> int:
        """Drop every entry (the conservative fallback); returns the count."""
        with self._lock:
            return self._flush()

    def _flush(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self._by_vertex.clear()
        if dropped:
            self.invalidated += dropped
        self.flushes += 1
        return dropped

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes(self) -> int:
        """Nominal resident size (``ENTRY_BYTES`` per entry)."""
        return len(self._entries) * ENTRY_BYTES

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """One snapshot dict — the ``stats`` wire op and benchmarks read this."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": len(self._entries) * ENTRY_BYTES,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "evictions": self.evictions,
                "expired": self.expired,
                "invalidated": self.invalidated,
                "flushes": self.flushes,
                "seeded": self.seeded,
            }

    def reset_counters(self) -> None:
        """Zero the counters (entries stay); benchmarks snapshot deltas."""
        with self._lock:
            self.hits = self.misses = 0
            self.evictions = self.expired = 0
            self.invalidated = self.flushes = self.seeded = 0

    # ------------------------------------------------------------------
    # Batch read-through (shared by the engine decorator and the server)
    # ------------------------------------------------------------------
    def read_through(
        self,
        pairs: List[Tuple[int, int]],
        compute: Callable[[List[Tuple[int, int]]], List[float]],
    ) -> List[float]:
        """Answer a batch, dispatching only the misses to ``compute``.

        Input order is preserved on reassembly; duplicate missing pairs
        are deduplicated into one computed entry (a Zipf batch is full of
        repeats — that is the point of the cache).  ``compute`` receives
        the unique missing pairs in first-appearance order.
        """
        out: List[Optional[float]] = [None] * len(pairs)
        missing: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
        miss_pairs: List[Tuple[int, int]] = []
        for i, (s, t) in enumerate(pairs):
            hit, value = self.lookup(s, t)
            if hit:
                out[i] = value
                continue
            key = self.key_of(s, t)
            slots = missing.get(key)
            if slots is None:
                missing[key] = [i]
                miss_pairs.append((int(s), int(t)))
            else:
                slots.append(i)
        if miss_pairs:
            answers = list(compute(miss_pairs))
            if len(answers) != len(miss_pairs):
                raise QueryError(
                    f"cache compute returned {len(answers)} answers "
                    f"for {len(miss_pairs)} pairs"
                )
            for (key, slots), (s, t), value in zip(
                missing.items(), miss_pairs, answers
            ):
                self.put(s, t, value)
                for i in slots:
                    out[i] = value
        return out  # type: ignore[return-value]
