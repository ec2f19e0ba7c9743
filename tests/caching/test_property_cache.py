"""Property tests for the hot-pair cache and the cached:* engine tier.

The contract under test is *transparency*: a ``cached:fast`` dynamic
index replaying random §8.3 interleavings (insert_vertex /
delete_vertex / query) must answer bit-identically to the uncached fast
engine and the dict reference at every step, on both orientations —
including the queries answered straight from the cache immediately
after an invalidation wave.  Alongside the end-to-end interleavings,
the :class:`~repro.caching.cache.DistanceCache` mechanics (TTL expiry,
LRU + byte-budget eviction, targeted invalidation vs the conservative
full flush, key canonicalization) are pinned with a fake clock.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import ENTRY_BYTES, DistanceCache
from repro.caching.engine import CachedEngine
from repro.core.index import ISLabelIndex
from repro.core.updates import DynamicDirectedISLabelIndex, DynamicISLabelIndex
from repro.errors import IndexBuildError, QueryError
from repro.graph.graph import Graph
from tests.properties.strategies import connected_graphs, digraphs

_FRESH_ID = 100_000


class FakeClock:
    """Injectable monotonic clock so TTL tests never sleep."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _lookup(cache, s, t):
    """The cached value, or ``None`` on a miss (unpacks ``(hit, value)``)."""
    hit, value = cache.lookup(s, t)
    return value if hit else None


# ----------------------------------------------------------------------
# §8.3 interleavings: cached == uncached == dict, both orientations
# ----------------------------------------------------------------------
def _assert_cached_agrees(cached, fast, reference, rng, queries=25):
    vertices = sorted(cached.graph.vertices())
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(queries)]
    expected = [reference.distance(s, t) for s, t in pairs]
    assert [fast.distance(s, t) for s, t in pairs] == expected
    assert cached.distances(pairs) == expected
    # Replay: the second pass is served (at least partly) from the cache
    # and must stay bit-identical to the engine answers.
    assert cached.distances(pairs) == expected
    assert [cached.distance(s, t) for s, t in pairs] == expected


@settings(max_examples=15, deadline=None)
@given(connected_graphs(max_vertices=14), st.integers(0, 2**32 - 1))
def test_undirected_interleavings_cached_agrees(g, seed):
    rng = random.Random(seed)
    cached = DynamicISLabelIndex(g, engine="cached:fast")
    fast = DynamicISLabelIndex(g)
    reference = DynamicISLabelIndex(g, engine="dict")
    assert cached.engine == "cached:fast"
    next_id = _FRESH_ID
    for _ in range(7):
        vertices = sorted(cached.graph.vertices())
        if rng.random() < 0.65 or len(vertices) <= 2:
            adjacency = {
                v: rng.randint(1, 4)
                for v in rng.sample(vertices, rng.randint(1, min(3, len(vertices))))
            }
            for dyn in (cached, fast, reference):
                dyn.insert_vertex(next_id, dict(adjacency))
            next_id += 1
        else:
            victim = rng.choice(vertices)
            for dyn in (cached, fast, reference):
                dyn.delete_vertex(victim)
        _assert_cached_agrees(cached, fast, reference, rng)


@settings(max_examples=12, deadline=None)
@given(digraphs(max_vertices=10), st.integers(0, 2**32 - 1))
def test_directed_interleavings_cached_agrees(g, seed):
    rng = random.Random(seed)
    cached = DynamicDirectedISLabelIndex(g, engine="cached:fast")
    fast = DynamicDirectedISLabelIndex(g)
    reference = DynamicDirectedISLabelIndex(g, engine="dict")
    assert cached.engine == "cached:fast"
    next_id = _FRESH_ID
    for _ in range(6):
        vertices = sorted(cached.graph.vertices())
        if rng.random() < 0.65 or len(vertices) <= 2:
            outs = {
                v: rng.randint(1, 4)
                for v in rng.sample(vertices, rng.randint(0, min(2, len(vertices))))
            }
            ins = {
                v: rng.randint(1, 4)
                for v in rng.sample(vertices, rng.randint(0, min(2, len(vertices))))
                if v not in outs
            }
            if not outs and not ins:
                outs = {rng.choice(vertices): rng.randint(1, 4)}
            for dyn in (cached, fast, reference):
                dyn.insert_vertex(next_id, dict(outs), dict(ins))
            next_id += 1
        else:
            victim = rng.choice(vertices)
            for dyn in (cached, fast, reference):
                dyn.delete_vertex(victim)
        _assert_cached_agrees(cached, fast, reference, rng)


# ----------------------------------------------------------------------
# DistanceCache mechanics (fake clock — no sleeping)
# ----------------------------------------------------------------------
class TestTTL:
    def test_entries_expire_at_lookup_time(self):
        clock = FakeClock()
        cache = DistanceCache(ttl_s=10.0, clock=clock)
        cache.put(1, 2, 3.5)
        assert _lookup(cache, 1, 2) == 3.5
        clock.advance(9.9)
        assert _lookup(cache, 1, 2) == 3.5
        clock.advance(0.2)
        assert _lookup(cache, 1, 2) is None
        stats = cache.stats()
        assert stats["expired"] == 1 and stats["misses"] == 1

    def test_put_refreshes_ttl(self):
        clock = FakeClock()
        cache = DistanceCache(ttl_s=10.0, clock=clock)
        cache.put(1, 2, 3.5)
        clock.advance(8.0)
        cache.put(1, 2, 3.5)
        clock.advance(8.0)
        assert _lookup(cache, 1, 2) == 3.5

    def test_bad_ttl_rejected(self):
        with pytest.raises(QueryError):
            DistanceCache(ttl_s=0.0)
        with pytest.raises(QueryError):
            DistanceCache(ttl_s=-1.0)


class TestCapacity:
    def test_lru_eviction_order(self):
        cache = DistanceCache(max_entries=2)
        cache.put(1, 2, 1.0)
        cache.put(3, 4, 2.0)
        assert _lookup(cache, 1, 2) == 1.0  # touch → (3,4) is now LRU
        cache.put(5, 6, 3.0)
        assert _lookup(cache, 3, 4) is None
        assert _lookup(cache, 1, 2) == 1.0
        assert cache.stats()["evictions"] == 1

    def test_byte_budget_enforced(self):
        cache = DistanceCache(max_entries=1000, max_bytes=3 * ENTRY_BYTES)
        for i in range(5):
            cache.put(i, i + 100, float(i))
        assert len(cache) == 3
        assert cache.bytes <= 3 * ENTRY_BYTES

    def test_bad_budgets_rejected(self):
        with pytest.raises(QueryError):
            DistanceCache(max_entries=0)
        with pytest.raises(QueryError):
            DistanceCache(max_bytes=ENTRY_BYTES - 1)


class TestKeysAndNamespaces:
    def test_undirected_keys_canonicalize(self):
        cache = DistanceCache()
        cache.put(7, 3, 2.0)
        assert _lookup(cache, 3, 7) == 2.0

    def test_directed_keys_are_ordered(self):
        cache = DistanceCache(directed=True)
        cache.put(7, 3, 2.0)
        assert _lookup(cache, 3, 7) is None
        assert _lookup(cache, 7, 3) == 2.0

    def test_invalidate_evicts_both_namespaces(self):
        cache = DistanceCache()
        for v in range(20):
            cache.put(v, v + 100, 1.0)
        cache.invalidate({1})
        assert _lookup(cache, 1, 101) is None
        assert _lookup(cache, 2, 102) == 1.0


class TestInvalidation:
    def test_small_dirty_set_is_targeted(self):
        cache = DistanceCache()
        for v in range(40):
            cache.put(v, v + 100, 1.0)
        cache.invalidate({0})
        stats = cache.stats()
        assert stats["flushes"] == 0
        assert stats["invalidated"] == 1
        assert len(cache) == 39

    def test_wide_dirty_set_flushes(self):
        cache = DistanceCache()
        for v in range(10):
            cache.put(v, v + 100, 1.0)
        cache.invalidate(set(range(10)) | set(range(100, 110)))
        assert cache.stats()["flushes"] == 1
        assert len(cache) == 0

    def test_invalidate_none_flushes(self):
        cache = DistanceCache()
        cache.put(1, 2, 1.0)
        cache.invalidate(None)
        assert len(cache) == 0 and cache.stats()["flushes"] == 1

    def test_seed_counts_and_serves(self):
        cache = DistanceCache(seed=[(1, 2, 3.0), (4, 5, math.inf)])
        assert cache.stats()["seeded"] == 2
        assert _lookup(cache, 2, 1) == 3.0
        assert math.isinf(_lookup(cache, 4, 5))


class TestReadThrough:
    def test_dedup_and_order_preserved(self):
        cache = DistanceCache()
        calls = []

        def compute(pairs):
            calls.append(list(pairs))
            return [float(s + t) for s, t in pairs]

        out = cache.read_through([(1, 2), (2, 1), (3, 4), (1, 2)], compute)
        assert out == [3.0, 3.0, 7.0, 3.0]
        # (1,2), (2,1) and the repeat canonicalize to one key: the
        # engine sees each unique pair exactly once.
        assert calls == [[(1, 2), (3, 4)]]
        out2 = cache.read_through([(4, 3), (2, 1)], compute)
        assert out2 == [7.0, 3.0]
        assert len(calls) == 1  # fully served from cache

    def test_compute_length_mismatch_raises(self):
        cache = DistanceCache()
        with pytest.raises(QueryError):
            cache.read_through([(1, 2)], lambda pairs: [])


# ----------------------------------------------------------------------
# CachedEngine wrapper semantics
# ----------------------------------------------------------------------
class TestCachedEngine:
    def test_wrapping_nothing_rejected(self):
        with pytest.raises(IndexBuildError):
            CachedEngine(None)

    def test_ttl_staleness_bounded_by_fake_clock(self):
        clock = FakeClock()
        index = ISLabelIndex.build(Graph([(1, 2, 3), (2, 3, 1), (3, 4, 2)]))
        engine = CachedEngine(index._fast, ttl_s=5.0, clock=clock)
        assert engine.distance(1, 4) == index.distance(1, 4)
        assert engine.cache.stats()["misses"] == 1
        assert engine.distance(1, 4) == index.distance(1, 4)
        assert engine.cache.stats()["hits"] == 1
        clock.advance(6.0)
        assert engine.distance(1, 4) == index.distance(1, 4)
        assert engine.cache.stats()["expired"] == 1

    def test_registry_name_and_dict_rejection(self):
        index = ISLabelIndex.build(Graph([(1, 2)]), engine="cached:fast")
        assert index.engine == "cached:fast"
        with pytest.raises(IndexBuildError, match="not cacheable"):
            ISLabelIndex.build(Graph([(1, 2)]), engine="cached:dict")
