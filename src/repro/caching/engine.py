"""``cached:*`` — the read-through engine decorator.

:class:`CachedEngine` wraps any registered backend (``cached:fast``,
``cached:remote``, ``cached:mmap``, …) behind the full
:class:`~repro.core.engines.QueryEngine` protocol: ``distances()``
partitions each batch into hits and misses, dispatches only the misses
to the inner engine (deduplicated; input order preserved on
reassembly), and ``invalidate()`` keeps the cache exact across §8.3
dynamic updates.

Invalidation is the part that has to be *provably* conservative.  A
cached answer is a function of ``label(s)``, ``label(t)`` and the
``G_k`` search graph, but §8.3 maintenance only reports *label* dirt —
``insert_vertex`` can add ``G_k`` edges without dirtying the old
endpoints.  So targeted per-pair eviction (drop every cached pair
touching a dirty vertex) is sound **iff** the ``G_k`` delta since the
last snapshot cannot create a new path between pre-existing vertices.
The decorator tracks a ``G_k`` token (vertex-id set, edge count, and a
weighted edge signature — a 64-bit hash sum over ``(u, v, w)`` arcs, so
an augmenting edge whose *weight* is recomputed without changing the
edge count still trips the ledger) and admits exactly one kind of
structural change without flushing: *grafted pendants* — newly added
vertices whose total degree is ≤ 1 at invalidation time (and their
later removal, in graft order).  Every edge such a vertex ever carries
attaches to the grafted forest, so no path between two old vertices can
route through it; distances between undirtied pairs are untouched.  Any
other delta — an edge between old vertices, a core vertex deleted, a
reweighted edge, an unexplained signature — falls back to a full flush.
Wrapping an engine with no ``G_k`` in hand (``cached:remote``) flushes
on every dirty invalidation for the same reason: correctness first,
hit rate second.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Tuple

from repro.caching.cache import DistanceCache
from repro.envvars import read_env_float, read_env_int
from repro.errors import IndexBuildError

__all__ = [
    "CachedEngine",
    "cached_factory",
    "DEFAULT_CACHE_ENTRIES",
    "ENV_CACHE_ENTRIES",
    "ENV_CACHE_TTL_S",
    "ENV_CACHE_ENABLE",
    "cache_entries_from_env",
    "cache_ttl_from_env",
]

DEFAULT_CACHE_ENTRIES = 65536

#: The cache knobs, resolved flag > environment > default at every
#: integration point (CLI ``serve``, the ``cached:*`` factories).
ENV_CACHE_ENTRIES = "REPRO_CACHE_ENTRIES"
ENV_CACHE_TTL_S = "REPRO_CACHE_TTL_S"
ENV_CACHE_ENABLE = "REPRO_CACHE_ENABLE"


def cache_entries_from_env() -> Optional[int]:
    """``REPRO_CACHE_ENTRIES`` validated; :class:`IndexBuildError` on junk."""
    try:
        return read_env_int(
            ENV_CACHE_ENTRIES, what="cache entry budget", minimum=1
        )
    except ValueError as exc:
        raise IndexBuildError(str(exc)) from exc


def cache_ttl_from_env() -> Optional[float]:
    """``REPRO_CACHE_TTL_S`` validated; ``0`` means "no TTL"."""
    try:
        value = read_env_float(ENV_CACHE_TTL_S, what="cache TTL in seconds")
    except ValueError as exc:
        raise IndexBuildError(str(exc)) from exc
    return None if value == 0 else value


class CachedEngine:
    """Read-through :class:`DistanceCache` in front of an inner engine."""

    def __init__(
        self,
        inner,
        gk=None,
        directed: bool = False,
        max_entries: Optional[int] = None,
        ttl_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if inner is None:
            raise IndexBuildError(
                "the cached decorator needs a real inner engine; "
                "the dict reference path has nothing to wrap"
            )
        self._inner = inner
        self._gk = gk
        self._directed = bool(directed)
        self.name = f"cached:{inner.name}"
        self.cache = DistanceCache(
            max_entries=(
                max_entries if max_entries is not None else DEFAULT_CACHE_ENTRIES
            ),
            ttl_s=ttl_s,
            max_bytes=max_bytes,
            directed=directed,
            clock=clock,
        )
        # G_k token for sound targeted invalidation (module docstring).
        self._known_vs: Optional[set] = None
        self._known_edges: int = 0
        self._known_sig: int = 0
        # grafted vertex -> (edge count, signature) of the arcs
        # attributed to it at admission
        self._grafted: dict = {}
        self._snapshot_gk()

    # ------------------------------------------------------------------
    # QueryEngine protocol
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return bool(getattr(self._inner, "frozen", True))

    def freeze(self) -> "CachedEngine":
        self._inner.freeze()
        self._snapshot_gk()
        return self

    def distance(self, source: int, target: int) -> float:
        hit, value = self.cache.lookup(source, target)
        if hit:
            return value
        value = self._inner.distance(source, target)
        self.cache.put(source, target, value)
        return value

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        return self.cache.read_through(list(pairs), self._inner.distances)

    def invalidate(self, dirty: Optional[Iterable[int]] = None) -> None:
        """Forward to the inner engine, then evict exactly what went stale."""
        dirty = None if dirty is None else {int(v) for v in dirty}
        self._inner.invalidate(dirty)
        if dirty is None or not self._gk_delta_is_safe():
            self.cache.flush()
        else:
            self.cache.invalidate(dirty)
        self._snapshot_gk()

    # ------------------------------------------------------------------
    # Composition seams
    # ------------------------------------------------------------------
    @property
    def inner(self):
        """The wrapped engine (benchmarks compare against it directly)."""
        return self._inner

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()

    @property
    def scheduler(self):
        """Inner engine's scheduler, when it has one (``cached:remote``)."""
        return getattr(self._inner, "scheduler", None)

    @property
    def failovers(self):
        return getattr(self._inner, "failovers", 0)

    # ------------------------------------------------------------------
    # G_k token
    # ------------------------------------------------------------------
    _SIG_MASK = (1 << 64) - 1

    def _gk_edge_count(self, v: int) -> int:
        gk = self._gk
        if self._directed:
            return len(gk.successors(v)) + len(gk.predecessors(v))
        return gk.degree(v)

    def _arc_sig(self, u: int, v: int, w: int) -> int:
        if not self._directed and u > v:
            u, v = v, u
        return hash((u, v, w)) & self._SIG_MASK

    def _gk_sig(self) -> int:
        """64-bit hash sum over all weighted ``G_k`` arcs.  Unlike the raw
        edge count this also moves when an augmenting edge is *reweighted*
        in place, and two opposing deltas cancel only with ~2^-64 odds."""
        total = 0
        for u, v, w in self._gk.edges():
            total = (total + self._arc_sig(u, v, w)) & self._SIG_MASK
        return total

    def _graft_arcs(self, v: int):
        """The weighted arcs a candidate graft carries right now."""
        gk = self._gk
        if self._directed:
            return [(v, w, wt) for w, wt in gk.successors(v).items()] + [
                (w, v, wt) for w, wt in gk.predecessors(v).items()
            ]
        return [(v, w, wt) for w, wt in gk.neighbors(v).items()]

    def _snapshot_gk(self) -> None:
        if self._gk is None:
            self._known_vs = None
            return
        self._known_vs = set(self._gk.vertices())
        self._known_edges = self._gk.num_edges
        self._known_sig = self._gk_sig()
        self._grafted = {
            v: rec for v, rec in self._grafted.items() if v in self._known_vs
        }

    def _gk_delta_is_safe(self) -> bool:
        """True iff the ``G_k`` change since the last snapshot cannot have
        shortened any path between pre-existing vertices (see the module
        docstring for the pendant-graft argument)."""
        if self._known_vs is None:
            return False  # no G_k in hand (e.g. remote): cannot verify
        gk = self._gk
        current = set(gk.vertices())
        added = current - self._known_vs
        removed = self._known_vs - current
        # Removals are safe only for vertices we admitted as grafts.
        if any(v not in self._grafted for v in removed):
            return False
        # Additions are safe only as pendants (total degree <= 1 now).
        # Each new arc is attributed to exactly one graft (the first new
        # endpoint that claims it); an arc landing on an *older* graft
        # stays attributed to the new vertex, so removing the older graft
        # out of order under-explains the signature and forces a flush —
        # conservative, never stale.
        edges_added = 0
        added_sig = 0
        seen_arcs = set()
        new_records = {}
        for v in added:
            if self._gk_edge_count(v) > 1:
                return False
            count = 0
            sig = 0
            for a, b, wt in self._graft_arcs(v):
                key = (a, b) if self._directed else (min(a, b), max(a, b))
                if key in seen_arcs:
                    continue  # arc between two new pendants: claimed once
                seen_arcs.add(key)
                count += 1
                sig = (sig + self._arc_sig(a, b, wt)) & self._SIG_MASK
            new_records[v] = (count, sig)
            edges_added += count
            added_sig = (added_sig + sig) & self._SIG_MASK
        # Every edge *and weight* delta must be explained by the grafts
        # themselves — an edge between old vertices, or an old edge
        # reweighted by §8.3 augmenting-edge repair, fails this ledger.
        removed_edges = sum(self._grafted[v][0] for v in removed)
        removed_sig = 0
        for v in removed:
            removed_sig = (removed_sig + self._grafted[v][1]) & self._SIG_MASK
        if gk.num_edges != self._known_edges + edges_added - removed_edges:
            return False
        expected_sig = (self._known_sig + added_sig - removed_sig) & self._SIG_MASK
        if self._gk_sig() != expected_sig:
            return False
        for v in removed:
            del self._grafted[v]
        self._grafted.update(new_records)
        return True


def cached_factory(base_factory, directed: bool):
    """Wrap a registered factory so ``cached:<name>`` builds the inner
    engine with the original arguments and decorates it.

    The ``G_k`` handed to the inner factory (the first positional / the
    ``gk`` keyword, when present) is also handed to the decorator — it
    is the live object §8.3 maintenance mutates, which is exactly what
    the invalidation token must watch.  Budget knobs come from the
    environment (``REPRO_CACHE_ENTRIES`` / ``REPRO_CACHE_TTL_S``).
    """

    def factory(*args, **kwargs):
        inner = base_factory(*args, **kwargs)
        gk = args[0] if args else kwargs.get("gk")
        return CachedEngine(
            inner,
            gk=gk,
            directed=directed,
            max_entries=cache_entries_from_env(),
            ttl_s=cache_ttl_from_env(),
        )

    return factory
