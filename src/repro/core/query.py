"""Query processing — Equation 1 and Algorithm 1 (§4.3, §5.2).

Two query modes:

* **Pure label (Equation 1)** — used for full hierarchies and for Type 1
  queries (both endpoints below level ``k`` and at least one label that
  never reaches ``G_k``); implemented in :mod:`repro.core.labels`.
* **Label-based bidirectional Dijkstra (Algorithm 1)** — used for Type 2
  queries.  The labels seed both priority queues with the distances to
  every ``G_k`` ancestor (exact for the relevant gateways, Theorem 4) and
  the label intersection provides the initial pruning bound ``µ``; the
  bidirectional search stops as soon as ``min(FQ) + min(RQ) ≥ µ``.

Deviation from the paper's pseudocode (see "Deviations from the paper" in
``docs/ARCHITECTURE.md``): ``µ`` is updated
against the opposite side's *tentative* distances — on every scanned edge
and on every extraction — not only against settled entries inside the
improvement branch.  Tentative distances are always realizable path lengths
(seed + settled prefix + one edge), so ``µ`` stays an upper bound; without
this, the ``min(FQ) + min(RQ) ≥ µ`` stop can fire between the two
extractions of the meeting vertex (e.g. when the meeting vertex is a label
seed) and the published pseudocode returns an overestimate.

The search is written against adjacency *callables* so the directed variant
(§8.2) can reuse it with successor/predecessor maps.

:func:`csr_label_bidijkstra` is the fast engine's equivalent of
:func:`label_bidijkstra`: identical pruning and ``µ``-update semantics, but
over the flat ``indptr/indices/weights`` arrays of a frozen
:class:`repro.graph.csr.CSRGraph` with dense-int distance maps drawn from a
per-thread :class:`repro.core.fastlabels.LabelArrayPool` (epoch-stamped, so
nothing is cleared between queries).  It runs the compiled kernel of
:mod:`repro.core.kernels` when that loaded, and otherwise the pure-Python
:func:`csr_label_bidijkstra_reference` — the oracle the kernel is tested
against, with identical answers and work counters.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import kernels

__all__ = [
    "SearchStats",
    "BiDijkstraResult",
    "label_bidijkstra",
    "csr_label_bidijkstra",
    "csr_label_bidijkstra_reference",
]

AdjacencyFn = Callable[[int], Iterable[Tuple[int, int]]]
Seed = Tuple[int, int]  # (G_k vertex, label distance)


@dataclass
class SearchStats:
    """Work counters for one Algorithm-1 run (ablation E11 reads these)."""

    settled_forward: int = 0
    settled_reverse: int = 0
    relaxed_edges: int = 0
    heap_pushes: int = 0

    @property
    def settled_total(self) -> int:
        return self.settled_forward + self.settled_reverse


@dataclass
class BiDijkstraResult:
    """Outcome of a label-based bidirectional Dijkstra search.

    ``distance`` is ``µ*`` (may be ``inf``).  ``meet_vertex`` is the ``G_k``
    vertex realising the best meeting, or ``None`` when the initial
    label-intersection bound was never beaten (the caller then reconstructs
    through the Equation-1 argmin ancestor instead).  ``parents_*`` map each
    reached vertex to its search parent (``None`` for label seeds), enabling
    §8.1 path reconstruction.
    """

    distance: float
    meet_vertex: Optional[int]
    stats: SearchStats
    parents_forward: Dict[int, Optional[int]] = field(default_factory=dict)
    parents_reverse: Dict[int, Optional[int]] = field(default_factory=dict)


def label_bidijkstra(
    forward_adj: AdjacencyFn,
    reverse_adj: AdjacencyFn,
    seeds_forward: Iterable[Seed],
    seeds_reverse: Iterable[Seed],
    initial_mu: float = math.inf,
    keep_parents: bool = False,
) -> BiDijkstraResult:
    """Run Algorithm 1's Stage 2 given the Stage-1 seeds and bound.

    Parameters
    ----------
    forward_adj, reverse_adj:
        Adjacency of ``G_k`` for the forward (from ``s``) and reverse
        (towards ``t``) searches; identical for undirected graphs.
    seeds_forward, seeds_reverse:
        ``(v, d(s, v))`` / ``(v, d(t, v))`` for every ``G_k`` ancestor in
        the respective label (lines 1–3).
    initial_mu:
        The label-intersection bound of lines 4–6 (``inf`` disables the
        pruning seed — the E11 ablation).
    keep_parents:
        Record parent pointers for path reconstruction.
    """
    dist_f: Dict[int, int] = {}
    dist_r: Dict[int, int] = {}
    settled_f: Dict[int, int] = {}
    settled_r: Dict[int, int] = {}
    heap_f: List[Tuple[int, int]] = []
    heap_r: List[Tuple[int, int]] = []
    parents_f: Dict[int, Optional[int]] = {}
    parents_r: Dict[int, Optional[int]] = {}
    stats = SearchStats()

    for v, d in seeds_forward:
        if d < dist_f.get(v, math.inf):
            dist_f[v] = d
            heapq.heappush(heap_f, (d, v))
            if keep_parents:
                parents_f[v] = None
    for v, d in seeds_reverse:
        if d < dist_r.get(v, math.inf):
            dist_r[v] = d
            heapq.heappush(heap_r, (d, v))
            if keep_parents:
                parents_r[v] = None

    mu = initial_mu
    meet: Optional[int] = None

    while True:
        min_f = _peek(heap_f, settled_f)
        min_r = _peek(heap_r, settled_r)
        if min_f + min_r >= mu:
            break  # pruning condition of line 8 (covers exhausted queues)

        if min_f <= min_r:
            side_heap, adj = heap_f, forward_adj
            dist_x, dist_o, settled_x = dist_f, dist_r, settled_f
            parents_x = parents_f
        else:
            side_heap, adj = heap_r, reverse_adj
            dist_x, dist_o, settled_x = dist_r, dist_f, settled_r
            parents_x = parents_r

        d, v = heapq.heappop(side_heap)
        if v in settled_x:
            continue
        settled_x[v] = d
        if side_heap is heap_f:
            stats.settled_forward += 1
        else:
            stats.settled_reverse += 1

        # µ update at settle time against the other side's best-known
        # (possibly tentative) distance — covers meetings at label seeds.
        other = dist_o.get(v)
        if other is not None and d + other < mu:
            mu = d + other
            meet = v

        for u, weight in adj(v):
            stats.relaxed_edges += 1
            if u in settled_x:
                continue
            candidate = d + weight
            if candidate < dist_x.get(u, math.inf):
                dist_x[u] = candidate
                heapq.heappush(side_heap, (candidate, u))
                stats.heap_pushes += 1
                if keep_parents:
                    parents_x[u] = v
            # µ update on every scan (module docstring): the head may already
            # carry a distance on the other side whose meeting with this
            # side was never evaluated.
            other_u = dist_o.get(u)
            if other_u is not None:
                through = dist_x[u] + other_u
                if through < mu:
                    mu = through
                    meet = u

    return BiDijkstraResult(
        distance=mu,
        meet_vertex=meet,
        stats=stats,
        parents_forward=parents_f,
        parents_reverse=parents_r,
    )


def _peek(heap: List[Tuple[int, int]], settled: Dict[int, int]) -> float:
    """Smallest non-stale key in ``heap`` (``inf`` when exhausted)."""
    while heap and heap[0][1] in settled:
        heapq.heappop(heap)
    return heap[0][0] if heap else math.inf


def csr_label_bidijkstra(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[int],
    seeds_forward: Tuple[Sequence[int], Sequence[int]],
    seeds_reverse: Tuple[Sequence[int], Sequence[int]],
    pool,
    num_vertices: int,
    initial_mu: float = math.inf,
    indptr_r: Optional[Sequence[int]] = None,
    indices_r: Optional[Sequence[int]] = None,
    weights_r: Optional[Sequence[int]] = None,
) -> Tuple[float, int, SearchStats]:
    """Algorithm 1's Stage 2 over a CSR ``G_k``: the compiled kernel when
    it loaded (:data:`repro.core.kernels.BACKEND` ``== "c"``), else
    :func:`csr_label_bidijkstra_reference`.  Same arguments and results.

    Each backend reads its own input form fastest — int64 ndarrays for the
    kernel, Python lists for the reference — but accepts either.  ``pool``
    holds the reference's buffers; the kernel searches in the calling
    thread's own native scratch.
    """
    arrays = (indptr, indices, weights, seeds_forward, seeds_reverse)
    rest = (num_vertices, initial_mu, indptr_r, indices_r, weights_r)
    if kernels.BACKEND == "c":
        distance, meet, counts = kernels.bidijkstra(*arrays, *rest)
        return distance, meet, SearchStats(*counts)
    return csr_label_bidijkstra_reference(*arrays, pool, *rest)


def csr_label_bidijkstra_reference(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[int],
    seeds_forward: Tuple[Sequence[int], Sequence[int]],
    seeds_reverse: Tuple[Sequence[int], Sequence[int]],
    pool,
    num_vertices: int,
    initial_mu: float = math.inf,
    indptr_r: Optional[Sequence[int]] = None,
    indices_r: Optional[Sequence[int]] = None,
    weights_r: Optional[Sequence[int]] = None,
) -> Tuple[float, int, SearchStats]:
    """Algorithm 1's Stage 2 over a CSR ``G_k`` with dense vertex ids.

    Answer-identical to :func:`label_bidijkstra` (same stopping rule, same
    µ updates on settle and on every scanned edge), but engineered for the
    CPython hot loop: every map is a flat list indexed by dense id —
    distances, settled flags and tentative-dist markers come from ``pool``
    (a :class:`repro.core.fastlabels.LabelArrayPool`) and are invalidated
    by epoch stamping instead of being cleared — and heap entries are
    single ints ``d * n + v`` (same ``(d, v)`` order as the reference's
    tuples, far cheaper to compare).  One extra prune the reference skips:
    an edge relaxation with ``tentative >= µ`` is dropped outright — any
    meeting through it costs at least ``tentative``, and the optimal path's
    relaxations always satisfy ``tentative <= OPT < µ`` until ``µ = OPT``,
    so the returned ``µ*`` is unchanged while the heap stays much smaller.

    Parameters
    ----------
    indptr, indices, weights:
        The CSR arrays of ``G_k`` as Python lists (scalar indexing on
        lists is what makes the inner loop fast in CPython).  For an
        undirected ``G_k`` they serve both search directions; for the
        directed index (§8.2) they are the *forward* (out-arc) arrays.
    indptr_r, indices_r, weights_r:
        Optional transposed CSR arrays the reverse search scans —
        predecessors of each dense vertex.  Defaults to the forward
        arrays (the undirected case).
    seeds_forward, seeds_reverse:
        Each a ``(dense_ids, dists)`` pair of parallel sequences — the
        pre-extracted label seeds of the two endpoints.
    pool:
        The shared search-buffer pool; acquired once per call.
    num_vertices:
        ``|V_{G_k}|`` (dense ids run ``0..num_vertices-1``).
    initial_mu:
        The Equation-1 label-intersection bound (lines 4-6).

    Returns
    -------
    (distance, meet_dense, stats):
        ``distance`` is ``µ*`` (``inf`` when the searches never meet);
        ``meet_dense`` the dense id of the best meeting vertex, ``-1``
        when the initial bound was never beaten.
    """
    n = num_vertices
    if indptr_r is None:
        indptr_r, indices_r, weights_r = indptr, indices, weights
    epoch = pool.acquire(n)
    dist_f, dist_r = pool.dist_f, pool.dist_r
    seen_f, seen_r = pool.seen_f, pool.seen_r
    done_f, done_r = pool.done_f, pool.done_r
    heap_f: List[int] = []
    heap_r: List[int] = []
    push = heapq.heappush
    pop = heapq.heappop

    for v, d in zip(*seeds_forward):
        dist_f[v] = d
        seen_f[v] = epoch
        heap_f.append(d * n + v)
    heapq.heapify(heap_f)
    for v, d in zip(*seeds_reverse):
        dist_r[v] = d
        seen_r[v] = epoch
        heap_r.append(d * n + v)
    heapq.heapify(heap_r)

    mu = initial_mu
    meet = -1
    settled_fwd = settled_rev = relaxed = pushes = 0

    while True:
        while heap_f and done_f[heap_f[0] % n] == epoch:
            pop(heap_f)
        min_f = heap_f[0] // n if heap_f else math.inf
        while heap_r and done_r[heap_r[0] % n] == epoch:
            pop(heap_r)
        min_r = heap_r[0] // n if heap_r else math.inf
        if min_f + min_r >= mu:
            break  # pruning condition of line 8 (covers exhausted queues)

        if min_f <= min_r:
            heap = heap_f
            dist_x, dist_o = dist_f, dist_r
            seen_x, seen_o = seen_f, seen_r
            done_x = done_f
            adj_ptr, adj_idx, adj_wts = indptr, indices, weights
            forward = True
        else:
            heap = heap_r
            dist_x, dist_o = dist_r, dist_f
            seen_x, seen_o = seen_r, seen_f
            done_x = done_r
            adj_ptr, adj_idx, adj_wts = indptr_r, indices_r, weights_r
            forward = False

        d, v = divmod(pop(heap), n)
        done_x[v] = epoch
        if forward:
            settled_fwd += 1
        else:
            settled_rev += 1

        # µ update at settle time against the other side's best-known
        # (possibly tentative) distance — covers meetings at label seeds.
        if seen_o[v] == epoch:
            through = d + dist_o[v]
            if through < mu:
                mu = through
                meet = v

        for p in range(adj_ptr[v], adj_ptr[v + 1]):
            relaxed += 1
            u = adj_idx[p]
            if done_x[u] == epoch:
                continue
            candidate = d + adj_wts[p]
            if candidate >= mu:
                continue  # cannot beat µ through here (see docstring)
            if seen_x[u] != epoch or candidate < dist_x[u]:
                dist_x[u] = candidate
                seen_x[u] = epoch
                push(heap, candidate * n + u)
                pushes += 1
            # µ update on every scan (module docstring): the head may already
            # carry a distance on the other side whose meeting with this
            # side was never evaluated.
            if seen_o[u] == epoch:
                through = dist_x[u] + dist_o[u]
                if through < mu:
                    mu = through
                    meet = u

    stats = SearchStats(
        settled_forward=settled_fwd,
        settled_reverse=settled_rev,
        relaxed_edges=relaxed,
        heap_pushes=pushes,
    )
    return mu, meet, stats
