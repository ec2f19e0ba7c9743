"""Directed IS-LABEL — §8.2.

Differences from the undirected index, exactly as the paper lists them:

* the independent set is computed "by simply ignoring the direction of the
  edges";
* an augmenting arc ``(u, w)`` is created at ``G_i`` only if some removed
  ``v`` has arcs ``(u, v)`` and ``(v, w)``;
* every vertex carries two labels: the *out-label* (out-ancestors, reached
  by increasing-level arcs leaving ``v``) and the *in-label* (in-ancestors);
* a query intersects ``LABEL_out(s)`` with ``LABEL_in(t)``, and the Type-2
  bidirectional search runs forwards over successors and backwards over
  predecessors of ``G_k``.

Setting every arc weight to 1 turns distance queries into reachability
tests (`dist < inf`), the §9 observation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.engines import DIRECTED, resolve_engine
from repro.core.fastdirected import DirectedFastEngine
from repro.core.index import _IndexFacade
from repro.core.independent_set import bucket_order
from repro.core.labels import (
    eq1_distance,
    eq1_distance_argmin,
    merge_neighbor_labels,
    sort_label,
)
from repro.core.query import label_bidijkstra
from repro.errors import IndexBuildError, QueryError
from repro.graph.digraph import DiGraph

__all__ = ["DirectedISLabelIndex", "DirectedHierarchy"]

Adjacency = List[Tuple[int, int]]


#: ``hints[(u, w)] = v`` records that arc ``(u, w)``'s current weight
#: decomposes as the 2-path ``u -> v -> w`` (§8.1 applied to arcs).
ArcHints = Dict[Tuple[int, int], int]


@dataclass
class DirectedHierarchy:
    """k-level hierarchy of a digraph.

    ``levels[i][v] = (in_adj, out_adj)`` — predecessor and successor lists
    of ``v`` in ``G_{i+1}`` at removal time.
    """

    levels: List[Dict[int, Tuple[Adjacency, Adjacency]]]
    gk: DiGraph
    level_of: Dict[int, int]
    sizes: List[int]
    sigma: Optional[float]
    hints: Optional[ArcHints] = None
    build_seconds: float = 0.0

    @property
    def k(self) -> int:
        return len(self.levels) + 1

    def in_gk(self, v: int) -> bool:
        return self.gk.has_vertex(v)


def _build_directed_hierarchy(
    graph: DiGraph,
    sigma: Optional[float],
    k: Optional[int],
    full: bool,
    with_hints: bool = False,
) -> DirectedHierarchy:
    if k is not None and k < 2:
        raise IndexBuildError("k must be at least 2")
    started = time.perf_counter()
    work = graph.copy()
    levels: List[Dict[int, Tuple[Adjacency, Adjacency]]] = []
    level_of: Dict[int, int] = {}
    sizes = [work.size]
    hints: Optional[ArcHints] = {} if with_hints else None

    while True:
        if work.num_vertices == 0:
            break
        if k is not None and len(levels) >= k - 1:
            break
        if not full and k is None and work.num_edges == 0:
            break

        # Greedy min-degree IS on the underlying undirected graph; the
        # bucket pass ported from the undirected Algorithm-2 greedy avoids
        # re-sorting the whole vertex set with a comparison sort per round.
        order = bucket_order(work.vertices(), work.undirected_degree)
        selected: List[int] = []
        peeled: Dict[int, Tuple[Adjacency, Adjacency]] = {}
        excluded: set = set()
        for u in order:
            if u in excluded:
                continue
            neighbors = work.undirected_neighbors(u)
            selected.append(u)
            peeled[u] = (
                sorted(work.predecessors(u).items()),
                sorted(work.successors(u).items()),
            )
            excluded.update(neighbors)
        if not selected:
            raise IndexBuildError("independent set selection returned nothing")

        level_number = len(levels) + 1
        for v in selected:
            level_of[v] = level_number
        levels.append(peeled)

        # Peel and augment: in-neighbour x out-neighbour join per removed v.
        for v in selected:
            work.remove_vertex(v)
        for v, (in_adj, out_adj) in peeled.items():
            for u, wu in in_adj:
                for w, ww in out_adj:
                    if u != w and work.merge_edge(u, w, wu + ww):
                        if hints is not None:
                            hints[(u, w)] = v
        sizes.append(work.size)

        if full or k is not None:
            continue
        if sizes[-1] > sigma * sizes[-2]:
            break

    top = len(levels) + 1
    for v in work.vertices():
        level_of[v] = top
    return DirectedHierarchy(
        levels=levels,
        gk=work,
        level_of=level_of,
        sizes=sizes,
        sigma=None if (full or k is not None) else sigma,
        hints=hints,
        build_seconds=time.perf_counter() - started,
    )


class DirectedISLabelIndex(_IndexFacade):
    """IS-LABEL over a directed graph (out-labels + in-labels).

    ``engine`` mirrors the undirected index: ``"fast"`` (default) attaches
    a :class:`repro.core.fastdirected.DirectedFastEngine` — packed out/in
    label arrays, per-direction CSR views of ``G_k`` and a batch
    :meth:`distances` path — while ``"dict"`` keeps only the reference
    structures.  Both are answer-identical; path reconstruction always
    runs on the reference structures.  Coverage checks and engine
    routing are the shared facade's
    (:class:`repro.core.index._IndexFacade`).
    """

    _KIND = DIRECTED

    def __init__(
        self,
        hierarchy: DirectedHierarchy,
        out_labels: Dict[int, List[Tuple[int, int]]],
        in_labels: Dict[int, List[Tuple[int, int]]],
        labeling_seconds: float,
        out_preds: Optional[Dict[int, Dict[int, Optional[int]]]] = None,
        in_preds: Optional[Dict[int, Dict[int, Optional[int]]]] = None,
        fast: Optional[DirectedFastEngine] = None,
    ) -> None:
        super().__init__(hierarchy, labeling_seconds, fast)
        self._out_labels = out_labels
        self._in_labels = in_labels
        self._out_preds = out_preds
        self._in_preds = in_preds

    def _label_tables(self):
        return (self._out_labels, self._in_labels)

    def _reference_distance(self, source: int, target: int) -> float:
        return self._query(source, target, keep_parents=False)[0]

    @classmethod
    def build(
        cls,
        graph: DiGraph,
        sigma: Optional[float] = 0.95,
        k: Optional[int] = None,
        full: bool = False,
        with_paths: bool = False,
        engine: str = "fast",
    ) -> "DirectedISLabelIndex":
        """Build the directed index (same knobs as the undirected one).

        ``with_paths`` records arc hints and label predecessors so
        :meth:`shortest_path` can reconstruct directed paths (§8.1 applied
        to the directed index).  ``engine`` selects the query backend via
        the shared registry (see class docs); labeling itself is
        engine-independent and the fast engine freezes lazily, so build
        time does not depend on the choice.
        """
        factory = resolve_engine(DIRECTED, engine)
        hierarchy = _build_directed_hierarchy(
            graph, sigma, k, full, with_hints=with_paths
        )
        started = time.perf_counter()

        out_maps: Dict[int, Dict[int, int]] = {}
        in_maps: Dict[int, Dict[int, int]] = {}
        out_preds: Optional[Dict[int, Dict[int, Optional[int]]]] = (
            {} if with_paths else None
        )
        in_preds: Optional[Dict[int, Dict[int, Optional[int]]]] = (
            {} if with_paths else None
        )
        for v in hierarchy.gk.vertices():
            out_maps[v] = {v: 0}
            in_maps[v] = {v: 0}
            if with_paths:
                out_preds[v] = {v: None}
                in_preds[v] = {v: None}
        # Top-down labeling is Algorithm 4's min-merge, once per direction:
        # out-labels over out-arcs (v -> u, ℓ(u) > i), in-labels over
        # in-arcs (u -> v) — the same shared merge step as the undirected
        # labeler.
        for i in range(hierarchy.k - 1, 0, -1):
            for v, (in_adj, out_adj) in hierarchy.levels[i - 1].items():
                out_v, out_p = merge_neighbor_labels(
                    v, out_adj, out_maps, with_paths
                )
                in_v, in_p = merge_neighbor_labels(v, in_adj, in_maps, with_paths)
                out_maps[v] = out_v
                in_maps[v] = in_v
                if with_paths:
                    out_preds[v] = out_p
                    in_preds[v] = in_p

        out_labels = {v: sort_label(m) for v, m in out_maps.items()}
        in_labels = {v: sort_label(m) for v, m in in_maps.items()}
        fast = None
        if factory is not None:
            fast = factory(hierarchy.gk, out_labels, in_labels)
        return cls(
            hierarchy,
            out_labels,
            in_labels,
            labeling_seconds=time.perf_counter() - started,
            out_preds=out_preds,
            in_preds=in_preds,
            fast=fast,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query(self, source: int, target: int, keep_parents: bool):
        """Shared query core; returns (distance, search-or-None)."""
        self._check_vertex(source)
        self._check_vertex(target)
        if source == target:
            return 0, None

        out_s = self._label(self._out_labels, source)
        in_t = self._label(self._in_labels, target)
        mu0 = eq1_distance(out_s, in_t)

        gk = self.gk
        seeds_f = [(w, d) for w, d in out_s if gk.has_vertex(w)]
        seeds_r = [(w, d) for w, d in in_t if gk.has_vertex(w)]
        if not seeds_f or not seeds_r:
            return mu0, None

        result = label_bidijkstra(
            lambda v: gk.successors(v).items(),
            lambda v: gk.predecessors(v).items(),
            seeds_f,
            seeds_r,
            initial_mu=mu0,
            keep_parents=keep_parents,
        )
        return result.distance, result

    # ------------------------------------------------------------------
    # Directed shortest paths (§8.1 applied to the directed index)
    # ------------------------------------------------------------------
    def shortest_path(
        self, source: int, target: int
    ) -> Tuple[float, Optional[List[int]]]:
        """Exact directed distance plus one realizing path.

        Requires an index built ``with_paths=True``.  Returns
        ``(inf, None)`` when ``target`` is unreachable.
        """
        if self._out_preds is None or self.hierarchy.hints is None:
            raise QueryError(
                "directed path queries need an index built with with_paths=True"
            )
        distance, search = self._query(source, target, keep_parents=True)
        if math.isinf(distance):
            return math.inf, None
        if source == target:
            return 0, [source]

        if search is None or search.meet_vertex is None:
            out_s = self._label(self._out_labels, source)
            in_t = self._label(self._in_labels, target)
            _, best_w = eq1_distance_argmin(out_s, in_t)
            if best_w == -1:
                raise QueryError(
                    f"query ({source}, {target}) returned {distance} with an "
                    "empty label intersection"
                )
            forward = self._out_label_path(source, best_w)
            backward = self._in_label_path(target, best_w)
        else:
            meet = search.meet_vertex
            forward = self._forward_search_path(source, meet, search.parents_forward)
            backward = self._reverse_search_path(target, meet, search.parents_reverse)
        return distance, forward + backward[1:]

    def _forward_search_path(self, source, meet, parents) -> List[int]:
        """``source -> ... -> meet`` via out-label prefix + G_k arcs."""
        chain = [meet]
        cursor = meet
        while parents[cursor] is not None:
            cursor = parents[cursor]
            chain.append(cursor)
        chain.reverse()  # seed first
        path = self._out_label_path(source, chain[0])
        for a, b in zip(chain, chain[1:]):
            path += self._expand_arc(a, b)[1:]
        return path

    def _reverse_search_path(self, target, meet, parents) -> List[int]:
        """``meet -> ... -> target``: G_k arcs towards the reverse seed,
        then the seed's in-label path into ``target``."""
        chain = [meet]
        cursor = meet
        while parents[cursor] is not None:
            cursor = parents[cursor]
            chain.append(cursor)
        # chain: meet -> ... -> reverse seed; each hop is a G_k arc a -> b.
        path = [meet]
        for a, b in zip(chain, chain[1:]):
            path += self._expand_arc(a, b)[1:]
        tail = self._in_label_path(target, chain[-1])
        return path + tail[1:]

    def _out_label_path(self, v: int, ancestor: int) -> List[int]:
        """The directed path ``v -> ... -> ancestor`` behind an out-entry."""
        path = [v]
        cursor = v
        while cursor != ancestor:
            pred = self._out_preds[cursor][ancestor]
            if pred is None:
                path += self._expand_arc(cursor, ancestor)[1:]
                break
            path += self._expand_arc(cursor, pred)[1:]
            cursor = pred
        return path

    def _in_label_path(self, v: int, ancestor: int) -> List[int]:
        """The directed path ``ancestor -> ... -> v`` behind an in-entry."""
        suffix: List[int] = [v]
        cursor = v
        while cursor != ancestor:
            pred = self._in_preds[cursor][ancestor]
            if pred is None:
                hop = self._expand_arc(ancestor, cursor)
                return hop[:-1] + suffix
            hop = self._expand_arc(pred, cursor)
            suffix = hop[:-1] + suffix
            cursor = pred
        return suffix

    def _expand_arc(self, a: int, b: int) -> List[int]:
        """Expand one (possibly augmenting) arc into original arcs."""
        mid = self.hierarchy.hints.get((a, b))
        if mid is None:
            return [a, b]
        left = self._expand_arc(a, mid)
        right = self._expand_arc(mid, b)
        return left + right[1:]

    def out_label(self, v: int) -> List[Tuple[int, int]]:
        self._check_vertex(v)
        return self._label(self._out_labels, v)

    def in_label(self, v: int) -> List[Tuple[int, int]]:
        self._check_vertex(v)
        return self._label(self._in_labels, v)

    @property
    def label_entries(self) -> int:
        return sum(len(x) for x in self._out_labels.values()) + sum(
            len(x) for x in self._in_labels.values()
        )
