"""Approximate distance queries on top of IS-LABEL (§3.2's remark).

The paper focuses on exact querying but notes that "approximation can be
applied on top of our method (e.g., on the graph G_k defined in Section
5)".  This module realises that remark: instead of running the Type-2
bidirectional Dijkstra over ``G_k``, a small set of *landmarks* inside
``G_k`` is preprocessed with exact ``G_k`` distances, and a query combines

* the exact label distances from each endpoint to its ``G_k`` gateways, and
* the triangle-inequality bound through the best landmark,

yielding an upper bound in ``O(|label| · L)`` time with no search at all.
The Equation-1 bound over the full label intersection is taken too, so the
estimate is never worse than the pure-label answer.

Guarantees: the estimate is always ``>= dist_G(s,t)`` (every bound is a
realizable path) and equals it whenever some shortest path meets a
landmark or avoids ``G_k`` entirely.  The ``bench_approx_mode``
benchmark quantifies the speed/error trade-off.

This is the repository's one approximate tier.  It was measured against
a hub sketch (Eq. 1 over each label truncated to its top ``h`` entries,
after Gawrychowski et al., arXiv:1507.06240) on 2,000 uniform pairs at
seed 0, single queries through the facade on a 2-vCPU Xeon VM:

====================  =====  ========  ==========================  =====================
graph                 |V_k|  exact     hub sketch, h=8             landmarks, L=16
====================  =====  ========  ==========================  =====================
``web:2.0``           301    5.1 µs    3.8 µs; ``inf`` for 98.0%   78.8 µs; 89.4% exact;
                                       of connected pairs; 1.8%    0.67% mean error
                                       exact
``skitter:1.0``       370    4.0 µs    2.3 µs; ``inf`` for 94.6%;  48.3 µs; 91.9% exact;
                                       3.9% exact                  1.73% mean error
====================  =====  ========  ==========================  =====================

Without a ``G_k`` stage the sketch cannot bound most pairs, so the
landmark oracle was kept.  It is *slower* than the exact query: the
exact path runs Eq. 1 and the ``G_k`` table stage in one compiled call,
while this oracle loops over landmarks in Python.  A re-run on the same
host read 47.5–84.0 µs for the oracle against 5.0–5.9 µs exact, with
identical error figures.  It therefore stays off every serving path.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.index import ISLabelIndex
from repro.core.labels import eq1_distance
from repro.errors import IndexBuildError, QueryError

__all__ = ["ApproximateDistanceOracle"]


class ApproximateDistanceOracle:
    """Landmark-based approximate querying over a built IS-LABEL index.

    Parameters
    ----------
    index:
        A built :class:`ISLabelIndex` (any storage mode).
    num_landmarks:
        How many ``G_k`` vertices to preprocess; chosen by descending
        ``G_k`` degree (hub landmarks cover the most shortest paths).
    landmarks:
        Explicit landmark vertices (must lie in ``G_k``); overrides
        ``num_landmarks``.
    """

    def __init__(
        self,
        index: ISLabelIndex,
        num_landmarks: int = 16,
        landmarks: Optional[Sequence[int]] = None,
    ) -> None:
        self.index = index
        gk = index.gk
        if landmarks is not None:
            chosen = list(landmarks)
            for l in chosen:
                if not gk.has_vertex(l):
                    raise IndexBuildError(f"landmark {l} is not in G_k")
        else:
            if num_landmarks < 1:
                raise IndexBuildError("need at least one landmark")
            chosen = sorted(
                gk.vertices(), key=lambda v: (-gk.degree(v), v)
            )[:num_landmarks]
        self.landmarks = chosen
        #: ``_from_landmark[l][v]`` = exact dist_Gk(l, v).
        self._from_landmark: Dict[int, Dict[int, int]] = {
            l: self._gk_sssp(l) for l in chosen
        }

    def _gk_sssp(self, source: int) -> Dict[int, int]:
        gk = self.index.gk
        dist: Dict[int, int] = {}
        heap: List[Tuple[int, int]] = [(0, source)]
        while heap:
            d, v = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            for u, w in gk.neighbors(v).items():
                if u not in dist:
                    heapq.heappush(heap, (d + w, u))
        return dist

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance_upper_bound(self, source: int, target: int) -> float:
        """An upper bound on ``dist_G(source, target)`` without searching.

        The bound is the minimum of Equation 1 over the label intersection
        and, per landmark ``l``, (best gateway of ``s`` to ``l``) + (best
        gateway of ``t`` to ``l``), all exact ``G_k`` distances.
        """
        index = self.index
        index._check_vertex(source)
        index._check_vertex(target)
        if source == target:
            return 0

        label_s = index.label(source)
        label_t = index.label(target)
        best = eq1_distance(label_s, label_t)

        seeds_s = index._gk_seeds(label_s)
        seeds_t = index._gk_seeds(label_t)
        if not seeds_s or not seeds_t:
            return best

        for l in self.landmarks:
            table = self._from_landmark[l]
            to_l = min(
                (d + table[v] for v, d in seeds_s if v in table),
                default=math.inf,
            )
            from_l = min(
                (d + table[v] for v, d in seeds_t if v in table),
                default=math.inf,
            )
            if to_l + from_l < best:
                best = to_l + from_l
        return best

    def relative_error(self, source: int, target: int) -> float:
        """``(estimate - exact) / exact`` (0.0 for exact answers)."""
        exact = self.index.distance(source, target)
        estimate = self.distance_upper_bound(source, target)
        if math.isinf(exact):
            if not math.isinf(estimate):
                raise QueryError("estimate finite for a disconnected pair")
            return 0.0
        if exact == 0:
            return 0.0
        return (estimate - exact) / exact

    @property
    def preprocessing_entries(self) -> int:
        """Stored landmark-distance entries (memory footprint proxy)."""
        return sum(len(t) for t in self._from_landmark.values())
