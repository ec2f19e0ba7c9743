"""Vertex hierarchy construction — Definitions 1 and 4 (§4.1, §5.1, §6.1.3).

The hierarchy ``(L, G)`` peels an independent set ``L_i`` off every ``G_i``
and replaces ``G_i`` with the distance-preserving ``G_{i+1}``.  The k-level
variant stops at the first graph that failed to shrink by at least
``1 - σ``: "let i be the first level such that |G_i|/|G_{i-1}| > σ; then
k = i" (§5.1).  Vertices surviving in ``G_k`` all receive level ``k``.

:class:`VertexHierarchy` stores everything labeling and querying need:

* per level, the removed vertices with their adjacency at removal time
  (``ADJ(L_i)`` — these are the only edges Definition 3 ever looks at for a
  level-``i`` vertex);
* the final graph ``G_k``;
* level numbers ``ℓ(v)`` for every vertex;
* optionally the §8.1 intermediate-vertex hints for every augmenting edge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import IndexBuildError
from repro.core.independent_set import greedy_independent_set, random_independent_set
from repro.core.reduce import EdgeHints, reduce_graph_inplace
from repro.graph.graph import Graph

__all__ = [
    "VertexHierarchy",
    "build_hierarchy",
    "build_hierarchy_with_levels",
    "DEFAULT_SIGMA",
]

Adjacency = List[Tuple[int, int]]

DEFAULT_SIGMA = 0.95


@dataclass
class VertexHierarchy:
    """The k-level vertex hierarchy ``(H_{<k}, G_k)`` of Definition 4.

    Attributes
    ----------
    levels:
        ``levels[i]`` (0-based list index = paper level ``i+1``) maps each
        ``v ∈ L_{i+1}`` to ``adj_{G_{i+1}}(v)`` at removal time.
    gk:
        The top graph ``G_k`` (empty for a full hierarchy).
    level_of:
        ``ℓ(v)`` for every input vertex, 1-based; ``ℓ(v) = k`` for
        ``v ∈ V_{G_k}``.
    sizes:
        ``|G_1|, |G_2|, ..., |G_k|`` — the trace the σ rule evaluated.
    hints:
        §8.1 intermediate-vertex map, present when built with paths enabled.
    build_seconds:
        Wall-clock construction time.
    """

    levels: List[Dict[int, Adjacency]]
    gk: Graph
    level_of: Dict[int, int]
    sizes: List[int]
    sigma: Optional[float]
    hints: Optional[EdgeHints] = None
    build_seconds: float = 0.0

    @property
    def k(self) -> int:
        """The paper's ``k``: level number of every ``G_k`` vertex."""
        return len(self.levels) + 1

    @property
    def num_vertices(self) -> int:
        return len(self.level_of)

    @property
    def is_full(self) -> bool:
        """True when the hierarchy decomposed the whole graph (``G_k`` empty)."""
        return self.gk.num_vertices == 0

    def level(self, v: int) -> int:
        """``ℓ(v)`` (1-based)."""
        try:
            return self.level_of[v]
        except KeyError:
            raise IndexBuildError(f"vertex {v} not covered by the hierarchy") from None

    def removal_adjacency(self, v: int) -> Adjacency:
        """``adj_{G_{ℓ(v)}}(v)`` for a peeled vertex ``v``.

        This is the neighbourhood Definition 3 expands when labeling — for
        ``v ∈ L_i`` every neighbour has a strictly higher level.
        """
        lv = self.level(v)
        if lv >= self.k:
            raise IndexBuildError(f"vertex {v} is in G_k; it was never peeled")
        return self.levels[lv - 1][v]

    def level_vertices(self, i: int) -> List[int]:
        """Vertices of ``L_i`` (1-based ``i < k``), in selection order."""
        if not 1 <= i < self.k:
            raise IndexBuildError(f"no peeled level {i} in a {self.k}-level hierarchy")
        return list(self.levels[i - 1])

    def in_gk(self, v: int) -> bool:
        return self.gk.has_vertex(v)

    def validate_level_numbers(self) -> None:
        """Internal consistency check used by tests."""
        for i, peeled in enumerate(self.levels, start=1):
            for v in peeled:
                if self.level_of.get(v) != i:
                    raise IndexBuildError(f"vertex {v} recorded at level "
                                          f"{self.level_of.get(v)}, stored in L_{i}")
        for v in self.gk.vertices():
            if self.level_of.get(v) != self.k:
                raise IndexBuildError(f"G_k vertex {v} has level {self.level_of.get(v)}")


def build_hierarchy(
    graph: Graph,
    sigma: Optional[float] = DEFAULT_SIGMA,
    k: Optional[int] = None,
    full: bool = False,
    is_strategy: str = "min_degree",
    seed: Optional[int] = None,
    with_hints: bool = False,
) -> VertexHierarchy:
    """Construct the (k-level) vertex hierarchy of ``graph``.

    Parameters
    ----------
    graph:
        The input ``G = G_1`` (not mutated; a working copy is peeled).
    sigma:
        The σ stopping threshold of §5.1 (default 0.95, Table 7 uses 0.90).
        Ignored when ``k`` or ``full`` is given.
    k:
        Build exactly ``k - 1`` peeled levels (Table 6's explicit-k sweep).
        The construction may stop earlier if the graph empties.
    full:
        Build the complete hierarchy of Definition 1 (``G_k`` empty, queries
        answered by labels alone) — the §4 index, our full-vs-k ablation.
    is_strategy:
        ``"min_degree"`` (Algorithm 2) or ``"random"`` (ablation).
    seed:
        RNG seed for the random strategy.
    with_hints:
        Record §8.1 intermediate-vertex hints for path reconstruction.
    """
    if sum((k is not None, full, False)) > 1:
        raise IndexBuildError("give at most one of k= and full=")
    if k is not None and k < 2:
        raise IndexBuildError("k must be at least 2 (Definition 4: 1 < k)")
    if sigma is not None and not 0.0 < sigma <= 1.0:
        raise IndexBuildError(f"sigma must be in (0, 1], got {sigma}")
    if is_strategy not in ("min_degree", "random"):
        raise IndexBuildError(f"unknown IS strategy {is_strategy!r}")

    started = time.perf_counter()
    work = graph.copy()
    hints: Optional[EdgeHints] = {} if with_hints else None
    levels: List[Dict[int, Adjacency]] = []
    level_of: Dict[int, int] = {}
    sizes = [work.size]

    while True:
        if work.num_vertices == 0:
            break  # fully decomposed (h reached); G_k is empty
        if k is not None and len(levels) >= k - 1:
            break  # explicit k: exactly k-1 peeled levels
        if not full and k is None and work.num_edges == 0:
            # An edgeless G_i cannot shrink to anything but empty; peeling
            # further only bloats levels without helping queries.
            break

        if is_strategy == "min_degree":
            selected, adj_of = greedy_independent_set(work)
        else:
            selected, adj_of = random_independent_set(
                work, None if seed is None else seed + len(levels)
            )
        if not selected:
            raise IndexBuildError("independent set selection returned nothing")

        level_number = len(levels) + 1
        for v in selected:
            level_of[v] = level_number
        levels.append(adj_of)
        reduce_graph_inplace(work, selected, adj_of, hints)
        sizes.append(work.size)

        if full or k is not None:
            continue
        # §5.1 σ rule: stop at the first G_i that failed to shrink enough.
        if sizes[-1] > sigma * sizes[-2]:
            break

    top_level = len(levels) + 1
    for v in work.vertices():
        level_of[v] = top_level

    hierarchy = VertexHierarchy(
        levels=levels,
        gk=work,
        level_of=level_of,
        sizes=sizes,
        sigma=None if (full or k is not None) else sigma,
        hints=hints,
        build_seconds=time.perf_counter() - started,
    )
    if hierarchy.num_vertices != graph.num_vertices:
        raise IndexBuildError(
            f"hierarchy covers {hierarchy.num_vertices} of "
            f"{graph.num_vertices} vertices"
        )
    return hierarchy


def build_hierarchy_with_levels(
    graph: Graph,
    prescribed: List[List[int]],
    with_hints: bool = False,
) -> VertexHierarchy:
    """Build a hierarchy from explicitly prescribed independent sets.

    ``prescribed[i]`` is ``L_{i+1}``; any vertices not listed stay in
    ``G_k``.  Each prescribed set must be an independent set of the graph
    it is peeled from (Definition 1), which is verified.  Used to replay
    the paper's Figure 1 example (whose illustrative IS choice differs from
    the min-degree greedy) and for targeted tests.
    """
    started = time.perf_counter()
    work = graph.copy()
    hints: Optional[EdgeHints] = {} if with_hints else None
    levels: List[Dict[int, Adjacency]] = []
    level_of: Dict[int, int] = {}
    sizes = [work.size]

    for i, level_set in enumerate(prescribed, start=1):
        adj_of: Dict[int, Adjacency] = {}
        selected = set(level_set)
        for v in level_set:
            if not work.has_vertex(v):
                raise IndexBuildError(f"prescribed vertex {v} not in G_{i}")
            if any(u in selected for u in work.neighbors(v)):
                raise IndexBuildError(
                    f"prescribed L_{i} is not an independent set (vertex {v})"
                )
            adj_of[v] = sorted(work.neighbors(v).items())
            level_of[v] = i
        levels.append(adj_of)
        reduce_graph_inplace(work, level_set, adj_of, hints)
        sizes.append(work.size)

    top = len(levels) + 1
    for v in work.vertices():
        level_of[v] = top
    hierarchy = VertexHierarchy(
        levels=levels,
        gk=work,
        level_of=level_of,
        sizes=sizes,
        sigma=None,
        hints=hints,
        build_seconds=time.perf_counter() - started,
    )
    return hierarchy
