"""The IS-LABEL index facade.

:class:`ISLabelIndex` packages hierarchy construction (§4.1/§5.1), top-down
labeling (§6.1.4) and query processing (§4.3/§5.2) behind the API a
downstream user works with:

>>> from repro import Graph, ISLabelIndex
>>> g = Graph([(1, 2), (2, 3), (3, 4, 2)])
>>> index = ISLabelIndex.build(g)
>>> index.distance(1, 4)
4

Two storage modes mirror the paper's two configurations:

* ``storage="disk"`` — labels live in a simulated :class:`LabelStore`;
  every query charges read I/Os for the labels it touches, and
  :meth:`query` reports the paper's Time (a) (simulated I/O time at
  10 ms/IO) and Time (b) (measured search CPU) split.  This is "IS-LABEL"
  in Tables 4, 5 and 8.
* ``storage="memory"`` — labels stay in memory, Time (a) is zero.  This is
  "IM-ISL".

Orthogonally to storage, ``engine`` selects the query/compute backend by
registry name (:mod:`repro.core.engines` — the :class:`QueryEngine`
protocol and its registry; the directed index resolves through the same
registry under the ``"directed"`` kind):

* ``engine="fast"`` (default) — array-native hot paths: labels as sorted
  parallel numpy arrays with a merge-based Equation 1, ``G_k`` frozen into
  a CSR adjacency at build time, and Algorithm 1 run over flat
  ``indptr/indices/weights`` with dense-int distance maps from a shared
  buffer pool (:mod:`repro.core.fastlabels`).  :meth:`distances` becomes a
  true batch path that reuses the search buffers across the whole batch.
* ``engine="dict"`` — the reference implementation over dict-of-dict
  adjacency and entry-list labels; kept for ablations, as the correctness
  oracle of the cross-engine property tests, and for the mutable paths
  (dynamic updates, §8.3).

The facade does the bookkeeping and the engine does the compute.
:class:`_IndexFacade`, shared with the directed index, checks vertex
coverage, charges disk-mode label I/O and routes each call to the
attached engine or the dict reference.  A packed engine answers
``distance`` and ``distances`` in one compiled call each, from the vertex
ids (:mod:`repro.core.kernels`); :meth:`ISLabelIndex.query` reads its
Table 4/5 fields from the engine's staged body
(:meth:`repro.core.fastlabels.PackedEngineBase.staged`), the same
computation with its stage report.  Both engines return bit-identical
answers and identical I/O accounting; path reconstruction
(``keep_parents``) always runs on the reference search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Self, Tuple

from repro.core.engines import UNDIRECTED, resolve_engine
from repro.core.fastlabels import FastEngine, fast_top_down_labels
from repro.core.hierarchy import DEFAULT_SIGMA, VertexHierarchy, build_hierarchy
from repro.core.labeling import top_down_labels
from repro.core.labels import (
    BYTES_PER_ENTRY,
    BYTES_PER_ENTRY_WITH_PRED,
    LabelEntryList,
    eq1_distance_argmin,
    sort_label,
)
from repro.core.query import BiDijkstraResult, SearchStats, label_bidijkstra

# Importable from here as well: the benchmark suite's layer tracer
# (benchmarks/suite/spans.py) wraps it under this module path.
from repro.core.query import csr_label_bidijkstra  # noqa: F401
from repro.errors import IndexBuildError, QueryError
from repro.extmem.iomodel import CostModel, IOStats
from repro.extmem.labelstore import NO_HINT, LabelStore
from repro.graph.graph import Graph

__all__ = ["ISLabelIndex", "IndexStats", "QueryResult"]


@dataclass(frozen=True)
class IndexStats:
    """Construction-side numbers — the columns of Tables 3, 6 and 7."""

    k: int
    num_vertices: int
    num_edges: int
    gk_vertices: int
    gk_edges: int
    label_entries: int
    label_bytes: int
    build_seconds: float
    hierarchy_seconds: float
    labeling_seconds: float
    sigma: Optional[float]

    @property
    def avg_label_entries(self) -> float:
        labeled = self.num_vertices
        return self.label_entries / labeled if labeled else 0.0


@dataclass
class QueryResult:
    """One query's answer plus the cost breakdown of Tables 4 and 5."""

    source: int
    target: int
    distance: float
    #: Table 5 classification: 1 = both endpoints in G_k, 2 = one, 3 = none.
    query_type: int
    used_bidijkstra: bool
    label_ios: int
    #: Simulated label-retrieval time — the paper's Time (a).
    time_label_s: float
    #: Measured search time — the paper's Time (b).
    time_search_s: float
    search: Optional[SearchStats] = None

    @property
    def total_time_s(self) -> float:
        return self.time_label_s + self.time_search_s


class _IndexFacade:
    """What the undirected index and the directed one (§8.2) share.

    The facade owns the bookkeeping: vertex coverage, disk-mode label I/O
    and the implicit-label rule of :meth:`_label`.  Answers are computed
    by the attached engine, or by the orientation's dict reference when
    none is attached.  An orientation supplies only
    its own parts:

    * ``_KIND`` — the engine registry kind;
    * :meth:`_label_tables` — its entry-list label tables, in the order
      its engine factories take them;
    * :meth:`_reference_distance` — its dict reference query.
    """

    _KIND: str
    #: Disk mode's simulated label store.  Only the undirected index has
    #: one; its ``_fetch_label`` charges the reads.
    _store: Optional[LabelStore] = None

    def __init__(self, hierarchy, labeling_seconds: float, fast) -> None:
        self.hierarchy = hierarchy
        self.gk = hierarchy.gk
        self._labeling_seconds = labeling_seconds
        self._fast = fast

    def _label_tables(self) -> Tuple[Dict[int, LabelEntryList], ...]:
        raise NotImplementedError

    def _reference_distance(self, source: int, target: int) -> float:
        raise NotImplementedError

    @property
    def engine(self) -> str:
        """Registry name of the attached backend (``"dict"`` if none)."""
        return self._fast.name if self._fast is not None else "dict"

    @property
    def search_mode(self) -> str:
        """How Algorithm 1's search stage runs: ``"apsp"`` (small-``G_k``
        distance table), ``"csr"`` (flat-array bi-Dijkstra), ``"dict"``
        (reference adjacency) — or the backend's own name for
        protocol-only engines (e.g. ``"remote"``), whose search stage
        runs elsewhere."""
        if self._fast is None:
            return "dict"
        if not hasattr(self._fast, "has_apsp"):
            return self._fast.name
        return "apsp" if self._fast.has_apsp else "csr"

    def attach_fast_engine(self, engine: str = "fast") -> Self:
        """Attach the registered ``engine`` over the current labels/``G_k``.

        Used by the snapshot loaders in :mod:`repro.core.serialization`
        (heap engines, dynamic reloads) and by tests that construct
        indexes directly.  Resolves through the engine
        registry, so a replacement backend registered under the same name
        is honoured everywhere.  The engine snapshots the labels — mutate
        them afterwards only through :meth:`invalidate_labels`.
        """
        factory = resolve_engine(self._KIND, engine)
        self._fast = (
            factory(self.gk, *self._label_tables()) if factory is not None else None
        )
        return self

    def invalidate_labels(self, dirty=None) -> None:
        """Tell the attached engine that labels (and possibly ``G_k``)
        changed behind its back.

        The facade half of the dynamic seam: §8.3 maintenance
        (:mod:`repro.core.updates`) mutates the label tables and
        ``self.hierarchy.gk`` in place — both shared with the engine —
        then reports the touched vertices here.  With ``dirty`` the engine
        may repair its frozen arrays incrementally; with ``None`` it drops
        them and re-freezes on the next query.  No-op on the dict
        reference path, whose structures *are* the mutable ones.
        """
        if self._fast is not None:
            self._fast.invalidate(dirty)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Exact ``dist_G(source, target)`` (``inf`` when unreachable)."""
        level_of = self.hierarchy.level_of
        if source not in level_of or target not in level_of:
            self._check_vertex(source)
            self._check_vertex(target)
        if self._fast is None:
            return self._reference_distance(source, target)
        if self._store is not None:
            self._charge_label_io(source, target)
        return self._fast.distance(source, target)

    def distances(self, pairs) -> List[float]:
        """Batch form of :meth:`distance` over an iterable of (s, t) pairs.

        On a packed engine this is a real batch path: Equation 1 runs
        once, vectorized over the stacked label arrays of the whole batch,
        and the search stage reuses one set of pooled buffers (or one
        vectorized table reduction).  Disk-mode I/O accounting matches
        :meth:`distance`.
        """
        pairs = list(pairs)
        level_of = self.hierarchy.level_of
        for s, t in pairs:
            if s not in level_of or t not in level_of:
                self._check_vertex(s)
                self._check_vertex(t)
        if self._fast is None:
            return [self._reference_distance(s, t) for s, t in pairs]
        if self._store is not None:
            for s, t in pairs:
                self._charge_label_io(s, t)
        return self._fast.distances(pairs)

    def reachable(self, source: int, target: int) -> bool:
        """True iff ``target`` is reachable from ``source`` (§9)."""
        return not math.isinf(self.distance(source, target))

    def _charge_label_io(self, source: int, target: int) -> None:
        """Disk mode: read the two labels Equation 1 needs (none when
        ``source == target``)."""
        if source != target:
            self._fetch_label(source)
            self._fetch_label(target)

    def _implicit_label(self, table: Dict[int, LabelEntryList], v: int) -> bool:
        """The one label rule: a ``G_k`` vertex carries the implicit label
        ``[(v, 0)]``, stored nowhere and read at no I/O (Table 5's Type 1
        queries rely on it) — unless §8.3 maintenance inserted it with an
        enriched label, which is real and must be read."""
        return self.hierarchy.in_gk(v) and len(table.get(v, ())) <= 1

    def _label(self, table: Dict[int, LabelEntryList], v: int) -> LabelEntryList:
        """``label(v)`` from ``table``, exactly as Equation 1 reads it."""
        return [(v, 0)] if self._implicit_label(table, v) else table[v]

    def _check_vertex(self, v: int) -> None:
        if v not in self.hierarchy.level_of:
            raise QueryError(f"vertex {v} is not covered by this index")

    @property
    def k(self) -> int:
        return self.hierarchy.k


class ISLabelIndex(_IndexFacade):
    """A built IS-LABEL index over an undirected weighted graph."""

    _KIND = UNDIRECTED

    def __init__(
        self,
        hierarchy: VertexHierarchy,
        labels: Dict[int, List[Tuple[int, int]]],
        preds: Optional[Dict[int, Dict[int, Optional[int]]]],
        store: Optional[LabelStore],
        cost_model: CostModel,
        labeling_seconds: float,
        fast: Optional[FastEngine] = None,
    ) -> None:
        super().__init__(hierarchy, labeling_seconds, fast)
        self._labels = labels
        self._preds = preds
        self._store = store
        self.cost_model = cost_model
        self.io_stats = store.stats if store is not None else IOStats()

    def _label_tables(self):
        return (self._labels,)

    def _reference_distance(self, source: int, target: int) -> float:
        return self._query_detailed(source, target)[0].distance

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        sigma: Optional[float] = DEFAULT_SIGMA,
        k: Optional[int] = None,
        full: bool = False,
        storage: str = "memory",
        cost_model: Optional[CostModel] = None,
        with_paths: bool = False,
        is_strategy: str = "min_degree",
        seed: Optional[int] = None,
        cache_blocks: Optional[int] = None,
        engine: str = "fast",
    ) -> "ISLabelIndex":
        """Build the index; see :func:`repro.core.hierarchy.build_hierarchy`
        for the hierarchy knobs (``sigma``, ``k``, ``full``, strategy).

        ``storage`` selects ``"memory"`` (IM-ISL) or ``"disk"`` (IS-LABEL
        with simulated label I/O); ``engine`` selects the ``"fast"``
        array/CSR compute backend (default) or the ``"dict"`` reference
        (see the module docstring); ``with_paths`` records the §8.1
        bookkeeping needed by :class:`repro.core.paths.PathReconstructor`;
        ``cache_blocks`` (disk mode) puts an LRU block cache in front of
        the label store, modelling the OS page cache the paper's testbed
        benefited from.
        """
        if storage not in ("memory", "disk"):
            raise IndexBuildError(f"unknown storage mode {storage!r}")
        factory = resolve_engine(UNDIRECTED, engine)
        model = cost_model or CostModel()

        hierarchy = build_hierarchy(
            graph,
            sigma=sigma,
            k=k,
            full=full,
            is_strategy=is_strategy,
            seed=seed,
            with_hints=with_paths,
        )
        labeling_started = time.perf_counter()
        fast = None
        if factory is not None and not with_paths:
            # Algorithm 4 with the sorted-array k-way min-merge for large
            # labels; the engine then packs the entry lists into its
            # backing arrays in one batch.
            labels, array_labels = fast_top_down_labels(hierarchy)
            preds = None
            fast = factory(hierarchy.gk, labels, array_labels)
        else:
            # Predecessor bookkeeping (with_paths) only exists on the dict
            # labeler; a registered engine can still wrap the result below.
            label_maps, preds = top_down_labels(hierarchy, with_preds=with_paths)
            labels = {v: sort_label(m) for v, m in label_maps.items()}
            if factory is not None:
                fast = factory(hierarchy.gk, labels)
        labeling_seconds = time.perf_counter() - labeling_started

        store = None
        if storage == "disk":
            store = LabelStore(model, with_hints=with_paths)
            for v, entries in labels.items():
                if with_paths:
                    pred_v = preds[v]  # type: ignore[index]
                    store.put(
                        v,
                        [
                            (w, d, NO_HINT if pred_v[w] is None else pred_v[w])
                            for w, d in entries
                        ],
                    )
                else:
                    store.put(v, entries)
            store.stats.reset()  # construction traffic is not query traffic
            if cache_blocks is not None:
                from repro.extmem.cache import CachedLabelStore

                store = CachedLabelStore(store, cache_blocks)

        return cls(hierarchy, labels, preds, store, model, labeling_seconds, fast)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, source: int, target: int, keep_parents: bool = False
    ) -> QueryResult:
        """Answer a P2P distance query with the Table 4/5 cost breakdown."""
        result, _ = self._query_detailed(source, target, keep_parents)
        return result

    def _query_detailed(
        self, source: int, target: int, keep_parents: bool = False
    ) -> Tuple[QueryResult, Optional[BiDijkstraResult]]:
        """Query plus the raw search result (path reconstruction needs it)."""
        self._check_vertex(source)
        self._check_vertex(target)
        s_in_gk = self.hierarchy.in_gk(source)
        t_in_gk = self.hierarchy.in_gk(target)
        table5_type = 1 if (s_in_gk and t_in_gk) else (2 if (s_in_gk or t_in_gk) else 3)

        if source == target:
            return (
                QueryResult(source, target, 0, table5_type, False, 0, 0.0, 0.0),
                None,
            )

        # Path reconstruction needs parent pointers, which only the
        # reference search records; everything else runs on the engine.
        engine = None if keep_parents else self._fast
        if engine is not None and not hasattr(engine, "staged"):
            # Protocol-only backend (e.g. the remote engine): it has no
            # staged body to report from — delegate the whole query and
            # time it as search cost.
            started = time.perf_counter()
            distance = engine.distance(source, target)
            elapsed = time.perf_counter() - started
            return (
                QueryResult(
                    source, target, distance, table5_type, True, 0, 0.0, elapsed
                ),
                None,
            )

        ios_before = self.io_stats.block_reads
        if engine is None:
            label_s = self._fetch_label(source)
            label_t = self._fetch_label(target)
        else:
            engine.freeze()  # one-time packing is not Time (b)
            if self._store is not None:
                self._charge_label_io(source, target)
        label_ios = self.io_stats.block_reads - ios_before
        time_label_s = self.cost_model.time_for(label_ios)

        search_started = time.perf_counter()
        result = None
        if engine is not None:
            distance, used_search, stats = engine.staged(source, target)
        else:
            distance, _ = eq1_distance_argmin(label_s, label_t)
            seeds_f = self._gk_seeds(label_s)
            seeds_r = self._gk_seeds(label_t)
            # Type 1 (§5.2): no gateway into G_k on at least one side — the
            # whole shortest path lies below level k and Equation 1 is
            # exact.  With a full hierarchy G_k is empty and every query
            # lands here.
            used_search = bool(seeds_f and seeds_r)
            stats = None
            if used_search:
                result = label_bidijkstra(
                    self._gk_adjacency,
                    self._gk_adjacency,
                    seeds_f,
                    seeds_r,
                    initial_mu=distance,
                    keep_parents=keep_parents,
                )
                distance, stats = result.distance, result.stats
        elapsed = time.perf_counter() - search_started
        return (
            QueryResult(
                source,
                target,
                distance,
                table5_type,
                used_search,
                label_ios,
                time_label_s,
                elapsed,
                stats,
            ),
            result,
        )

    def _gk_adjacency(self, v: int):
        return self.gk.neighbors(v).items()

    def _gk_seeds(self, label: LabelEntryList) -> List[Tuple[int, int]]:
        """Label entries whose ancestor lies in ``G_k`` (Algorithm 1 seeds)."""
        gk = self.gk
        return [(w, d) for w, d in label if gk.has_vertex(w)]

    def _fetch_label(self, v: int) -> LabelEntryList:
        """:meth:`label` of ``v``, charged to the disk-mode store if real."""
        if self._store is None or self._implicit_label(self._labels, v):
            return self._label(self._labels, v)
        return self._store.fetch(v)

    def _fetch_preds(self, v: int) -> Dict[int, Optional[int]]:
        """Predecessor map of ``label(v)`` (path mode only)."""
        if self._preds is None:
            raise QueryError("index was built without with_paths=True")
        if self.hierarchy.in_gk(v):
            return {v: None}
        return self._preds[v]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IndexStats:
        label_entries = sum(len(entries) for entries in self._labels.values())
        entry_bytes = (
            BYTES_PER_ENTRY_WITH_PRED if self._preds is not None else BYTES_PER_ENTRY
        )
        hierarchy = self.hierarchy
        original_edges = (hierarchy.sizes[0] - hierarchy.num_vertices) if hierarchy.sizes else 0
        return IndexStats(
            k=hierarchy.k,
            num_vertices=hierarchy.num_vertices,
            num_edges=original_edges,
            gk_vertices=self.gk.num_vertices,
            gk_edges=self.gk.num_edges,
            label_entries=label_entries,
            label_bytes=label_entries * entry_bytes,
            build_seconds=hierarchy.build_seconds + self._labeling_seconds,
            hierarchy_seconds=hierarchy.build_seconds,
            labeling_seconds=self._labeling_seconds,
            sigma=hierarchy.sigma,
        )

    def label(self, v: int) -> LabelEntryList:
        """Public read access to ``label(v)`` (no I/O accounting)."""
        self._check_vertex(v)
        return self._label(self._labels, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (
            f"ISLabelIndex(k={s.k}, |V|={s.num_vertices}, "
            f"|V_Gk|={s.gk_vertices}, entries={s.label_entries})"
        )
