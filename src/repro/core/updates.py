"""Dynamic update maintenance — §8.3, served from the fast engine.

The paper's scheme is deliberately *lazy*: inserted vertices join ``G_k``,
their low-level neighbours' labels (and those neighbours' descendants) learn
about them, deleted vertices are scrubbed from the labels that mention them,
and "we can rebuild the index periodically".

Faithfulness notes (see also "Deviations from the paper" in
``docs/ARCHITECTURE.md``):

* **Insertions.**  We implement the paper's descendant propagation and add
  one engineering extension the text implies but does not spell out: the new
  vertex also receives a proper label (the min-merge of its neighbours'
  labels, shifted by the connecting edge weights) so that queries between
  the new vertex and arbitrary old vertices keep working through label
  intersection.  After insertions, answers remain *upper bounds* that are
  exact whenever the interleaving shortest path is covered by the patched
  labels — the common case the paper relies on; :meth:`staleness` counts
  applied updates and :meth:`rebuild` restores exactness guarantees.
* **Deletions.**  Removing a vertex can invalidate augmenting edges that
  route through it, so deletions mark the index ``approximate`` (query
  results may then be under- *or* over-estimates until rebuild), matching
  the paper's rebuild-periodically stance.

Engine integration: §8.3 patching mutates the index's entry lists and
``G_k`` in place — structures the packed engines snapshot at freeze time.
Each update therefore records the set of vertices whose labels changed and
reports it through the facade's ``invalidate_labels(dirty)``
(:meth:`repro.core.index.ISLabelIndex.invalidate_labels`); the fast
engines then re-pack just the dirty labels and repair their ``G_k``
structures in place (see
:meth:`repro.core.fastlabels.PackedEngineBase.invalidate`), so a dynamic
index keeps serving queries from the packed-array hot path between
updates instead of silently degrading to the dict reference.  The dict
engine remains available (``engine="dict"``) as the correctness oracle:
all engines run the same label maintenance, so their answers agree
exactly after arbitrary update/query interleavings.

:class:`DynamicDirectedISLabelIndex` applies the same scheme to the §8.2
directed index: an inserted vertex's *out*-arcs patch the in-labels of the
arc heads' in-descendants (vertices the head can reach), its *in*-arcs
patch the out-labels of the arc tails' out-descendants, and the new vertex
receives merged out/in labels of its own.  Both dynamic indexes share
:class:`_DynamicIndexBase` (live graph, counters, queries, rebuild); each
keeps only its own updates and descendant maps.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Self, Set, Tuple

from repro.core.directed import DirectedISLabelIndex
from repro.core.index import ISLabelIndex, QueryResult
from repro.errors import GraphError, QueryError, StaleIndexError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph

__all__ = ["DynamicISLabelIndex", "DynamicDirectedISLabelIndex"]

LabelTable = Dict[int, List[Tuple[int, int]]]


def _build_descendant_map(labels: LabelTable) -> Dict[int, Set[int]]:
    """``ancestor -> vertices whose label mentions it`` for one table."""
    table: Dict[int, Set[int]] = {}
    for v, entries in labels.items():
        for w, _ in entries:
            if w != v:
                table.setdefault(w, set()).add(v)
    return table


def _forget_descendant(
    labels: LabelTable, descendants: Dict[int, Set[int]], v: int
) -> None:
    """Drop the deleted ``v`` from its label's ancestors' descendant sets,
    so a later delete of one of them sees only live labels."""
    for a, _ in labels.get(v, ()):
        if a != v:
            descendants.get(a, set()).discard(v)


def _entries_mentioning(
    labels: LabelTable, descendants: Dict[int, Set[int]], v: int
) -> Iterable[Tuple[int, int]]:
    """Yield ``(w, d)`` for every vertex ``w`` whose label has ``(v, d)``."""
    for w in descendants.get(v, ()):  # descendants of v
        for anc, d in labels.get(w, ()):
            if anc == v:
                yield (w, d)
                break


def _patch_label(
    labels: LabelTable,
    descendants: Dict[int, Set[int]],
    w: int,
    new_vertex: int,
    distance: int,
) -> bool:
    """Min-merge entry ``(new_vertex, distance)`` into ``labels[w]``.

    Returns True when the label actually changed (callers mark ``w`` dirty
    and flush it to any disk store only then).
    """
    label = labels[w]
    for pos, (anc, d) in enumerate(label):
        if anc == new_vertex:
            if distance < d:
                label[pos] = (new_vertex, distance)
                return True
            return False
        if anc > new_vertex:
            label.insert(pos, (new_vertex, distance))
            descendants.setdefault(new_vertex, set()).add(w)
            return True
    label.append((new_vertex, distance))
    descendants.setdefault(new_vertex, set()).add(w)
    return True


class _DynamicIndexBase:
    """What the two §8.3 dynamic indexes share: the live graph, the index
    built over it, the update counters and the periodic rebuild.

    A subclass names its index class in ``_INDEX`` and implements
    ``insert_vertex``/``delete_vertex`` over the index's label tables,
    reading each table's descendant map through :meth:`_descendant_map`.
    """

    _INDEX: type

    def __init__(self, graph: Graph | DiGraph, **build_kwargs) -> None:
        if build_kwargs.get("with_paths"):
            raise QueryError("dynamic maintenance supports distance-only indexes")
        self.graph = graph.copy()
        self._build_kwargs = dict(build_kwargs)
        self._adopt(self._INDEX.build(self.graph, **self._build_kwargs))

    @classmethod
    def from_parts(
        cls,
        graph: Graph | DiGraph,
        index: ISLabelIndex | DirectedISLabelIndex,
        inserts_applied: int = 0,
        deletes_applied: int = 0,
        approximate: bool = False,
        build_kwargs: Optional[Dict] = None,
    ) -> Self:
        """Adopt an existing live graph + index without rebuilding.

        Used by :func:`repro.core.serialization.load_dynamic_index` (and
        its directed twin) to restore a dynamic snapshot; ``build_kwargs``
        seed the next :meth:`rebuild` (the engine defaults to the loaded
        index's).
        """
        self = cls.__new__(cls)
        self.graph = graph
        self._build_kwargs = dict(build_kwargs or {})
        self._build_kwargs.setdefault("engine", index.engine)
        self._adopt(index, inserts_applied, deletes_applied, approximate)
        return self

    def _adopt(
        self,
        index: ISLabelIndex | DirectedISLabelIndex,
        inserts_applied: int = 0,
        deletes_applied: int = 0,
        approximate: bool = False,
    ) -> None:
        self.index = index
        self.inserts_applied = inserts_applied
        self.deletes_applied = deletes_applied
        self.approximate = approximate
        # label-table attribute name -> its descendant map, built lazily
        self._descendants: Dict[str, Dict[int, Set[int]]] = {}

    @property
    def engine(self) -> str:
        """Registry name of the serving backend (see the index's ``engine``)."""
        return self.index.engine

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def distance(self, source: int, target: int) -> float:
        """Distance under the lazily-maintained index.

        Exactness caveats after updates are documented in the module
        docstring; use :meth:`rebuild` to restore full guarantees.
        """
        return self.index.distance(source, target)

    def distances(self, pairs) -> List[float]:
        """Batch form of :meth:`distance` (the engine's batch path)."""
        return self.index.distances(pairs)

    def exact_distance(self, source: int, target: int) -> float:
        """:meth:`distance`, refused with :class:`StaleIndexError` while
        deletions have left the index approximate (call :meth:`rebuild`)."""
        if self.approximate:
            raise StaleIndexError(
                f"index is approximate after {self.deletes_applied} deletions; "
                "call rebuild()"
            )
        return self.index.distance(source, target)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @property
    def staleness(self) -> int:
        """Number of updates applied since the last rebuild."""
        return self.inserts_applied + self.deletes_applied

    def rebuild(self) -> None:
        """Rebuild the index over the live graph (the paper's periodic rebuild)."""
        self._adopt(self._INDEX.build(self.graph, **self._build_kwargs))

    def _descendant_map(self, table: str) -> Dict[int, Set[int]]:
        """``ancestor -> vertices whose label mentions it`` for the index's
        label table ``table`` (built on first use, then kept current)."""
        found = self._descendants.get(table)
        if found is None:
            found = _build_descendant_map(getattr(self.index, table))
            self._descendants[table] = found
        return found


class DynamicISLabelIndex(_DynamicIndexBase):
    """An :class:`ISLabelIndex` plus §8.3 update maintenance.

    Keeps the live graph alongside the index so that updates can be applied
    to both and :meth:`rebuild` can re-index the live graph.  Queries are
    served by whichever engine the index was built with (``"fast"`` by
    default — each update invalidates the engine incrementally, so the
    packed hot path keeps answering between updates); build with
    ``engine="dict"`` for the reference oracle.
    """

    _INDEX = ISLabelIndex

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_vertex(self, vertex: int, adjacency: Mapping[int, int]) -> None:
        """Insert ``vertex`` with ``{neighbour: weight}`` edges (§8.3).

        The vertex is added to ``G_k``; labels of low-level neighbours and
        their descendants are patched; the new vertex receives a merged
        label of its own.  The touched vertices are reported to the query
        engine, which re-packs only their labels.
        """
        if self.graph.has_vertex(vertex):
            raise GraphError(f"vertex {vertex} already exists")
        if not adjacency:
            raise GraphError("§8.3 insertion requires a non-empty adjacency list")
        for v in adjacency:
            if not self.graph.has_vertex(v):
                raise GraphError(f"insertion references unknown vertex {v}")

        self.graph.add_vertex(vertex)
        for v, w in adjacency.items():
            self.graph.add_edge(vertex, v, w)

        index = self.index
        labels = index._labels
        hierarchy = index.hierarchy
        descendants = self._descendant_map("_labels")
        dirty: Set[int] = {vertex}

        # The new vertex lives in G_k at level k.
        hierarchy.gk.add_vertex(vertex)
        hierarchy.level_of[vertex] = hierarchy.k
        own_label: Dict[int, int] = {vertex: 0}

        for v, weight in adjacency.items():
            if hierarchy.in_gk(v):
                hierarchy.gk.add_edge(vertex, v, weight)
                own_label[v] = min(own_label.get(v, math.inf), weight)
                continue
            # Patch v itself, then every descendant of v, with the distance
            # through the new edge (v, vertex).
            if _patch_label(labels, descendants, v, vertex, weight):
                dirty.add(v)
                self._flush(v)
            for w, d_wv in _entries_mentioning(labels, descendants, v):
                if _patch_label(labels, descendants, w, vertex, d_wv + weight):
                    dirty.add(w)
                    self._flush(w)
            # Extension: the new vertex learns v's ancestors.
            for w, d in labels[v]:
                candidate = weight + d
                if candidate < own_label.get(w, math.inf):
                    own_label[w] = candidate

        labels[vertex] = sorted(own_label.items())
        for w in own_label:
            if w != vertex:
                descendants.setdefault(w, set()).add(vertex)
        self._flush(vertex)
        self.inserts_applied += 1
        index.invalidate_labels(dirty)

    def delete_vertex(self, vertex: int) -> None:
        """Delete ``vertex`` and its incident edges (§8.3 lazy deletion)."""
        if not self.graph.has_vertex(vertex):
            raise GraphError(f"vertex {vertex} does not exist")
        self.graph.remove_vertex(vertex)

        index = self.index
        hierarchy = index.hierarchy
        descendants = self._descendant_map("_labels")
        mentioned = descendants.get(vertex, set())
        dirty: Set[int] = {vertex} | set(mentioned)

        if hierarchy.in_gk(vertex):
            if vertex in hierarchy.gk:
                hierarchy.gk.remove_vertex(vertex)
        else:
            # Peeled vertex: its augmenting edges may shortcut through it.
            self.approximate = True
        if mentioned:
            for w in list(mentioned):
                label = index._labels.get(w)
                if label is None:
                    continue
                index._labels[w] = [(a, d) for a, d in label if a != vertex]
                self._flush(w)
            self.approximate = True
        descendants.pop(vertex, None)
        _forget_descendant(index._labels, descendants, vertex)
        index._labels.pop(vertex, None)
        hierarchy.level_of.pop(vertex, None)
        for peeled in hierarchy.levels:
            peeled.pop(vertex, None)
        self.deletes_applied += 1
        index.invalidate_labels(dirty)

    def query(self, source: int, target: int) -> QueryResult:
        return self.index.query(source, target)

    def _flush(self, w: int) -> None:
        if self.index._store is not None:
            self.index._store.put(w, self.index._labels[w])


class DynamicDirectedISLabelIndex(_DynamicIndexBase):
    """A :class:`DirectedISLabelIndex` plus §8.3 update maintenance.

    The directed analogue of :class:`DynamicISLabelIndex`: an inserted
    vertex joins ``G_k``; each of its out-arcs ``x -> v`` teaches ``x``
    the out-ancestors of ``v`` and patches the *in*-labels of ``v`` and of
    every vertex whose in-label mentions ``v`` (they gained a new
    in-ancestor reaching them through ``v``); each in-arc ``u -> x``
    mirrors that onto the out-labels.  Deletions scrub the vertex from
    both label tables and mark the index approximate, exactly like the
    undirected scheme.  Updates report their dirty sets through
    ``invalidate_labels`` so the directed fast engine keeps serving.
    """

    _INDEX = DirectedISLabelIndex

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_vertex(
        self,
        vertex: int,
        out_arcs: Optional[Mapping[int, int]] = None,
        in_arcs: Optional[Mapping[int, int]] = None,
    ) -> None:
        """Insert ``vertex`` with arcs ``vertex -> head`` / ``tail -> vertex``.

        ``out_arcs`` maps arc heads to weights, ``in_arcs`` arc tails; at
        least one arc is required (§8.3 insertions attach to the graph).
        """
        out_arcs = dict(out_arcs or {})
        in_arcs = dict(in_arcs or {})
        if self.graph.has_vertex(vertex):
            raise GraphError(f"vertex {vertex} already exists")
        if not out_arcs and not in_arcs:
            raise GraphError("§8.3 insertion requires at least one arc")
        for v in list(out_arcs) + list(in_arcs):
            if not self.graph.has_vertex(v):
                raise GraphError(f"insertion references unknown vertex {v}")

        self.graph.add_vertex(vertex)
        for v, w in out_arcs.items():
            self.graph.add_edge(vertex, v, w)
        for u, w in in_arcs.items():
            self.graph.add_edge(u, vertex, w)

        index = self.index
        hierarchy = index.hierarchy
        out_labels = index._out_labels
        in_labels = index._in_labels
        out_desc = self._descendant_map("_out_labels")
        in_desc = self._descendant_map("_in_labels")
        dirty: Set[int] = {vertex}

        hierarchy.gk.add_vertex(vertex)
        hierarchy.level_of[vertex] = hierarchy.k
        own_out: Dict[int, int] = {vertex: 0}
        own_in: Dict[int, int] = {vertex: 0}

        for v, weight in out_arcs.items():
            if hierarchy.in_gk(v):
                hierarchy.gk.add_edge(vertex, v, weight)
                own_out[v] = min(own_out.get(v, math.inf), weight)
                continue
            # vertex -> v: v (and everything v reaches, i.e. every vertex
            # whose in-label mentions v) gains the new in-ancestor.
            if _patch_label(in_labels, in_desc, v, vertex, weight):
                dirty.add(v)
            for w, d_vw in _entries_mentioning(in_labels, in_desc, v):
                if _patch_label(in_labels, in_desc, w, vertex, weight + d_vw):
                    dirty.add(w)
            # Extension: the new vertex learns v's out-ancestors.
            for a, d in out_labels[v]:
                candidate = weight + d
                if candidate < own_out.get(a, math.inf):
                    own_out[a] = candidate

        for u, weight in in_arcs.items():
            if hierarchy.in_gk(u):
                hierarchy.gk.add_edge(u, vertex, weight)
                own_in[u] = min(own_in.get(u, math.inf), weight)
                continue
            # u -> vertex: u (and everything reaching u, i.e. every vertex
            # whose out-label mentions u) gains the new out-ancestor.
            if _patch_label(out_labels, out_desc, u, vertex, weight):
                dirty.add(u)
            for w, d_wu in _entries_mentioning(out_labels, out_desc, u):
                if _patch_label(out_labels, out_desc, w, vertex, d_wu + weight):
                    dirty.add(w)
            # Extension: the new vertex learns u's in-ancestors.
            for a, d in in_labels[u]:
                candidate = d + weight
                if candidate < own_in.get(a, math.inf):
                    own_in[a] = candidate

        out_labels[vertex] = sorted(own_out.items())
        in_labels[vertex] = sorted(own_in.items())
        for a in own_out:
            if a != vertex:
                out_desc.setdefault(a, set()).add(vertex)
        for a in own_in:
            if a != vertex:
                in_desc.setdefault(a, set()).add(vertex)
        self.inserts_applied += 1
        index.invalidate_labels(dirty)

    def delete_vertex(self, vertex: int) -> None:
        """Delete ``vertex`` with all incident arcs (§8.3 lazy deletion)."""
        if not self.graph.has_vertex(vertex):
            raise GraphError(f"vertex {vertex} does not exist")
        self.graph.remove_vertex(vertex)

        index = self.index
        hierarchy = index.hierarchy
        out_desc = self._descendant_map("_out_labels")
        in_desc = self._descendant_map("_in_labels")
        mentioned = out_desc.get(vertex, set()) | in_desc.get(vertex, set())
        dirty: Set[int] = {vertex} | mentioned

        if hierarchy.in_gk(vertex):
            if vertex in hierarchy.gk:
                hierarchy.gk.remove_vertex(vertex)
        else:
            self.approximate = True
        if mentioned:
            for w in list(mentioned):
                for table in (index._out_labels, index._in_labels):
                    label = table.get(w)
                    if label is not None:
                        table[w] = [(a, d) for a, d in label if a != vertex]
            self.approximate = True
        out_desc.pop(vertex, None)
        in_desc.pop(vertex, None)
        _forget_descendant(index._out_labels, out_desc, vertex)
        _forget_descendant(index._in_labels, in_desc, vertex)
        index._out_labels.pop(vertex, None)
        index._in_labels.pop(vertex, None)
        hierarchy.level_of.pop(vertex, None)
        for peeled in hierarchy.levels:
            peeled.pop(vertex, None)
        self.deletes_applied += 1
        index.invalidate_labels(dirty)

    def reachable(self, source: int, target: int) -> bool:
        """Directed reachability under the lazily-maintained index."""
        return self.index.reachable(source, target)
