"""Hub sketches: the landmark-bounded approximate tier.

Grounded in *Sublinear-Space Distance Labeling using Hubs* (PAPERS.md):
a 2-hop cover stays a valid distance oracle under truncation in one
direction — running the Equation 1 merge over only a *subset* of each
label still yields ``min(d(s,w) + d(w,t))`` over the surviving common
ancestors ``w``, which is an **upper bound** on the true distance and is
exact whenever the optimal meeting vertex survived the cut.

The subset kept here is the top-``h`` *highest-hierarchy-order* entries
(level descending, distance ascending as the tie-break): IS-LABEL's
upper levels are precisely its landmark set — the vertices most shortest
paths route through — so they are the entries most likely to carry the
optimal ``w``.  That gives a merge whose cost is ``O(h)`` per endpoint
instead of ``O(|label|)``, with a bounded, one-sided error contract:

* ``bound(s, t)`` **never under-reports** — it returns the true distance
  or an over-estimate, never less;
* the bound is **provably exact** (per §5.2's Type-1 argument) when both
  sketches are lossless (the full label fit in ``h`` entries) and at
  least one endpoint's full label carries no ``G_k`` gateway — then the
  sketch merge *is* the full Equation 1 merge and no ``G_k`` search
  stage could improve it.  The ``exact_known`` counter tracks this; the
  *observed* exactness fraction (how often the bound happened to equal
  the truth anyway) depends on the graph and is not guaranteed.

Sketches are materialized from the label entry lists in one vectorized
pass — concatenate every label, look levels up with one
``searchsorted``, one ``lexsort``, one ranked truncation — not
per-vertex Python sorts.  The facade caches a lazily built instance and
drops it on :meth:`~repro.core.index.ISLabelIndex.invalidate_labels`,
so §8.3 updates can never serve a sketch built from stale labels.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import QueryError

__all__ = ["DEFAULT_SKETCH_H", "SketchTable", "HubSketch", "DirectedHubSketch"]

#: Default entries kept per vertex.  Labels average well above this on
#: the paper's graphs, so ``h=8`` gives a real merge-cost reduction
#: while keeping the top of the hierarchy — where the paper's Table 4
#: shows most meeting vertices live — intact.
DEFAULT_SKETCH_H = 8


class SketchTable:
    """Truncated labels for one direction: ``v -> {ancestor: dist}``.

    Built by :meth:`build` in one vectorized pass.  Alongside the kept
    entries it records, per vertex, the *full* label length (the merge
    cost the sketch avoided), whether the sketch is ``lossless``
    (``|label| <= h``) and whether the full label carries ``no_seeds``
    (no ``G_k``-resident ancestor — the §5.2 Type-1 exactness side).
    """

    __slots__ = ("h", "entries", "full_len", "lossless", "no_seeds")

    def __init__(self, h: int) -> None:
        self.h = h
        self.entries: Dict[int, Dict[int, float]] = {}
        self.full_len: Dict[int, int] = {}
        self.lossless: Dict[int, bool] = {}
        self.no_seeds: Dict[int, bool] = {}

    @classmethod
    def build(
        cls,
        label_of: Callable[[int], Iterable[Tuple[int, float]]],
        vertices: Iterable[int],
        level_of: Dict[int, int],
        gk_ids: Iterable[int],
        h: int = DEFAULT_SKETCH_H,
    ) -> "SketchTable":
        """Materialize the top-``h`` highest-order entries of every label.

        The ranking/truncation runs as one batch over the concatenated
        labels: levels come from a single ``searchsorted`` against the
        sorted hierarchy keys, the (vertex, level desc, dist asc) order
        from one ``lexsort``, and the per-vertex top-``h`` from a ranked
        mask — no per-vertex sort.
        """
        if h < 1:
            raise QueryError(f"hub sketch needs h >= 1, got {h}")
        table = cls(h)
        order: List[int] = []
        counts: List[int] = []
        flat_anc: List[int] = []
        flat_d: List[float] = []
        for v in vertices:
            entries = list(label_of(v))
            order.append(v)
            counts.append(len(entries))
            for anc, d in entries:
                flat_anc.append(anc)
                flat_d.append(d)
        if not order:
            return table

        counts_np = np.asarray(counts, dtype=np.int64)
        anc = np.asarray(flat_anc, dtype=np.int64)
        dist = np.asarray(flat_d, dtype=np.float64)
        vpos = np.repeat(np.arange(len(order), dtype=np.int64), counts_np)

        # Hierarchy level of every ancestor, one searchsorted over the
        # sorted level_of keys (every label ancestor is a hierarchy vertex).
        lv_keys = np.fromiter(level_of.keys(), dtype=np.int64, count=len(level_of))
        lv_vals = np.fromiter(level_of.values(), dtype=np.int64, count=len(level_of))
        lv_order = np.argsort(lv_keys)
        lv_keys = lv_keys[lv_order]
        lv_vals = lv_vals[lv_order]
        pos = np.searchsorted(lv_keys, anc)
        pos[pos == len(lv_keys)] = 0
        level = lv_vals[pos]
        level = np.where(lv_keys[pos] == anc, level, -1)

        # G_k membership of every ancestor (for the no_seeds flag).
        gk_sorted = np.asarray(sorted(gk_ids), dtype=np.int64)
        gpos = np.searchsorted(gk_sorted, anc)
        gpos[gpos == len(gk_sorted)] = 0
        in_gk = (
            gk_sorted[gpos] == anc
            if len(gk_sorted)
            else np.zeros(len(anc), dtype=bool)
        )

        # One stable sort: vertex groups stay contiguous, entries inside a
        # group ordered by level descending, then distance ascending.
        perm = np.lexsort((dist, -level, vpos))
        starts = np.concatenate(([0], np.cumsum(counts_np)))
        rank = np.arange(len(anc), dtype=np.int64) - np.repeat(
            starts[:-1], counts_np
        )
        kept = perm[rank < h]

        k_vpos = vpos[kept]
        k_anc = anc[kept]
        k_dist = dist[kept]
        seeds_per_vertex = np.bincount(
            vpos[in_gk], minlength=len(order)
        ) if len(anc) else np.zeros(len(order), dtype=np.int64)

        entries = table.entries
        for v in order:
            entries[v] = {}
        for i in range(len(k_vpos)):
            entries[order[k_vpos[i]]][int(k_anc[i])] = float(k_dist[i])
        for i, v in enumerate(order):
            n = int(counts_np[i])
            table.full_len[v] = n
            table.lossless[v] = n <= h
            table.no_seeds[v] = int(seeds_per_vertex[i]) == 0
        return table

    def nbytes(self) -> int:
        """Nominal sketch footprint (16 bytes per kept entry)."""
        return 16 * sum(len(e) for e in self.entries.values())


class _SketchBase:
    """Shared query/counter machinery of the two orientations."""

    __slots__ = ("h", "queries", "exact_known", "full_entries", "sketch_entries")

    def __init__(self, h: int) -> None:
        #: Label entries kept per vertex.
        self.h = h
        self.queries = 0
        self.exact_known = 0
        # Merge-cost ledger: entries a full Eq. 1 merge would have
        # scanned vs. what the sketch merge actually scanned.
        self.full_entries = 0
        self.sketch_entries = 0

    def _merge(
        self, fwd: SketchTable, bwd: SketchTable, s: int, t: int
    ) -> Tuple[float, bool]:
        if s not in fwd.entries:
            raise QueryError(f"vertex {s} is not covered by this sketch")
        if t not in bwd.entries:
            raise QueryError(f"vertex {t} is not covered by this sketch")
        self.queries += 1
        if s == t:
            self.exact_known += 1
            return 0.0, True
        sk_s = fwd.entries[s]
        sk_t = bwd.entries[t]
        self.full_entries += fwd.full_len[s] + bwd.full_len[t]
        self.sketch_entries += len(sk_s) + len(sk_t)
        if len(sk_t) < len(sk_s):
            sk_s, sk_t = sk_t, sk_s
        best = float("inf")
        for anc, ds in sk_s.items():
            dt = sk_t.get(anc)
            if dt is not None and ds + dt < best:
                best = ds + dt
        exact = (
            fwd.lossless[s]
            and bwd.lossless[t]
            and (fwd.no_seeds[s] or bwd.no_seeds[t])
        )
        if exact:
            self.exact_known += 1
        return best, exact

    def stats(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "exact_known": self.exact_known,
            "exact_known_fraction": (
                self.exact_known / self.queries if self.queries else 0.0
            ),
            "full_entries_merged": self.full_entries,
            "sketch_entries_merged": self.sketch_entries,
            "merge_cost_reduction": (
                self.full_entries / self.sketch_entries
                if self.sketch_entries
                else 1.0
            ),
        }


class HubSketch(_SketchBase):
    """Undirected approximate tier: one table serves both endpoints."""

    __slots__ = ("table",)

    def __init__(self, table: SketchTable) -> None:
        super().__init__(table.h)
        self.table = table

    @classmethod
    def from_index(cls, index, h: int = DEFAULT_SKETCH_H) -> "HubSketch":
        """Build from an undirected facade (its public ``label`` view)."""
        hierarchy = index.hierarchy
        return cls(
            SketchTable.build(
                index.label,
                sorted(hierarchy.level_of),
                hierarchy.level_of,
                hierarchy.gk.vertices(),
                h=h,
            )
        )

    def bound(self, s: int, t: int) -> Tuple[float, bool]:
        """``(upper_bound, provably_exact)`` for one pair."""
        return self._merge(self.table, self.table, s, t)

    def bounds(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        return [self._merge(self.table, self.table, s, t)[0] for s, t in pairs]

    def nbytes(self) -> int:
        return self.table.nbytes()


class DirectedHubSketch(_SketchBase):
    """Directed approximate tier: out-sketch(source) meets in-sketch(target)."""

    __slots__ = ("out_table", "in_table")

    def __init__(self, out_table: SketchTable, in_table: SketchTable) -> None:
        super().__init__(out_table.h)
        self.out_table = out_table
        self.in_table = in_table

    @classmethod
    def from_index(cls, index, h: int = DEFAULT_SKETCH_H) -> "DirectedHubSketch":
        """Build from a directed facade (its ``out_label``/``in_label``)."""
        hierarchy = index.hierarchy
        vertices = sorted(hierarchy.level_of)
        gk_vertices = list(hierarchy.gk.vertices())
        return cls(
            SketchTable.build(
                index.out_label, vertices, hierarchy.level_of, gk_vertices, h=h
            ),
            SketchTable.build(
                index.in_label, vertices, hierarchy.level_of, gk_vertices, h=h
            ),
        )

    def bound(self, s: int, t: int) -> Tuple[float, bool]:
        """``(upper_bound, provably_exact)`` for one ordered pair."""
        return self._merge(self.out_table, self.in_table, s, t)

    def bounds(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        return [
            self._merge(self.out_table, self.in_table, s, t)[0] for s, t in pairs
        ]

    def nbytes(self) -> int:
        return self.out_table.nbytes() + self.in_table.nbytes()
