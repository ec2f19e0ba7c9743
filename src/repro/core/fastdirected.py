"""Array-native directed query engine — the §8.2 index's "fast" backend.

The directed index carries *two* labels per vertex (out-ancestors and
in-ancestors) and its Type-2 search walks ``G_k`` forwards over successors
and backwards over predecessors.  :class:`DirectedFastEngine` is the
directed counterpart of :class:`repro.core.fastlabels.FastEngine`:

* both label tables are packed as sorted parallel ``int64`` arrays with
  the shared :func:`repro.core.fastlabels.pack_entry_lists` freeze (one
  batched conversion + one vectorized ``G_k``-seed extraction per table);
* ``G_k`` freezes into a :class:`repro.graph.csr.CSRDiGraph` — forward
  CSR arrays over out-arcs plus the transposed copy the backward search
  scans — and Algorithm 1 runs over the flat arrays via
  :func:`repro.core.query.csr_label_bidijkstra` with per-thread
  epoch-stamped :class:`repro.core.fastlabels.LabelArrayPool` buffers;
* Equation 1 is the merge intersection of ``LABEL_out(s)`` with
  ``LABEL_in(t)`` (scalar two-pointer fallback for small labels), and
  :meth:`distances` vectorizes it across the whole batch with one
  :func:`repro.core.fastlabels.batch_eq1` pass;
* when the directed ``G_k`` fits the all-pairs memory budget, a lazily
  row-filled table of one-way ``dist_{G_k}(a -> b)`` answers the search
  stage with one fancy-indexed reduction — the Theorem 4 decomposition
  applied to out-seeds x in-seeds.

Like the undirected engine it freezes lazily on first query, so directed
index build time is unchanged, and it is read-only *between
invalidations*: §8.3 updates report the touched vertices through the
shared :meth:`repro.core.fastlabels.PackedEngineBase.invalidate`, which
re-packs just the dirty out/in labels, rebuilds the per-direction CSR
views, and repairs the one-way table through the inserted vertex (forward
row by Dijkstra over the out-arcs, backward distances over the transposed
arrays) instead of dropping everything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.engines import CAP_LOCAL, DIRECTED, register_engine
from repro.core.fastlabels import (
    ArrayLabel,
    LabelTable,
    PackedEngineBase,
    _ThreadPools,
    _as_lists,
    apsp_ceiling,
    label_views,
    pack_entry_lists,
)
from repro.graph.csr import CSRDiGraph
from repro.graph.digraph import DiGraph

__all__ = ["DirectedFastEngine"]


class DirectedFastEngine(PackedEngineBase):
    """Frozen array-native query structures of one built directed index.

    The directed ``"fast"`` implementation of the
    :class:`repro.core.engines.QueryEngine` protocol; the query hot paths
    (single, batch, table reduction, row fills) live in
    :class:`repro.core.fastlabels.PackedEngineBase` and run here over the
    out-label/in-label tables and the per-direction CSR arrays.
    Construction is lazy — ``__init__`` records the label tables and
    ``G_k``; the first query (or an explicit :meth:`freeze`) builds the
    per-direction CSR views and packs both tables.
    """

    __slots__ = (
        "gk",
        "csr",
        "out_lists",
        "in_lists",
        "out_table",
        "in_table",
        "_pools",
        "indptr",
        "indices",
        "weights",
        "rindptr",
        "rindices",
        "rweights",
        "frozen",
        "apsp_max_gk",
        "incremental_max_fraction",
        "_apsp",
        "_apsp_done",
        "_compiled",
    )

    def __init__(
        self,
        gk: DiGraph,
        out_lists: Dict[int, List[Tuple[int, int]]],
        in_lists: Dict[int, List[Tuple[int, int]]],
        apsp_budget_bytes: Optional[int] = None,
    ) -> None:
        self.gk = gk
        self.out_lists = out_lists
        self.in_lists = in_lists
        self._pools = _ThreadPools()
        self.frozen = False
        #: All-pairs table ceiling from the shared memory budget (see
        #: :func:`repro.core.fastlabels.apsp_ceiling`); the directed table
        #: stores one-way distances, so the cost model is identical.
        self.apsp_max_gk = apsp_ceiling(apsp_budget_bytes)
        #: Dirty-set fraction above which ``invalidate(dirty=...)`` falls
        #: back to a full re-freeze; ``<= 0`` disables the incremental path.
        self.incremental_max_fraction = self.INCREMENTAL_MAX_FRACTION
        self.csr: Optional[CSRDiGraph] = None
        self.indptr: List[int] = []
        self.indices: List[int] = []
        self.weights: List[int] = []
        self.rindptr: List[int] = []
        self.rindices: List[int] = []
        self.rweights: List[int] = []
        self.out_table: Optional[LabelTable] = None
        self.in_table: Optional[LabelTable] = None
        self._apsp: Optional[np.ndarray] = None
        self._apsp_done: Optional[np.ndarray] = None
        self._compiled: Optional[kernels.EngineRecord] = None

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def freeze(self) -> "DirectedFastEngine":
        """Materialize the array structures (idempotent)."""
        if self.frozen:
            return self
        self.frozen = True
        self._rebuild_csr()
        ids = self.csr.ids_array
        self.out_table = LabelTable.from_flat(pack_entry_lists(self.out_lists, {}, ids))
        self.in_table = LabelTable.from_flat(pack_entry_lists(self.in_lists, {}, ids))
        n = self.csr.num_vertices
        if 0 < n <= self.apsp_max_gk:
            self._apsp = np.full((n, n), np.inf)
            self._apsp_done = np.zeros(n, dtype=bool)
        return self

    def _drop_frozen(self) -> None:
        """Full invalidation: drop the frozen structures; the next query
        re-freezes both label tables from the current entry lists."""
        self.frozen = False
        self.csr = None
        self.indptr = []
        self.indices = []
        self.weights = []
        self.rindptr = []
        self.rindices = []
        self.rweights = []
        self.out_table = None
        self.in_table = None
        self._apsp = None
        self._apsp_done = None
        self._compiled = None

    # Backwards-compatible views of the frozen tables (tests/debugging).
    @property
    def out_labels(self) -> Dict[int, ArrayLabel]:
        return label_views(self.out_table) if self.out_table is not None else {}

    @property
    def in_labels(self) -> Dict[int, ArrayLabel]:
        return label_views(self.in_table) if self.in_table is not None else {}

    def _num_labels(self) -> int:
        return len(self.out_lists) + len(self.in_lists)

    def _rebuild_csr(self) -> None:
        self.csr = CSRDiGraph(self.gk)
        self.indptr = self.csr.indptr.tolist()
        self.indices = self.csr.indices.tolist()
        self.weights = self.csr.weights.tolist()
        self.rindptr = self.csr.rindptr.tolist()
        self.rindices = self.csr.rindices.tolist()
        self.rweights = self.csr.rweights.tolist()

    def _repack(self, dirty, gk_ids) -> None:
        self.out_table.repack(dirty, self.out_lists, gk_ids)
        self.in_table.repack(dirty, self.in_lists, gk_ids)

    def _label_tables(self) -> tuple:
        return self.out_table, self.in_table

    def _backward_row(self, dx: int) -> np.ndarray:
        # One-way table: d'(a -> x) comes from a Dijkstra over the
        # transposed arrays (the backward search's adjacency).
        return np.asarray(
            self._dijkstra_row(dx, self.rindptr, self.rindices, self.rweights),
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # Labels and seeds
    # ------------------------------------------------------------------
    def out_label(self, v: int) -> ArrayLabel:
        """Array out-label of ``v`` (implicit ``([v], [0])`` for G_k ids)."""
        return self._label_of(0, v)

    def in_label(self, v: int) -> ArrayLabel:
        """Array in-label of ``v`` (implicit ``([v], [0])`` for G_k ids)."""
        return self._label_of(1, v)

    def seeds_out(self, v: int) -> Tuple[List[int], List[int]]:
        """Dense-id forward seeds: out-label entries lying in ``G_k``."""
        return _as_lists(self._seeds_of(0, v))

    def seeds_in(self, v: int) -> Tuple[List[int], List[int]]:
        """Dense-id backward seeds: in-label entries lying in ``G_k``."""
        return _as_lists(self._seeds_of(1, v))

    def seeds_out_np(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """The forward seeds as numpy arrays (for the table reduction)."""
        return self._seeds_of(0, v)

    def seeds_in_np(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """The backward seeds as numpy arrays (for the table reduction)."""
        return self._seeds_of(1, v)

    # PackedEngineBase hooks: the forward side queries out-labels, the
    # reverse side in-labels (Equation 1 is LABEL_out(s) ∩ LABEL_in(t)),
    # and the backward search scans the transposed CSR arrays.
    def _entry_lists(self) -> tuple:
        return self.out_lists, self.in_lists

    def _search_arrays(self, native: bool):
        arrays = self.csr if native else self
        return (
            (arrays.indptr, arrays.indices, arrays.weights),
            (arrays.rindptr, arrays.rindices, arrays.rweights),
        )

    def nbytes(self) -> int:
        """Approximate footprint: both CSR directions plus packed labels."""
        if not self.frozen:
            self.freeze()
        total = self.csr.nbytes() + self.out_table.nbytes() + self.in_table.nbytes()
        if self._apsp is not None:
            total += int(self._apsp.nbytes)
        return total


register_engine(DIRECTED, DirectedFastEngine.name, DirectedFastEngine, {CAP_LOCAL})
