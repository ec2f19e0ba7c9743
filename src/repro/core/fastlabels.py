"""Array-native label storage — the "fast" query engine's data plane.

The reference implementation keeps every query-time label as a Python list
of ``(ancestor, distance)`` tuples and runs Algorithm 1 over the dict
adjacency of ``G_k``.  That is faithful but slow: hub-labeling schemes live
or die on memory layout and scan speed.  This module provides the
flat-array equivalents behind ``ISLabelIndex.build(..., engine="fast")``:

* all labels live in **one packed pair of parallel ``int64`` arrays**
  (ancestors, distances) sorted by ancestor id within each label — the
  paper's on-disk layout (§6.2) — laid out in vertex order behind a
  sorted directory of vertex ids (:class:`FlatLabels`, the snapshot
  layout), registered once with the compiled kernels, which find a
  vertex's label by binary search; freezing the engine is a single batch
  conversion, and Equation 1 is a merge over two sorted arrays;
* :func:`fast_top_down_labels` runs Algorithm 4's merge as a sorted-array
  k-way min-merge (``np.lexsort`` + first-of-group selection) whenever the
  merged label is large, falling back to the dict merge below the measured
  crossover;
* :class:`FastEngine` freezes ``G_k`` into a :class:`CSRGraph` once at
  build time, pre-extracts every label's Algorithm-1 seeds (the entries
  whose ancestor lies in ``G_k``) as dense-id arrays with a single
  vectorized membership pass, and keeps one :class:`LabelArrayPool` of
  search buffers per querying thread so queries stop re-allocating per call;
* when ``G_k`` is small (the common case for the paper's σ-rule on
  well-shrinking graphs), the engine answers the search stage from a
  lazily-filled **all-pairs distance table** over ``G_k``: by the
  decomposition behind Theorem 4 the query equals
  ``min(µ0, min_{a,b} d(s,a) + dist_Gk(a,b) + d(b,t))`` over the two seed
  sets — answers are bit-identical to running Algorithm 1's
  bidirectional search.  With the compiled module of
  :mod:`repro.core.kernels` loaded, one C call answers a whole query
  (Equation 1, the seeds and this reduction) and another a whole
  ``distances()`` batch; otherwise the reference bodies run — the
  engines' ``eq1`` (:func:`eq1_merge`, with a scalar fallback for tiny
  labels) and :meth:`PackedEngineBase.search_distance`, and for a batch
  :func:`batch_eq1` plus :func:`batch_table_stage`.  They stay the oracle
  the compiled path is tested against.

The engine is read-only *between invalidations*: dynamic maintenance
(§8.3) mutates the entry lists in place and then reports the touched
vertices through :meth:`PackedEngineBase.invalidate` — the engine either
re-packs just those labels (into an override directory searched before
the frozen one) and repairs the ``G_k`` structures in place, or, past a
dirtiness threshold or after a ``G_k`` change it cannot localize, drops
everything and re-freezes from the current labels on the next query.  See
:class:`repro.core.updates.DynamicISLabelIndex`, which drives this hook
after every update so dynamic indexes keep serving from the fast engine.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.engines import CAP_LOCAL, UNDIRECTED, register_engine
from repro.envvars import read_env_float
from repro.core.hierarchy import VertexHierarchy
from repro.core.labels import eq1_distance_argmin
from repro.core.query import SearchStats, csr_label_bidijkstra
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

__all__ = [
    "ArrayLabel",
    "as_array_label",
    "array_label_entries",
    "eq1_merge",
    "batch_eq1",
    "batch_table_stage",
    "pack_entry_lists",
    "FlatLabels",
    "concat_flat",
    "LabelTable",
    "fast_top_down_labels",
    "LabelArrayPool",
    "FastEngine",
    "DEFAULT_APSP_BUDGET_BYTES",
    "APSP_BUDGET_ENV",
    "apsp_ceiling",
]

#: A query-time label as parallel arrays: ``(ancestors, dists)``, both
#: ``int64``, sorted by ancestor id.
ArrayLabel = Tuple[np.ndarray, np.ndarray]

#: Below this many merged entries Algorithm 4's per-vertex merge is faster
#: as a plain dict than as numpy concatenate + lexsort (call overhead);
#: measured crossover on CPython 3.11 / numpy 2.x.
_SMALL_MERGE = 48

#: Incremental invalidation always accepts dirty sets up to this size even
#: when the fractional threshold would be smaller — re-packing a handful of
#: labels is cheaper than any full freeze regardless of index size.
_INCREMENTAL_MIN_DIRTY = 64

_EMPTY = np.empty(0, dtype=np.int64)

#: Default all-pairs-table memory budget: 32 MB of float64 cells, the
#: ceiling PR 1 hard-coded as ``APSP_MAX_GK = 2048`` (2048² x 8 bytes).
DEFAULT_APSP_BUDGET_BYTES = 32 * 1024 * 1024

#: Environment override for the table budget, in megabytes.  Accepted
#: values: a finite, non-negative number (fractional allowed, e.g.
#: ``"0.5"`` for half a megabyte); ``0`` disables the table.  Anything
#: else — non-numeric text, a negative number, ``nan``/``inf`` — raises
#: :class:`ValueError` naming the variable instead of silently disabling
#: the table or propagating a bare parse error.
APSP_BUDGET_ENV = "REPRO_APSP_BUDGET_MB"


def apsp_ceiling(budget_bytes: Optional[int] = None) -> int:
    """Largest ``|V_Gk|`` whose float64 all-pairs table fits ``budget_bytes``.

    ``None`` resolves the budget from :data:`APSP_BUDGET_ENV` (megabytes;
    see its docstring for the accepted range — invalid values raise
    :class:`ValueError`), falling back to
    :data:`DEFAULT_APSP_BUDGET_BYTES` — at the default 32 MB the ceiling
    is 2048 vertices, matching the PR 1 constant.  An explicit
    non-positive ``budget_bytes`` disables the table (ceiling 0).

    Unlike the other knobs a *blank* env value here is invalid, not
    unset: an operator who set the variable to an empty string must get
    an error, not a silently disabled table.
    """
    if budget_bytes is None:
        megabytes = read_env_float(
            APSP_BUDGET_ENV,
            what="all-pairs table budget in megabytes",
            blank_is_unset=False,
        )
        if megabytes is None:
            budget_bytes = DEFAULT_APSP_BUDGET_BYTES
        else:
            budget_bytes = int(megabytes * 1024 * 1024)
    if budget_bytes <= 0:
        return 0
    return math.isqrt(budget_bytes // 8)


def as_array_label(entries: Sequence[Tuple[int, int]]) -> ArrayLabel:
    """Freeze a sorted ``(ancestor, distance)`` entry list into arrays."""
    if not entries:
        return _EMPTY, _EMPTY
    anc, d = zip(*entries)
    return np.array(anc, dtype=np.int64), np.array(d, dtype=np.int64)


def array_label_entries(label: ArrayLabel) -> List[Tuple[int, int]]:
    """Materialize an array label back into the list-of-tuples form."""
    ancestors, dists = label
    return list(zip(ancestors.tolist(), dists.tolist()))


def eq1_merge(label_s: ArrayLabel, label_t: ArrayLabel) -> Tuple[float, int]:
    """Equation 1 over two array labels: ``(distance, argmin ancestor)``.

    Merge-intersects the sorted ancestor arrays and minimizes
    ``d(s, w) + d(w, t)`` over the common ancestors ``w``; returns
    ``(inf, -1)`` when the intersection is empty.
    """
    anc_s, d_s = label_s
    anc_t, d_t = label_t
    if len(anc_s) == 0 or len(anc_t) == 0:
        return math.inf, -1
    common, pos_s, pos_t = np.intersect1d(
        anc_s, anc_t, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        return math.inf, -1
    sums = d_s[pos_s] + d_t[pos_t]
    j = int(np.argmin(sums))
    return int(sums[j]), int(common[j])


def batch_eq1(
    labels_s: Sequence[ArrayLabel], labels_t: Sequence[ArrayLabel]
) -> np.ndarray:
    """Equation 1 for a whole batch in one ``searchsorted`` pass.

    ``labels_s[i]`` and ``labels_t[i]`` are the two (sorted, unique) array
    labels of query ``i``; the result is a float array of per-query
    Equation-1 distances (``inf`` where the intersection is empty).

    The trick is to make one flat sorted key space out of the stacked
    labels: entry ``(i, ancestor)`` becomes the scalar
    ``i * span + (ancestor - min_ancestor)`` with ``span`` wide enough that
    queries never overlap, so the concatenated target keys stay globally
    sorted and a single ``searchsorted`` of all source keys finds every
    intersection in the batch at once.  Per-query minima then come from one
    ``np.minimum.at`` scatter over the hits.  Falls back to the per-pair
    merge if the key space would overflow ``int64`` (absurd vertex ids).
    """
    q = len(labels_s)
    out = np.full(q, np.inf)
    if q == 0:
        return out
    len_s = np.array([len(lab[0]) for lab in labels_s], dtype=np.int64)
    len_t = np.array([len(lab[0]) for lab in labels_t], dtype=np.int64)
    if not len_s.sum() or not len_t.sum():
        return out
    anc_s = np.concatenate([lab[0] for lab in labels_s])
    d_s = np.concatenate([lab[1] for lab in labels_s])
    anc_t = np.concatenate([lab[0] for lab in labels_t])
    d_t = np.concatenate([lab[1] for lab in labels_t])

    lo = min(int(anc_s.min()), int(anc_t.min()))
    hi = max(int(anc_s.max()), int(anc_t.max()))
    span = hi - lo + 1
    if span > (2**62) // max(q, 1):
        for i, (ls, lt) in enumerate(zip(labels_s, labels_t)):
            out[i] = eq1_merge(ls, lt)[0]
        return out

    qid_s = np.repeat(np.arange(q, dtype=np.int64), len_s)
    qid_t = np.repeat(np.arange(q, dtype=np.int64), len_t)
    key_s = qid_s * span + (anc_s - lo)
    key_t = qid_t * span + (anc_t - lo)
    pos = np.searchsorted(key_t, key_s)
    pos[pos == len(key_t)] = 0  # clamp; the equality below rejects these
    hit = key_t[pos] == key_s
    if not hit.any():
        return out
    sums = (d_s[hit] + d_t[pos[hit]]).astype(np.float64)
    np.minimum.at(out, qid_s[hit], sums)
    return out


#: A single query whose seed cross product exceeds this many candidate
#: pairs is answered on its own instead of joining the flat batch gather.
_TABLE_FLAT_CAP = 4096


def batch_table_stage(
    table: np.ndarray,
    done: np.ndarray,
    fill_row,
    seeds_f: Sequence[Tuple[np.ndarray, np.ndarray]],
    seeds_r: Sequence[Tuple[np.ndarray, np.ndarray]],
    mu0s: np.ndarray,
) -> List[float]:
    """Stage-2 answers for a whole batch over the all-pairs ``G_k`` table.

    ``seeds_f[i]``/``seeds_r[i]`` are query ``i``'s dense-id seed arrays
    and ``mu0s[i]`` its Equation-1 bound.  Queries with an empty seed side
    are answered by the bound alone.  Everything else is flattened into one
    candidate list — the cross product of each query's seed pairs — so a
    single fancy-indexed gather ``table[A, B]`` plus one
    ``np.minimum.reduceat`` over the query boundaries evaluates the whole
    batch's Theorem-4 reduction at once.  The cross products themselves
    are built by segment arithmetic over the *concatenated* seed arrays
    (one ``arange`` + a handful of ``repeat``/gather passes for the whole
    batch) instead of per-query ``repeat``/``tile`` calls, whose fixed
    numpy overhead used to dominate warm batches of small labels.
    Missing table rows are filled on demand via ``fill_row``.
    """
    q = len(seeds_f)
    out: List[float] = [math.inf] * q
    vec: List[int] = []
    ns_list: List[int] = []
    nt_list: List[int] = []
    s_parts: List[np.ndarray] = []
    t_parts: List[np.ndarray] = []
    ds_parts: List[np.ndarray] = []
    dt_parts: List[np.ndarray] = []
    for i in range(q):
        ids_s, d_s = seeds_f[i]
        ids_t, d_t = seeds_r[i]
        ns, nt = len(ids_s), len(ids_t)
        mu0 = float(mu0s[i])
        if not ns or not nt:
            out[i] = int(mu0) if mu0 != math.inf else mu0
            continue
        if ns * nt > _TABLE_FLAT_CAP:
            # Pathologically seedy pair: answer it alone rather than
            # blowing up the flat candidate array.
            for a in ids_s.tolist():
                if not done[a]:
                    fill_row(a)
            sub = table[np.ix_(ids_s, ids_t)]
            best = float((sub + d_s[:, None] + d_t[None, :]).min())
            if best >= mu0:
                best = mu0
            out[i] = int(best) if best != math.inf else best
            continue
        vec.append(i)
        ns_list.append(ns)
        nt_list.append(nt)
        s_parts.append(ids_s)
        t_parts.append(ids_t)
        ds_parts.append(d_s)
        dt_parts.append(d_t)
    if vec:
        seed_s = np.concatenate(s_parts)
        seed_t = np.concatenate(t_parts)
        dist_s = np.concatenate(ds_parts)
        dist_t = np.concatenate(dt_parts)
        ns_arr = np.array(ns_list, dtype=np.int64)
        nt_arr = np.array(nt_list, dtype=np.int64)
        counts = ns_arr * nt_arr
        starts = np.zeros(len(vec), dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        # Row-major cross product per query via segment arithmetic:
        # candidate j of query i has local index l = j - starts[i];
        # its source seed is l // nt_i (offset into seed_s's segment)
        # and its target seed l % nt_i (offset into seed_t's segment).
        local = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            starts, counts
        )
        nt_rep = np.repeat(nt_arr, counts)
        s_off = np.zeros(len(vec), dtype=np.int64)
        np.cumsum(ns_arr[:-1], out=s_off[1:])
        t_off = np.zeros(len(vec), dtype=np.int64)
        np.cumsum(nt_arr[:-1], out=t_off[1:])
        a_idx = np.repeat(s_off, counts) + local // nt_rep
        b_idx = np.repeat(t_off, counts) + local % nt_rep
        a_ids = seed_s[a_idx]
        b_ids = seed_t[b_idx]
        for a in np.unique(a_ids[~done[a_ids]]).tolist():
            fill_row(a)
        vals = table[a_ids, b_ids] + dist_s[a_idx] + dist_t[b_idx]
        mins = np.minimum.reduceat(vals, starts)
        best_all = np.minimum(mins, mu0s[vec])
        for j, i in enumerate(vec):
            best = float(best_all[j])
            out[i] = int(best) if best != math.inf else best
    return out


def pack_entry_lists(
    entry_lists: Dict[int, List[Tuple[int, int]]],
    prebuilt: Dict[int, ArrayLabel],
    gk_ids: np.ndarray,
) -> "FlatLabels":
    """Freeze entry-list labels into one flat label table, plus dense ``G_k`` seeds.

    The shared engine-freeze primitive behind both the undirected
    :class:`FastEngine` and the directed engine's two label tables, and
    behind every §8.3 repack.  Every label is laid end to end in one
    ``anc``/``dist`` pair, in sorted vertex order: labels already merged
    vectorially (``prebuilt``) are copied in as they are, and the rest
    (the small-label majority) come from one batched conversion.  The
    same ancestor array then drives the vectorized seed extraction: the
    dense id of a ``G_k`` vertex equals its rank among the sorted ``G_k``
    ids (CSR order), so membership and dense translation come from a
    single ``searchsorted`` over all labels at once, and a cumulative sum
    of its hit mask gives each label's seed bounds.

    Returns the :class:`FlatLabels` directory — the snapshot layout,
    which :meth:`LabelTable.from_flat` adopts.
    """
    order = sorted(entry_lists)
    counts: List[int] = []
    flat_anc: List[int] = []
    flat_d: List[int] = []
    # The labels in vertex order: prebuilt labels, and slices of the
    # converted entries for the runs between them.
    parts: list = []
    run = 0
    for v in order:
        entries = entry_lists[v]
        counts.append(len(entries))
        ready = prebuilt.get(v)
        if ready is None:
            if entries:
                anc, d = zip(*entries)
                flat_anc.extend(anc)
                flat_d.extend(d)
            continue
        parts.append(slice(run, len(flat_anc)))
        parts.append(ready)
        run = len(flat_anc)
    all_anc = np.array(flat_anc, dtype=np.int64)
    all_d = np.array(flat_d, dtype=np.int64)
    if parts:
        parts.append(slice(run, len(flat_anc)))
        pieces = [(all_anc[p], all_d[p]) if type(p) is slice else p for p in parts]
        all_anc = np.concatenate([anc for anc, _ in pieces])
        all_d = np.concatenate([d for _, d in pieces])
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    n = len(gk_ids)
    if n == 0 or len(all_anc) == 0:
        seed_ids = seed_dists = _EMPTY
        seed_indptr = np.zeros(len(order) + 1, dtype=np.int64)
    else:
        pos = np.searchsorted(gk_ids, all_anc)
        pos[pos == n] = 0  # clamp before the gather; equality below rejects these
        mask = gk_ids[pos] == all_anc
        seed_ids = pos[mask]
        seed_dists = all_d[mask]
        hits = np.zeros(len(all_anc) + 1, dtype=np.int64)
        np.cumsum(mask, out=hits[1:])
        seed_indptr = hits[indptr]
    return FlatLabels(
        np.array(order, dtype=np.int64), indptr, all_anc, all_d, seed_indptr, seed_ids, seed_dists
    )


class FlatLabels(NamedTuple):
    """One label table as seven flat arrays — the directory the compiled
    query entries search, and the snapshot layout.

    ``keys`` holds the sorted vertex ids carrying a packed label;
    ``indptr`` (length ``len(keys) + 1``) delimits each vertex's slice of
    the parallel ``anc``/``dist`` arrays, and ``seed_indptr`` does the same
    for the pre-extracted Algorithm-1 seeds (``seed_ids`` are dense ``G_k``
    ids, ``seed_dists`` the matching label distances).  All arrays are
    ``int64``; they may live on the heap or be ``np.memmap`` views over a
    snapshot file — :class:`LabelTable` treats both identically.
    """

    keys: np.ndarray
    indptr: np.ndarray
    anc: np.ndarray
    dist: np.ndarray
    seed_indptr: np.ndarray
    seed_ids: np.ndarray
    seed_dists: np.ndarray


def _position(keys: np.ndarray, v: int) -> int:
    """Position of ``v`` in the sorted ``keys``, or -1."""
    i = int(np.searchsorted(keys, v))
    return i if i < len(keys) and keys[i] == v else -1


def _take_rows(flat: FlatLabels, rows: np.ndarray) -> FlatLabels:
    """The labels at key positions ``rows`` of ``flat``, in that order and
    laid end to end: one gather per array, no per-label slicing."""
    rows = np.asarray(rows, dtype=np.int64)

    def gather(bounds, *arrays):
        lo = bounds[rows]
        lengths = bounds[rows + 1] - lo
        out = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=out[1:])
        source = np.repeat(lo - out[:-1], lengths) + np.arange(out[-1], dtype=np.int64)
        return (out, *(a[source] for a in arrays))

    indptr, anc, dist = gather(flat.indptr, flat.anc, flat.dist)
    seed_indptr, seed_ids, seed_dists = gather(flat.seed_indptr, flat.seed_ids, flat.seed_dists)
    return FlatLabels(flat.keys[rows], indptr, anc, dist, seed_indptr, seed_ids, seed_dists)


def concat_flat(flats: Sequence[FlatLabels]) -> FlatLabels:
    """``flats`` laid end to end, keys in the given order."""
    if len(flats) == 1:
        return flats[0]

    def bounds(name: str, entries: str) -> np.ndarray:
        parts, offset = [], 0
        for flat in flats:
            parts.append(getattr(flat, name)[:-1] + offset)
            offset += len(getattr(flat, entries))
        parts.append(np.array([offset], dtype=np.int64))
        return np.concatenate(parts)

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(flat, name) for flat in flats])

    return FlatLabels(
        cat("keys"),
        bounds("indptr", "anc"),
        cat("anc"),
        cat("dist"),
        bounds("seed_indptr", "seed_ids"),
        cat("seed_ids"),
        cat("seed_dists"),
    )


def _sorted_union(parts: Sequence[Tuple[FlatLabels, np.ndarray]]) -> Tuple[FlatLabels, np.ndarray]:
    """``(flat, flags)`` pairs with disjoint keys merged into key order."""
    flat = concat_flat([p[0] for p in parts])
    flags = np.concatenate([p[1] for p in parts])
    order = np.argsort(flat.keys, kind="stable")
    return _take_rows(flat, order), flags[order]


def _tombstones(keys: np.ndarray) -> FlatLabels:
    """Empty labels for ``keys``: an override's deleted vertices."""
    bounds = np.zeros(len(keys) + 1, dtype=np.int64)
    return FlatLabels(keys, bounds, _EMPTY, _EMPTY, bounds, _EMPTY, _EMPTY)


class LabelTable:
    """One frozen label table: a registered directory plus its §8.3 override.

    The buffer-agnostic view struct behind the packed engines.  Its base
    is one :class:`FlatLabels` directory, registered once with
    :func:`repro.core.kernels.register_directory` — the heap freeze's
    (:func:`pack_entry_lists`) or a snapshot's (or shard's) flat sections,
    which may be views over a file, so a cold load costs O(1) and the OS
    page cache faults in only the labels a workload reads.  The compiled
    query entries search it by vertex id through :attr:`record`.

    §8.3 repairs (:meth:`repack`) keep one more directory in front of the
    base, the *override*: the fresh labels of every repacked vertex, plus
    tombstones (``dead`` flags) for deleted ones.  Each repack merges the
    previous override with the new labels, so a table never holds more
    than two directories; the kernels and :meth:`label`/:meth:`seeds_np`
    (the reference path's accessors) check the override first.
    """

    __slots__ = ("base", "over", "labels", "record")

    def __init__(self, flat: FlatLabels) -> None:
        self.base = kernels.register_directory(flat)
        self.over: Optional[kernels.Directory] = None
        #: Array views cut for the reference path, cached per vertex.
        self.labels: Dict[int, ArrayLabel] = {}
        self._link()

    def _link(self) -> None:
        """A fresh C record over the current directories (see
        :class:`repro.core.kernels.LabelRecord`)."""
        self.record = kernels.LabelRecord([0])
        self.record.set(0, self.over, self.base)

    @classmethod
    def from_flat(cls, flat: FlatLabels) -> "LabelTable":
        """Adopt flat (possibly file-mapped) arrays as the base directory."""
        return cls(flat)

    @property
    def flat(self) -> FlatLabels:
        """The base directory's arrays."""
        return self.base.flat

    # ------------------------------------------------------------------
    # Query accessors (the reference path; the kernels search by id)
    # ------------------------------------------------------------------
    def _find(self, v: int) -> Optional[Tuple[FlatLabels, int]]:
        """``(directory, position)`` of ``v``'s live label, or ``None``."""
        over = self.over
        if over is not None:
            i = _position(over.flat.keys, v)
            if i >= 0:
                return None if over.dead[i] else (over.flat, i)
        flat = self.base.flat
        i = _position(flat.keys, v)
        return (flat, i) if i >= 0 else None

    def label(self, v: int) -> Optional[ArrayLabel]:
        """Array label of ``v`` (views of its directory), or ``None``."""
        got = self.labels.get(v)
        if got is None:
            found = self._find(v)
            if found is None:
                return None
            flat, i = found
            lo, hi = int(flat.indptr[i]), int(flat.indptr[i + 1])
            got = self.labels[v] = (flat.anc[lo:hi], flat.dist[lo:hi])
        return got

    def seeds_np(self, v: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Dense-id seeds of ``v`` as numpy arrays, or ``None``."""
        found = self._find(v)
        if found is None:
            return None
        flat, i = found
        lo, hi = int(flat.seed_indptr[i]), int(flat.seed_indptr[i + 1])
        return flat.seed_ids[lo:hi], flat.seed_dists[lo:hi]

    # ------------------------------------------------------------------
    # §8.3 incremental repair
    # ------------------------------------------------------------------
    def repack(self, dirty, lists, gk_ids: np.ndarray) -> None:
        """Pack the labels of ``dirty`` into a fresh override directory.

        ``lists`` is the live entry-list dict (shared with the index
        facade, so it already reflects the mutations).  Dirty vertices
        present in ``lists`` get fresh labels; dirty vertices that
        disappeared (§8.3 deletions) get tombstones over their base
        labels.  The previous override's other labels carry over, and
        clean vertices keep their base labels (and cached views).
        """
        dirty_keys = np.fromiter(dirty, np.int64, len(dirty))
        fresh = pack_entry_lists({v: lists[v] for v in dirty if v in lists}, {}, gk_ids)
        gone = np.sort(np.array([v for v in dirty if v not in lists], dtype=np.int64))
        gone = gone[np.isin(gone, self.base.flat.keys)]
        parts = [
            (fresh, np.zeros(len(fresh.keys), dtype=bool)),
            (_tombstones(gone), np.ones(len(gone), dtype=bool)),
        ]
        old = self.over
        if old is not None:
            keep = np.flatnonzero(~np.isin(old.flat.keys, dirty_keys))
            parts.append((_take_rows(old.flat, keep), old.dead[keep]))
            for v in old.flat.keys.tolist():
                self.labels.pop(v, None)
        for v in dirty:
            self.labels.pop(v, None)
        flat, dead = _sorted_union(parts)
        self.over = kernels.register_directory(flat, dead) if len(flat.keys) else None
        self._link()

    # ------------------------------------------------------------------
    # Introspection / flattening
    # ------------------------------------------------------------------
    def _hidden(self) -> np.ndarray:
        """Base key positions the override replaces or deletes."""
        keys = self.base.flat.keys
        return np.flatnonzero(np.isin(keys, self.over.flat.keys))

    def num_labels(self) -> int:
        """Number of live labels."""
        n = len(self.base.flat.keys)
        if self.over is not None:
            n += int(np.count_nonzero(~self.over.dead)) - len(self._hidden())
        return n

    def nbytes(self) -> int:
        """16 bytes (ancestor + distance) per entry of the live labels."""
        base = self.base.flat
        entries = len(base.anc)
        if self.over is not None:
            hidden = self._hidden()
            entries += len(self.over.flat.anc) - int(
                (base.indptr[hidden + 1] - base.indptr[hidden]).sum()
            )
        return 16 * entries

    def vertex_ids(self) -> List[int]:
        """Sorted vertex ids carrying a live label."""
        keys = self.base.flat.keys
        over = self.over
        if over is None:
            return keys.tolist()
        kept = np.delete(keys, self._hidden())
        return np.union1d(kept, over.flat.keys[~over.dead]).tolist()

    def to_flat(self) -> FlatLabels:
        """The live labels as one :class:`FlatLabels`, in vertex order —
        the base itself until a repack (used when writing snapshots)."""
        if self.over is None:
            return self.base.flat
        over = self.over
        kept = np.delete(np.arange(len(self.base.flat.keys)), self._hidden())
        alive = np.flatnonzero(~over.dead)
        flat = concat_flat([_take_rows(self.base.flat, kept), _take_rows(over.flat, alive)])
        return _take_rows(flat, np.argsort(flat.keys, kind="stable"))


def label_views(table) -> Dict[int, ArrayLabel]:
    """Every label of any label table as array views (cut and cached):
    the engines' ``labels`` debugging aid, which touches the whole table."""
    return {v: table.label(v) for v in table.vertex_ids()}


def fast_top_down_labels(
    hierarchy: VertexHierarchy,
) -> Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, ArrayLabel]]:
    """Algorithm 4 with a sorted-array k-way min-merge for large labels.

    Returns ``(lists, arrays)``: the canonical sorted entry lists for every
    vertex (the same mathematical object as
    :func:`repro.core.labeling.top_down_labels` + ``sort_label``) plus the
    array form of every label that was merged vectorially, so the engine
    freeze can adopt them instead of re-converting.

    The per-vertex merge of the higher-level neighbours' labels dispatches
    on size: below ``_SMALL_MERGE`` entries a dict merge wins; above it the
    labels are concatenated as arrays, ``lexsort``-ed by
    ``(ancestor, dist)`` and reduced to the per-ancestor minimum by keeping
    the first entry of each group — no per-entry Python writes.
    """
    lists: Dict[int, List[Tuple[int, int]]] = {}
    arrays: Dict[int, ArrayLabel] = {}

    for v in hierarchy.gk.vertices():
        lists[v] = [(v, 0)]

    # levels[i] maps each peeled vertex to its removal-time adjacency, whose
    # endpoints all live at higher levels (Corollary 1) — iterate directly.
    for peeled in reversed(hierarchy.levels):
        for v, adjacency in peeled.items():
            total = 1
            for u, _ in adjacency:
                total += len(lists[u])
            if total <= _SMALL_MERGE:
                merged: Dict[int, int] = {v: 0}
                for u, weight in adjacency:
                    for a, du in lists[u]:
                        candidate = weight + du
                        old = merged.get(a)
                        if old is None or candidate < old:
                            merged[a] = candidate
                lists[v] = sorted(merged.items())
                continue
            parts_anc = [np.array([v], dtype=np.int64)]
            parts_d = [np.zeros(1, dtype=np.int64)]
            for u, weight in adjacency:
                got = arrays.get(u)
                if got is None:
                    got = arrays[u] = as_array_label(lists[u])
                anc_u, d_u = got
                parts_anc.append(anc_u)
                parts_d.append(d_u + weight)
            anc = np.concatenate(parts_anc)
            d = np.concatenate(parts_d)
            order = np.lexsort((d, anc))
            anc = anc[order]
            d = d[order]
            keep = np.empty(len(anc), dtype=bool)
            keep[0] = True
            np.not_equal(anc[1:], anc[:-1], out=keep[1:])
            anc = anc[keep]
            d = d[keep]
            arrays[v] = (anc, d)
            lists[v] = array_label_entries((anc, d))
    return lists, arrays


class LabelArrayPool:
    """Reusable dense search buffers for the CSR bidirectional Dijkstra.

    Algorithm 1 needs two distance maps, two settled sets and two
    tentative-dist markers over the dense ``0..n-1`` vertices of ``G_k``.
    Allocating (or worse, clearing) them per query dominates small-query
    cost, so the pool hands out the same six flat lists every time and
    invalidates stale entries with an epoch stamp: slot ``v`` is live only
    when ``stamp[v] == epoch``, and :meth:`acquire` bumps the epoch instead
    of zeroing anything.

    Plain Python lists, not ndarrays: the search loop is scalar, and
    CPython indexes a list several times faster than a numpy array.
    The compiled kernels (:mod:`repro.core.kernels`) keep their own native
    buffers, one set per thread.

    A pool serves one search at a time — acquiring invalidates the
    previously handed-out buffers — so the packed engines keep one pool
    per thread (:attr:`PackedEngineBase.pool`); concurrent readers of one
    engine never share one.
    """

    __slots__ = (
        "epoch",
        "dist_f",
        "dist_r",
        "seen_f",
        "seen_r",
        "done_f",
        "done_r",
        "_capacity",
    )

    def __init__(self) -> None:
        self.epoch = 0
        self._capacity = 0
        self.dist_f: List[int] = []
        self.dist_r: List[int] = []
        self.seen_f: List[int] = []
        self.seen_r: List[int] = []
        self.done_f: List[int] = []
        self.done_r: List[int] = []

    def acquire(self, n: int) -> int:
        """Invalidate previous buffers, grow to ``n`` slots, return the epoch."""
        if n > self._capacity:
            grow = n - self._capacity
            for buf in (
                self.dist_f,
                self.dist_r,
                self.seen_f,
                self.seen_r,
                self.done_f,
                self.done_r,
            ):
                buf.extend([0] * grow)
            self._capacity = n
        self.epoch += 1
        return self.epoch


def _as_lists(seeds: Tuple[np.ndarray, np.ndarray]) -> Tuple[List[int], List[int]]:
    """Seed arrays as the Python lists the scalar reference search reads."""
    return seeds[0].tolist(), seeds[1].tolist()


class _ThreadPools(threading.local):
    """An engine's search buffers, one :class:`LabelArrayPool` per thread."""

    def __init__(self) -> None:
        self.pool = LabelArrayPool()


class PackedEngineBase:
    """Shared query machinery of the packed-array engines.

    Everything the undirected :class:`FastEngine` and the directed
    :class:`repro.core.fastdirected.DirectedFastEngine` answer queries
    with is one code path parameterized by orientation: the subclass
    supplies the label tables and entry lists a source and a target read
    (:meth:`_label_tables`, :meth:`_entry_lists`: one table twice for an
    undirected graph, out-labels then in-labels for a directed one) and
    :meth:`_search_arrays` (forward CSR triple plus the reverse triple —
    ``None`` s for an undirected graph, where one adjacency serves both
    directions); the per-side accessors (:meth:`_label_of`,
    :meth:`_seeds_of`) and :meth:`eq1` are shared.  This base then
    implements the :class:`repro.core.engines.QueryEngine`
    ``distance``/``distances`` hot paths — with the compiled module, one
    call into :mod:`repro.core.kernels` per query or batch, over vertex
    ids and the engine's record (:meth:`_compile`); otherwise the Python
    staging, which :meth:`staged` also runs to report the index facade's
    Table 4/5 fields — plus the lazily row-filled all-pairs ``G_k`` table
    and its batched Theorem-4 reduction, identically for both
    orientations.

    It also implements the protocol's :meth:`invalidate`, including the
    §8.3 incremental path: given the set of vertices whose labels changed,
    it re-packs only those labels over the current ``G_k`` id space
    (:meth:`LabelTable.repack` splices the fresh array views over the
    stale ones), rebuilds the tiny CSR adjacency, and grows/repairs the all-pairs
    table instead of discarding it.  Subclasses supply the storage hooks
    (``_drop_frozen``, ``_rebuild_csr``, ``_repack``, ``_num_labels``,
    ``_backward_row``).
    """

    __slots__ = ()

    #: Registry name (`engines.py` protocol attribute).
    name = "fast"

    #: Default for ``incremental_max_fraction``: past this fraction of
    #: dirty labels (with an :data:`_INCREMENTAL_MIN_DIRTY` floor) an
    #: incremental invalidation re-packs enough of the index that one full
    #: re-freeze is cheaper.  Instances expose ``incremental_max_fraction``
    #: so dynamic workloads (and the tests' forced-full twin, which sets
    #: it to ``0``) can tune the tradeoff.
    INCREMENTAL_MAX_FRACTION = 0.25

    @property
    def pool(self) -> LabelArrayPool:
        """The calling thread's search buffers (created on first use)."""
        return self._pools.pool

    #: At or below this many entries (on both sides) the scalar two-pointer
    #: merge over the canonical entry lists beats the numpy intersection's
    #: call overhead; :meth:`eq1` switches on it.
    EQ1_SMALL = 32

    def _label_of(self, side: int, v: int) -> ArrayLabel:
        """Array label of ``v`` in the source (0) or target (1) side's
        table; the implicit ``([v], [0])`` when the table holds none."""
        if not self.frozen:
            self.freeze()
        got = self._label_tables()[side].label(v)
        if got is not None:
            return got
        return np.array([v], dtype=np.int64), np.zeros(1, dtype=np.int64)

    def _seeds_of(self, side: int, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense-id Algorithm-1 seeds of :meth:`_label_of` (pre-extracted;
        a bare ``G_k`` id seeds at itself)."""
        if not self.frozen:
            self.freeze()
        got = self._label_tables()[side].seeds_np(v)
        if got is not None:
            return got
        if self.csr.has_vertex(v):
            return np.array([self.csr.dense_of[v]], dtype=np.int64), np.zeros(1, dtype=np.int64)
        return _EMPTY, _EMPTY

    def eq1(self, source: int, target: int) -> Tuple[float, int]:
        """Equation 1 between ``source``'s and ``target``'s labels:
        ``(distance, argmin ancestor)``.

        Hybrid dispatch: small-by-small runs the scalar merge over the
        canonical entry lists (e.g. the singleton labels of two ``G_k``
        endpoints — the bulk of Type-1 traffic); everything else takes the
        vectorized merge intersection.  Both return identical answers.
        """
        lists_s, lists_t = self._entry_lists()
        entries_s = lists_s.get(source)
        entries_t = lists_t.get(target)
        if (
            entries_s is not None
            and entries_t is not None
            and len(entries_s) <= self.EQ1_SMALL
            and len(entries_t) <= self.EQ1_SMALL
        ):
            return eq1_distance_argmin(entries_s, entries_t)
        return eq1_merge(self._label_of(0, source), self._label_of(1, target))

    def _search_arrays(self, native: bool):
        """``((indptr, indices, weights), (indptr_r, indices_r, weights_r))``
        for the stage-2 search; the reverse triple is ``(None, None, None)``
        when one adjacency serves both directions.  ``native`` picks the
        CSR's int64 arrays (the compiled kernel's form) over the flat list
        mirrors (the pure-Python reference's)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Small-G_k all-pairs table
    # ------------------------------------------------------------------
    @property
    def has_apsp(self) -> bool:
        """True when the search stage runs on the ``G_k`` distance table."""
        if not self.frozen:
            self.freeze()
        return self._apsp is not None

    def search_distance(
        self,
        seeds_s: Tuple[np.ndarray, np.ndarray],
        seeds_t: Tuple[np.ndarray, np.ndarray],
        bound: float,
    ) -> float:
        """Stage-2 answer ``min(bound, min_{a,b} d_a + dist_Gk(a,b) + d_b)``.

        Requires :attr:`has_apsp`; rows of the table are filled on first
        use by a plain Dijkstra over the (forward) CSR arrays — each row is
        computed at most once per engine lifetime, so a query workload
        amortizes the whole table while construction pays nothing.  The
        reference body: with the compiled module :meth:`staged` runs
        :func:`repro.core.kernels.table_query` instead.
        """
        ids_s, d_s = seeds_s
        ids_t, d_t = seeds_t
        table = self._apsp
        done = self._apsp_done
        for a in ids_s.tolist():
            if not done[a]:
                self._fill_apsp_row(a)
        sub = table[np.ix_(ids_s, ids_t)]
        best = (sub + d_s[:, None] + d_t[None, :]).min()
        if best < bound:
            return int(best)
        return bound

    def _dijkstra_row(self, a: int, indptr, indices, weights) -> List[float]:
        """Single-source Dijkstra from dense ``a`` over flat CSR arrays."""
        n = self.csr.num_vertices
        dist = [math.inf] * n
        dist[a] = 0
        heap = [a]  # encoded d * n + v
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d, v = divmod(pop(heap), n)
            if d > dist[v]:
                continue
            for p in range(indptr[v], indptr[v + 1]):
                u = indices[p]
                candidate = d + weights[p]
                if candidate < dist[u]:
                    dist[u] = candidate
                    push(heap, candidate * n + u)
        return dist

    def _fill_apsp_row(self, a: int) -> None:
        """Fill table row ``a``: Dijkstra from ``a`` over the forward CSR."""
        self._apsp[a] = self._dijkstra_row(a, self.indptr, self.indices, self.weights)
        kernels.mark_row_done(self._apsp_done, a, self._compiled)

    # ------------------------------------------------------------------
    # Invalidation (full and §8.3-incremental)
    # ------------------------------------------------------------------
    def invalidate(self, dirty: Optional[Iterable[int]] = None) -> None:
        """React to label/``G_k`` mutations behind the engine's back.

        ``dirty=None`` (or an incremental repair the engine cannot apply)
        drops every frozen structure; the next query re-freezes from the
        current entry lists.  With ``dirty`` — the vertices whose labels
        changed since the last freeze or invalidation — the engine instead
        re-packs just those labels and repairs the ``G_k`` structures in
        place, which is what makes §8.3 update streams cheap: IS-LABEL's
        augmenting-edge rule localizes label churn to the touched vertices'
        ancestor sets, so the dirty set stays small while the packed bulk
        of the index is untouched.

        The incremental path assumes §8.3-shaped mutations: label entry
        changes for the dirty vertices plus, optionally, new ``G_k``
        vertices (ids larger than every existing ``G_k`` id, as fresh
        vertex ids are) with arcs incident to them.  Anything it cannot
        prove safe — dense-id shifts from mid-range insertions or
        deletions, oversized dirty sets, unexpected adjacency edits — falls
        back to the full drop, so answers always match a from-scratch
        freeze bit for bit.
        """
        self._compiled = None
        if dirty is not None and self._invalidate_incremental(set(dirty)):
            return
        self._drop_frozen()

    def _invalidate_incremental(self, dirty) -> bool:
        """Try the in-place repair; False means "fall back to a full drop"."""
        if not self.frozen:
            # Nothing frozen to patch — the next freeze reads the current
            # entry lists.  Only pre-merged arrays could go stale.
            self._forget_packed(dirty)
            return True
        fraction = self.incremental_max_fraction
        if fraction <= 0:
            return False
        if len(dirty) > max(_INCREMENTAL_MIN_DIRTY, fraction * self._num_labels()):
            return False
        old_csr = self.csr
        old_ids = old_csr.ids_array
        new_ids = np.array(sorted(self.gk.vertices()), dtype=np.int64)
        n_old = len(old_ids)
        appended = len(new_ids) - n_old
        if appended < 0 or not np.array_equal(new_ids[:n_old], old_ids):
            # G_k lost vertices, or gained mid-range ids: dense ids shift,
            # so every pre-extracted seed would need re-translation —
            # a full re-freeze is the honest cost.
            return False
        self._rebuild_csr()
        self._repack(dirty, new_ids)
        self._refresh_apsp(old_csr, appended)
        return True

    def _refresh_apsp(self, old_csr, appended: int) -> None:
        """Carry the all-pairs table across an incremental invalidation.

        Rows are lazily filled, so soundness only requires that ``done``
        rows hold exact current distances.  Three regimes:

        * ``G_k`` unchanged (pure label patching): the table is untouched.
        * one appended vertex ``x`` whose arcs are the only adjacency
          change (the §8.3 insert shape): the table grows and every filled
          row is *repaired* through the new vertex —
          ``d'(a, b) = min(d(a, b), d'(a, x) + d'(x, b))`` — which is exact
          because any new path must pass through ``x``;
        * anything else: the filled rows are evicted (``done`` cleared) and
          refill lazily from the new CSR; the allocation is kept.
        """
        n_new = self.csr.num_vertices
        n_old = old_csr.num_vertices
        if appended == 0:
            if self._apsp is not None and not self._same_adjacency(old_csr):
                self._apsp_done[:] = False
            return
        if self._apsp is None:
            if n_old == 0 and 0 < n_new <= self.apsp_max_gk:
                self._apsp = np.full((n_new, n_new), np.inf)
                self._apsp_done = np.zeros(n_new, dtype=bool)
            return
        if n_new > self.apsp_max_gk:
            self._apsp = None
            self._apsp_done = None
            return
        table = np.full((n_new, n_new), np.inf)
        table[:n_old, :n_old] = self._apsp
        done = np.zeros(n_new, dtype=bool)
        done[:n_old] = self._apsp_done
        self._apsp = table
        self._apsp_done = done
        rows = np.flatnonzero(done[:n_old])
        if not rows.size:
            return
        if appended == 1 and self._old_adjacency_preserved(old_csr):
            dx = n_old
            self._fill_apsp_row(dx)
            forward = table[dx]
            backward = self._backward_row(dx)
            table[rows] = np.minimum(
                table[rows], backward[rows][:, None] + forward[None, :]
            )
        else:
            done[:] = False

    def _same_adjacency(self, old_csr) -> bool:
        """True when the rebuilt forward CSR is identical to the old one."""
        new = self.csr
        return (
            np.array_equal(new.indptr, old_csr.indptr)
            and np.array_equal(new.indices, old_csr.indices)
            and np.array_equal(new.weights, old_csr.weights)
        )

    def _old_adjacency_preserved(self, old_csr) -> bool:
        """True when the old vertices' mutual adjacency is unchanged.

        With appended vertices, the new CSR restricted to dense ids below
        ``n_old`` must equal the old CSR exactly — then (and only then)
        every new path between old vertices passes through an appended
        vertex and the pivot repair in :meth:`_refresh_apsp` is exact.
        """
        new = self.csr
        n_old = old_csr.num_vertices
        src = np.repeat(
            np.arange(new.num_vertices, dtype=np.int64), np.diff(new.indptr)
        )
        sel = (src < n_old) & (new.indices < n_old)
        return (
            int(np.count_nonzero(sel)) == len(old_csr.indices)
            and np.array_equal(new.indices[sel], old_csr.indices)
            and np.array_equal(new.weights[sel], old_csr.weights)
            and np.array_equal(
                np.bincount(src[sel], minlength=n_old)[:n_old],
                np.diff(old_csr.indptr),
            )
        )

    def _forget_packed(self, dirty) -> None:
        """Drop any pre-freeze packed state for ``dirty`` (hook; no-op)."""

    def _backward_row(self, dx: int) -> np.ndarray:
        """``d'(a, x)`` for every dense ``a`` (reverse distances to ``dx``)."""
        raise NotImplementedError

    def _num_labels(self) -> int:
        """Number of frozen labels (the incremental-threshold denominator)."""
        raise NotImplementedError

    def _rebuild_csr(self) -> None:
        """Rebuild the CSR view(s) and flat search arrays from ``self.gk``."""
        raise NotImplementedError

    def _repack(self, dirty, gk_ids) -> None:
        """Re-pack the dirty labels of every label table."""
        raise NotImplementedError

    def _label_tables(self) -> tuple:
        """The label tables a source and a target read (frozen engine)."""
        raise NotImplementedError

    def _entry_lists(self) -> tuple:
        """The live entry-list dicts a source and a target read."""
        raise NotImplementedError

    def _drop_frozen(self) -> None:
        """Full invalidation: drop every frozen structure."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # QueryEngine protocol: validated-query compute
    # ------------------------------------------------------------------
    def _compile(self) -> "kernels.EngineRecord":
        """The compiled entries' record of this engine state (frozen first).

        Links the label tables' registered directories and validates the
        ``G_k`` ids with the table and row flags (table mode) or the CSR
        arrays; :meth:`invalidate` drops it, and the next compiled query
        builds it again.
        """
        if not self.frozen:
            self.freeze()
        fwd, rev = self._label_tables()
        ids = self.csr.ids_array
        if self._apsp is not None:
            record = kernels.EngineRecord(
                fwd.record, rev.record, ids, self._apsp, self._apsp_done, None
            )
        else:
            forward, reverse = self._search_arrays(True)
            if reverse[0] is None:
                reverse = forward
            record = kernels.EngineRecord(fwd.record, rev.record, ids, None, None, forward + reverse)
        self._compiled = record
        return record

    def _resolve(self, status: int, first: int, second: int) -> "kernels.EngineRecord":
        """Act on a compiled call's retry status — 3: fill table row
        ``first``; 4: open shard ``second`` of the source (0) or target (1)
        side's table — and return the record to call again with: the
        current one, which a concurrent invalidation may have replaced."""
        if status == 3:
            self._fill_apsp_row(first)
        else:
            self._label_tables()[first].open_shard(second)
        return self._compiled or self._compile()

    def staged(
        self, source: int, target: int
    ) -> Tuple[float, bool, Optional[SearchStats]]:
        """Algorithm 1 for one covered pair: ``(distance, used_search, stats)``.

        Equation 1, the seeds, then the table reduction or the CSR
        bidirectional Dijkstra.  ``used_search`` is False when a side has
        no ``G_k`` seed (Equation 1 alone is exact); ``stats`` are the CSR
        search's counters (``None`` on the table stage).  With the compiled
        module, :func:`repro.core.kernels.staged` runs all of it in one call
        from the two vertex ids; otherwise :meth:`eq1`, the pre-extracted
        seeds and :meth:`search_distance` (or the CSR search) run here.
        :meth:`repro.core.index.ISLabelIndex.query` reads its Table 4/5
        fields from this body.  Vertex coverage and I/O accounting belong
        to the index facade.
        """
        if kernels.BACKEND == "c":
            distance, used_search, counts = kernels.staged(
                self._compiled or self._compile(), source, target, self
            )
            return distance, used_search, None if counts is None else SearchStats(*counts)
        if source == target:
            return 0, False, None
        if not self.frozen:
            self.freeze()
        table = self._apsp is not None
        mu0, _ = self.eq1(source, target)
        seeds_f = self._seeds_of(0, source)
        seeds_r = self._seeds_of(1, target)
        if not len(seeds_f[0]) or not len(seeds_r[0]):
            return mu0, False, None
        if table:
            return self.search_distance(seeds_f, seeds_r, mu0), True, None
        forward, reverse = self._search_arrays(False)
        distance, _, stats = csr_label_bidijkstra(
            *forward,
            _as_lists(seeds_f),
            _as_lists(seeds_r),
            self.pool,
            self.csr.num_vertices,
            initial_mu=mu0,
            indptr_r=reverse[0],
            indices_r=reverse[1],
            weights_r=reverse[2],
        )
        return distance, True, stats

    def distance(self, source: int, target: int) -> float:
        """Exact distance between two covered vertices: one compiled call
        (:func:`repro.core.kernels.query`), else :meth:`staged`'s."""
        if kernels.BACKEND != "c":
            return self.staged(source, target)[0]
        return kernels.query(self._compiled or self._compile(), source, target, self)

    def distances(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        """Batch :meth:`distance`.

        With the compiled module, :func:`repro.core.kernels.query_batch`
        answers the whole batch in one call over its two vertex arrays.
        Otherwise stage 1 runs :func:`batch_eq1` once over the stacked label
        arrays (one ``searchsorted``, one scatter-min); in table mode stage
        2 vectorizes across the batch too (:func:`batch_table_stage`), and
        in CSR mode it reuses the thread's pooled search buffers across
        every remaining pair.
        """
        pairs = list(pairs)
        if kernels.BACKEND == "c":
            return kernels.query_batch(self._compiled or self._compile(), pairs, self)
        if not self.frozen:
            self.freeze()
        out: List[float] = [0] * len(pairs)
        live = [i for i, (s, t) in enumerate(pairs) if s != t]
        if not live:
            return out
        if len(live) == 1:
            # The vectorized stages' fixed numpy cost is ~3x the scalar path.
            i = live[0]
            distance = self.staged(*pairs[i])[0]
            out[i] = int(distance) if distance != math.inf else math.inf
            return out
        labels_f = [self._label_of(0, pairs[i][0]) for i in live]
        labels_r = [self._label_of(1, pairs[i][1]) for i in live]
        mu0s = batch_eq1(labels_f, labels_r)
        if self._apsp is not None:
            seeds_f = [self._seeds_of(0, pairs[i][0]) for i in live]
            seeds_r = [self._seeds_of(1, pairs[i][1]) for i in live]
            # Seed-locality sort: order the batch by each query's first
            # forward-seed row so lazy APSP row fills (and the flat gather)
            # touch table rows in ascending, clustered order instead of
            # input order.  Answers are scattered back to input positions.
            order = sorted(
                range(len(live)),
                key=lambda j: int(seeds_f[j][0][0]) if len(seeds_f[j][0]) else -1,
            )
            answers = batch_table_stage(
                self._apsp,
                self._apsp_done,
                self._fill_apsp_row,
                [seeds_f[j] for j in order],
                [seeds_r[j] for j in order],
                mu0s[order],
            )
            for pos, j in enumerate(order):
                out[live[j]] = answers[pos]
            return out
        forward, reverse = self._search_arrays(False)
        n_gk = self.csr.num_vertices
        pool = self.pool
        for j, i in enumerate(live):
            s, t = pairs[i]
            mu0 = float(mu0s[j])
            sf = _as_lists(self._seeds_of(0, s))
            sr = _as_lists(self._seeds_of(1, t))
            if not len(sf[0]) or not len(sr[0]):
                out[i] = int(mu0) if mu0 != math.inf else mu0
                continue
            distance, _, _ = csr_label_bidijkstra(
                *forward,
                sf,
                sr,
                pool,
                n_gk,
                initial_mu=mu0,
                indptr_r=reverse[0],
                indices_r=reverse[1],
                weights_r=reverse[2],
            )
            out[i] = int(distance) if distance != math.inf else distance
        return out


class FastEngine(PackedEngineBase):
    """Frozen array-native query structures of one built IS-LABEL index.

    The undirected ``"fast"`` implementation of the
    :class:`repro.core.engines.QueryEngine` protocol.  Holds the
    :class:`CSRGraph` of ``G_k`` (plus flat Python-list mirrors of
    ``indptr/indices/weights`` for the scalar search loop), the packed
    label arrays, each label's pre-extracted ``G_k`` seeds in dense ids,
    a :class:`LabelArrayPool` per querying thread, and — for small ``G_k``
    — the lazy all-pairs ``G_k`` distance table.

    Construction is **lazy**: ``__init__`` only records the inputs, and the
    first query (or an explicit :meth:`freeze`) builds the CSR view, packs
    the labels and extracts the seeds in one vectorized batch.  Index build
    time therefore pays nothing for the engine; a serving workload absorbs
    one ~milliseconds-scale warm-up on its first query, which the batch
    benchmark amortizes away entirely.
    """

    __slots__ = (
        "gk",
        "csr",
        "entry_lists",
        "table",
        "_pools",
        "indptr",
        "indices",
        "weights",
        "frozen",
        "apsp_max_gk",
        "incremental_max_fraction",
        "_prebuilt",
        "_apsp",
        "_apsp_done",
        "_compiled",
    )

    def __init__(
        self,
        gk: Graph,
        entry_lists: Dict[int, List[Tuple[int, int]]],
        arrays: Optional[Dict[int, ArrayLabel]] = None,
        apsp_budget_bytes: Optional[int] = None,
    ) -> None:
        self.gk = gk
        self.entry_lists = entry_lists
        self._prebuilt: Dict[int, ArrayLabel] = arrays or {}
        self._pools = _ThreadPools()
        self.frozen = False
        #: Keep an all-pairs ``G_k`` distance table when ``|V_Gk|`` is at
        #: most this; derived from the memory budget (constructor arg, the
        #: :data:`APSP_BUDGET_ENV` variable, or the 32 MB default — the
        #: default works out to the 2048-vertex ceiling of PR 1).  Above
        #: it, the search stage runs the CSR bidirectional Dijkstra.
        self.apsp_max_gk = apsp_ceiling(apsp_budget_bytes)
        #: Dirty-set fraction above which ``invalidate(dirty=...)`` falls
        #: back to a full re-freeze; ``<= 0`` disables the incremental path.
        self.incremental_max_fraction = self.INCREMENTAL_MAX_FRACTION
        self.csr: Optional[CSRGraph] = None
        self.indptr: List[int] = []
        self.indices: List[int] = []
        self.weights: List[int] = []
        self.table: Optional[LabelTable] = None
        self._apsp: Optional[np.ndarray] = None
        self._apsp_done: Optional[np.ndarray] = None
        self._compiled: Optional[kernels.EngineRecord] = None

    # ------------------------------------------------------------------
    # Freezing: CSR view, packed labels, seed extraction (first use)
    # ------------------------------------------------------------------
    def freeze(self) -> "FastEngine":
        """Materialize the array structures (idempotent; see class docs)."""
        if self.frozen:
            return self
        self.frozen = True
        self._rebuild_csr()
        self.table = LabelTable.from_flat(
            pack_entry_lists(self.entry_lists, self._prebuilt, self.csr.ids_array)
        )
        self._prebuilt = {}
        n = self.csr.num_vertices
        if 0 < n <= self.apsp_max_gk:
            self._apsp = np.full((n, n), np.inf)
            self._apsp_done = np.zeros(n, dtype=bool)
        return self

    def _drop_frozen(self) -> None:
        """Full invalidation: drop the frozen structures and any pre-merged
        arrays; the next query re-freezes from the current entry lists."""
        self.frozen = False
        self.csr = None
        self.indptr = []
        self.indices = []
        self.weights = []
        self.table = None
        self._prebuilt = {}
        self._apsp = None
        self._apsp_done = None
        self._compiled = None

    # Backwards-compatible view of the frozen table (tests and debugging).
    @property
    def labels(self) -> Dict[int, ArrayLabel]:
        return label_views(self.table) if self.table is not None else {}

    def _forget_packed(self, dirty) -> None:
        """Pre-freeze invalidation: only the pre-merged arrays can be stale."""
        for v in dirty:
            self._prebuilt.pop(v, None)

    def _num_labels(self) -> int:
        return len(self.entry_lists)

    def _rebuild_csr(self) -> None:
        self.csr = CSRGraph(self.gk)
        self.indptr = self.csr.indptr.tolist()
        self.indices = self.csr.indices.tolist()
        self.weights = self.csr.weights.tolist()

    def _repack(self, dirty, gk_ids) -> None:
        self.table.repack(dirty, self.entry_lists, gk_ids)

    def _label_tables(self) -> tuple:
        return self.table, self.table

    def _backward_row(self, dx: int) -> np.ndarray:
        # Undirected G_k: distances are symmetric, reuse the forward row.
        return self._apsp[dx]

    # ------------------------------------------------------------------
    # Labels and seeds
    # ------------------------------------------------------------------
    def label(self, v: int) -> ArrayLabel:
        """Array label of ``v`` (implicit ``([v], [0])`` for bare G_k ids)."""
        return self._label_of(0, v)

    def seeds(self, v: int) -> Tuple[List[int], List[int]]:
        """Dense-id Algorithm-1 seeds of ``label(v)`` (pre-extracted)."""
        return _as_lists(self._seeds_of(0, v))

    def seeds_np(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """The seeds as numpy arrays (for the APSP reduction)."""
        return self._seeds_of(0, v)

    # PackedEngineBase hooks: on an undirected graph both query sides read
    # the same labels and one adjacency serves both searches.
    def _entry_lists(self) -> tuple:
        return self.entry_lists, self.entry_lists

    def _search_arrays(self, native: bool):
        arrays = self.csr if native else self
        return (arrays.indptr, arrays.indices, arrays.weights), (None, None, None)

    def nbytes(self) -> int:
        """Approximate footprint of the CSR arrays plus packed labels."""
        if not self.frozen:
            self.freeze()
        total = self.csr.nbytes() + self.table.nbytes()
        if self._apsp is not None:
            total += int(self._apsp.nbytes)
        return total


register_engine(UNDIRECTED, FastEngine.name, FastEngine, {CAP_LOCAL})
