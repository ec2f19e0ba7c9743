"""Vertex labeling — Definition 3 and Algorithm 4 (§4.2, §6.1.4).

Three implementations of the same mathematical object:

* :func:`definition3_label` — the recursive marking procedure of
  Definition 3, labeling one vertex at a time.  Quadratic-ish and only used
  as a reference oracle in tests (the paper makes the same point: "such a
  procedure ... involves much redundant processing").
* :func:`top_down_labels` — Algorithm 4 driven by Corollary 1:
  process levels from ``k-1`` down to ``1``; a vertex's label is the
  min-merge of its (already finished) higher-level neighbours' labels,
  shifted by the connecting edge weights.
* :func:`external_top_down_labels` — the I/O-efficient block nested-loop
  join version of Algorithm 4, for labels that exceed main memory.

A fourth implementation, :func:`repro.core.fastlabels.fast_top_down_labels`,
runs the same top-down pass with a sorted-array k-way min-merge for large
labels; the fast engine (``ISLabelIndex.build(engine="fast")``) uses it.

All three produce, for every vertex, a dict ``{ancestor: d(v, ancestor)}``
where ``d`` upper-bounds the true distance and is exact for the max-level
vertex of any shortest path (Lemma 5).  When ``with_preds`` is requested the
top-down labeler also returns, per entry, the *predecessor* neighbour the
minimum routed through (``None`` for the self entry and for entries realised
by a direct edge) — the §8.1 bookkeeping for path reconstruction.
"""

from __future__ import annotations

import heapq
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.hierarchy import VertexHierarchy
from repro.core.labels import merge_neighbor_labels
from repro.errors import IndexBuildError
from repro.extmem.blockdev import BlockDevice
from repro.extmem.iomodel import IOStats

__all__ = [
    "definition3_label",
    "top_down_labels",
    "external_top_down_labels",
    "LabelMap",
    "PredMap",
]

#: ``labels[v][w] = d(v, w)`` for every ancestor ``w`` of ``v``.
LabelMap = Dict[int, Dict[int, int]]

#: ``preds[v][w]`` = neighbour ``u`` whose label supplied the minimal
#: ``d(v, w)``; ``None`` when the entry is the self entry or a direct edge.
PredMap = Dict[int, Dict[int, Optional[int]]]


def definition3_label(hierarchy: VertexHierarchy, v: int) -> Dict[int, int]:
    """Compute ``label(v)`` exactly as Definition 3 prescribes.

    A marked vertex of minimum level is repeatedly unmarked and its
    higher-level neighbours relaxed.  Levels only grow along expansions, so
    each vertex is processed once; a lazy heap keyed by level implements
    "take a marked vertex with the smallest level number".
    """
    dist: Dict[int, int] = {v: 0}
    done: set = set()
    heap: List[Tuple[int, int]] = [(hierarchy.level(v), v)]
    while heap:
        level_u, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if level_u >= hierarchy.k:
            continue  # G_k vertices have no higher-level neighbours
        for w, weight in hierarchy.removal_adjacency(u):
            candidate = dist[u] + weight
            if w not in dist:
                dist[w] = candidate
                heapq.heappush(heap, (hierarchy.level(w), w))
            elif candidate < dist[w]:
                dist[w] = candidate
                if w not in done:
                    heapq.heappush(heap, (hierarchy.level(w), w))
    return dist


def top_down_labels(
    hierarchy: VertexHierarchy,
    with_preds: bool = False,
) -> Tuple[LabelMap, Optional[PredMap]]:
    """Algorithm 4 (in-memory): label every vertex top-down.

    Returns ``(labels, preds)``; ``preds`` is ``None`` unless requested.
    """
    labels: LabelMap = {}
    preds: Optional[PredMap] = {} if with_preds else None

    # Initialization: G_k vertices are their own single ancestor.
    for v in hierarchy.gk.vertices():
        labels[v] = {v: 0}
        if preds is not None:
            preds[v] = {v: None}

    # Top-down: level k-1 down to 1.  A level-i vertex's neighbours at
    # removal time all have level > i, so their labels are complete.
    for i in range(hierarchy.k - 1, 0, -1):
        for v in hierarchy.level_vertices(i):
            label_v, pred_v = merge_neighbor_labels(
                v, hierarchy.removal_adjacency(v), labels, with_preds
            )
            labels[v] = label_v
            if preds is not None:
                preds[v] = pred_v
    return labels, preds


# ----------------------------------------------------------------------
# External Algorithm 4: block nested-loop join over disk-resident labels
# ----------------------------------------------------------------------
_LAB_HEADER = struct.Struct("<qI")  # vertex, entry count
_LAB_ENTRY = struct.Struct("<qq")  # ancestor, distance


def _pack_label(vertex: int, label: Dict[int, int]) -> bytes:
    parts = [_LAB_HEADER.pack(vertex, len(label))]
    parts += [_LAB_ENTRY.pack(w, d) for w, d in sorted(label.items())]
    return b"".join(parts)


def _unpack_label(record: bytes) -> Tuple[int, Dict[int, int]]:
    vertex, count = _LAB_HEADER.unpack_from(record, 0)
    label = {}
    offset = _LAB_HEADER.size
    for _ in range(count):
        w, d = _LAB_ENTRY.unpack_from(record, offset)
        label[w] = d
        offset += _LAB_ENTRY.size
    return vertex, label


def external_top_down_labels(
    hierarchy: VertexHierarchy,
    device: Optional[BlockDevice] = None,
    block_vertices: Optional[int] = None,
) -> Tuple[LabelMap, IOStats]:
    """Algorithm 4 with the paper's block nested-loop join (§6.1.4).

    Labels of each level live in a disk file.  To label level ``i``, blocks
    of level-``i`` labels (``B_L``) are held in memory while the upper-level
    label file (``B_U``) is scanned once per block; whenever a scanned label
    belongs to a vertex present in a buffered label, it is merged in — the
    literal lines 8–17 of Algorithm 4, including the merging of *indirect*
    ancestors, which is redundant but harmless (their d-values are already
    minimal via direct neighbours; see docs/ARCHITECTURE.md).

    Parameters
    ----------
    hierarchy:
        A built vertex hierarchy.
    device:
        Block device for the label files (a private one by default).
    block_vertices:
        How many level-``i`` labels fit in the ``B_L`` buffer at once —
        the ``b_L(i)/M`` knob of the I/O analysis.  Defaults to the number
        of label headers fitting in half the cost model's memory.

    Returns
    -------
    (labels, stats):
        The complete label map (also left on the device, one file per
        level) and the I/O counters accumulated while joining.
    """
    device = device or BlockDevice()
    if block_vertices is None:
        block_vertices = max(1, device.cost_model.memory // (2 * 64))

    # Initialization (lines 1-4): the top-level label file starts with the
    # single-entry labels of the G_k vertices.
    upper = device.create("labels_upper")
    for v in hierarchy.gk.sorted_vertices():
        upper.append(_pack_label(v, {v: 0}))
    upper.close()

    labels: LabelMap = {v: {v: 0} for v in hierarchy.gk.vertices()}
    snapshot = device.stats.snapshot()

    for i in range(hierarchy.k - 1, 0, -1):
        level_vertices = hierarchy.level_vertices(i)
        finished_rows: List[bytes] = []
        # Process B_L one buffer-load at a time (lines 8-17).
        for start in range(0, len(level_vertices), block_vertices):
            chunk = level_vertices[start : start + block_vertices]
            buffered: Dict[int, Dict[int, int]] = {}
            for v in chunk:
                init = {v: 0}
                for u, w in hierarchy.removal_adjacency(v):
                    init[u] = w
                buffered[v] = init
            # One full scan of B_U per buffer-load.
            for record in upper.records():
                u, label_u = _unpack_label(record)
                for v, label_v in buffered.items():
                    dvu = label_v.get(u)
                    if dvu is None:
                        continue
                    for w, duw in label_u.items():
                        candidate = dvu + duw
                        old = label_v.get(w)
                        if old is None or candidate < old:
                            label_v[w] = candidate
            for v in chunk:
                labels[v] = buffered[v]
                finished_rows.append(_pack_label(v, buffered[v]))
        # The finished level joins B_U for the next (lower) level.
        merged = device.create(f"labels_down_to_{i}")
        for record in upper.records():
            merged.append(record)
        for row in finished_rows:
            merged.append(row)
        merged.close()
        device.delete(upper.name)
        upper = merged

    return labels, device.stats.delta_since(snapshot)
