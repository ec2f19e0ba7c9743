"""Persisting built indexes to real files and back: one format, the snapshot.

An IS-LABEL index is its vertex labels plus ``G_k``.  :func:`save_snapshot`
writes exactly that as the zero-copy snapshot of :mod:`repro.core.snapshot`
— raw aligned dumps of the frozen engine arrays (packed labels with their
pre-extracted seeds, the ``G_k`` CSR arrays, the optional all-pairs table)
plus the facade's coverage metadata (vertex levels, ``k``, ``sigma``, the
size trace).  Two optional section sets ride in the same file, written
only when the index holds that state:

* **path state** (§8.1, ``with_paths``): one ``int64`` predecessor array
  per label table (``lab_pred``, or ``out_pred``/``in_pred``), aligned
  with that table's unsharded flat ``anc`` order (``_NO_PRED`` stands for
  "the entry is an edge"), plus the augmenting-edge hints as
  ``hint_u``/``hint_w``/``hint_mid``;
* **§8.3 dynamic state**: the live graph (``graph_ids`` plus the
  ``graph_u``/``graph_v``/``graph_w`` edge arrays — undirected edges once
  each, directed arcs as they are) and a ``dynamic`` meta entry with the
  update counters, the ``approximate`` flag and the JSON-safe build
  kwargs.

Per-level removal adjacency is not stored: after a build nothing reads it
(per-level counts come from the coverage levels; §8.3 deletions only pop
from it).  Indexes built in disk-storage mode reload in memory mode — the
label *contents* are identical; the simulated store is a cost model, not
state.

:func:`load_index` / :func:`load_directed_index` serve any snapshot: pass
``engine="mmap"`` (or ``"sharded"``) to serve it straight from the page
cache with no per-entry parsing.  :func:`load_dynamic_index` and its
directed twin materialize mutable labels, ``G_k`` and the level map and
resume §8.3 maintenance where the saved index left off.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.core.directed import DirectedHierarchy, DirectedISLabelIndex
from repro.core.engines import CACHED_PREFIX, DIRECTED, UNDIRECTED, resolve_engine
from repro.core.fastdirected import DirectedFastEngine
from repro.core.fastlabels import FastEngine, PackedEngineBase
from repro.core.hierarchy import VertexHierarchy
from repro.core.index import ISLabelIndex
from repro.core.snapshot import (
    KIND_DIRECTED,
    KIND_UNDIRECTED,
    DirectedMmapEngine,
    DirectedShardedEngine,
    MmapEngine,
    ShardedEngine,
    Snapshot,
    SnapshotLabels,
    open_snapshot,
    write_snapshot,
)
from repro.core.updates import DynamicDirectedISLabelIndex, DynamicISLabelIndex
from repro.errors import StorageError

# Imported for its registration side effect: the serving layer registers
# the "remote" engine for both orientations, so load_index(...,
# engine="remote") and the CLI --engine choices see it whenever the
# library is importable.  (repro.serving deliberately avoids importing
# this module back; repro.serving.server does, but only at call time.)
import repro.serving  # noqa: F401  (registration side effect)
from repro.extmem.iomodel import CostModel
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph

__all__ = [
    "load_index",
    "is_directed_artifact",
    "load_directed_index",
    "save_snapshot",
    "load_dynamic_index",
    "load_dynamic_directed_index",
]

#: Predecessor sentinel for a label entry that is itself an edge (``None``).
_NO_PRED = -(2 ** 62)

PathLike = Union[str, Path]


def is_directed_artifact(path) -> bool:
    """True when ``path`` holds a *directed* snapshot (file or directory).

    The one place the directed/undirected sniff lives; the CLI and the
    serving layer both route through it.
    """
    return open_snapshot(path).kind == KIND_DIRECTED


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def save_snapshot(
    index: Union[
        ISLabelIndex,
        DirectedISLabelIndex,
        DynamicISLabelIndex,
        DynamicDirectedISLabelIndex,
    ],
    path: PathLike,
    shards: int = 1,
    checksum: bool = False,
) -> int:
    """Write ``index`` as a snapshot; returns bytes written.

    The snapshot holds the *frozen engine state* — packed label arrays
    with their pre-extracted seeds, the ``G_k`` CSR arrays and the
    optional all-pairs table — plus the coverage metadata the facade needs
    (vertex levels, ``k``, ``sigma``, the size trace).  ``shards=1``
    writes one file; ``shards > 1`` writes a directory of vertex-id-range
    label shards around a small shared file, the layout the ``"sharded"``
    engine serves.  Load with :func:`load_index` /
    :func:`load_directed_index` (any engine, ``"mmap"``/``"sharded"``
    zero-copy).

    Works for any attached engine: a :class:`PackedEngineBase` engine is
    snapshotted directly (frozen first if needed); a dict-engine index is
    packed through a transient fast engine.  A ``with_paths`` index also
    writes its path sections, and a :class:`DynamicISLabelIndex` /
    :class:`DynamicDirectedISLabelIndex` its live graph and update state
    (reload it with :func:`load_dynamic_index` / its directed twin).

    ``checksum=True`` adds a CRC32 per snapshot section, verified lazily
    on the section's first map; corruption then loads as a loud
    :class:`StorageError` naming the section and file.
    """
    dyn = None
    if isinstance(index, (DynamicISLabelIndex, DynamicDirectedISLabelIndex)):
        dyn, index = index, index.index
    directed = isinstance(index, DirectedISLabelIndex)
    engine = index._fast
    if not isinstance(engine, PackedEngineBase):
        if directed:
            engine = DirectedFastEngine(
                index.gk, index._out_labels, index._in_labels
            )
        else:
            engine = FastEngine(index.gk, index._labels)
    hierarchy = index.hierarchy
    cov_keys = np.array(sorted(hierarchy.level_of), dtype=np.int64)
    cov_levels = np.array(
        [hierarchy.level_of[int(v)] for v in cov_keys], dtype=np.int64
    )
    sections = {"cov_keys": cov_keys, "cov_levels": cov_levels}
    meta = {
        "k": hierarchy.k,
        "sigma": hierarchy.sigma,
        "sizes": list(hierarchy.sizes),
    }
    if hierarchy.hints is not None:
        sections.update(_path_sections(index, engine))
    if dyn is not None:
        sections.update(_graph_sections(dyn.graph))
        meta["dynamic"] = {
            "inserts": dyn.inserts_applied,
            "deletes": dyn.deletes_applied,
            "approximate": dyn.approximate,
            "build_kwargs": _json_safe(dyn._build_kwargs),
        }
    return write_snapshot(
        os.fspath(path),
        engine,
        extra_sections=sections,
        meta=meta,
        shards=shards,
        checksum=checksum,
    )


def _path_sections(index, engine) -> Dict[str, np.ndarray]:
    """The §8.1 sections: per-table predecessors and the edge hints."""
    engine.freeze()
    if isinstance(index, DirectedISLabelIndex):
        tables = (
            ("out", engine.out_table, index._out_preds),
            ("in", engine.in_table, index._in_preds),
        )
    else:
        tables = (("lab", engine.table, index._preds),)
    sections: Dict[str, np.ndarray] = {}
    for prefix, table, preds in tables:
        flat = table.to_flat()
        owners = np.repeat(flat.keys, np.diff(flat.indptr)).tolist()
        pred = [preds[v][a] for v, a in zip(owners, flat.anc.tolist())]
        sections[f"{prefix}_pred"] = np.array(
            [_NO_PRED if p is None else p for p in pred], dtype=np.int64
        )
    hints = index.hierarchy.hints
    sections["hint_u"] = np.array([u for u, _ in hints], dtype=np.int64)
    sections["hint_w"] = np.array([w for _, w in hints], dtype=np.int64)
    sections["hint_mid"] = np.array(list(hints.values()), dtype=np.int64)
    return sections


def _graph_sections(graph) -> Dict[str, np.ndarray]:
    """The live graph: sorted vertex ids plus parallel edge arrays."""
    edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 3)
    return {
        "graph_ids": np.array(sorted(graph.vertices()), dtype=np.int64),
        "graph_u": edges[:, 0].copy(),
        "graph_v": edges[:, 1].copy(),
        "graph_w": edges[:, 2].copy(),
    }


def _json_safe(kwargs: Dict) -> Dict:
    """The build kwargs a ``rebuild()`` must reproduce, minus values JSON
    cannot hold (e.g. a custom ``cost_model`` — those revert to defaults
    on load)."""
    safe = {}
    for key, value in kwargs.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            continue
        safe[key] = value
    return safe


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def load_index(
    path: PathLike,
    cost_model: Optional[CostModel] = None,
    engine: str = "fast",
) -> ISLabelIndex:
    """Load an undirected snapshot written by :func:`save_snapshot`.

    ``engine`` selects the query backend of the loaded index, matching
    :meth:`ISLabelIndex.build`: ``"fast"`` (default) re-packs the labels
    and ``G_k`` into the array/CSR engine, ``"dict"`` keeps the reference
    structures only, and ``"mmap"`` / ``"sharded"`` serve the snapshot
    zero-copy straight from the mapped sections.  Names resolve through
    the shared engine registry (:mod:`repro.core.engines`).  A dynamic
    snapshot loads as its static view; path sections, when present,
    restore :class:`~repro.core.paths.PathReconstructor` support.
    """
    snap = _open(path, KIND_UNDIRECTED)
    hierarchy = _snapshot_hierarchy(snap, path, VertexHierarchy)
    index = ISLabelIndex(
        hierarchy=hierarchy,
        labels=SnapshotLabels(snap.label_table("lab")),
        preds=_snapshot_preds(snap, "lab"),
        store=None,
        cost_model=cost_model or CostModel(),
        labeling_seconds=0.0,
    )
    _attach_snapshot_engine(index, UNDIRECTED, engine, path, hierarchy.gk)
    return index


def load_directed_index(
    path: PathLike, engine: str = "fast"
) -> DirectedISLabelIndex:
    """Load a directed snapshot (mirrors :func:`load_index`)."""
    snap = _open(path, KIND_DIRECTED)
    hierarchy = _snapshot_hierarchy(snap, path, DirectedHierarchy)
    index = DirectedISLabelIndex(
        hierarchy=hierarchy,
        out_labels=SnapshotLabels(snap.label_table("out")),
        in_labels=SnapshotLabels(snap.label_table("in")),
        labeling_seconds=0.0,
        out_preds=_snapshot_preds(snap, "out"),
        in_preds=_snapshot_preds(snap, "in"),
    )
    _attach_snapshot_engine(index, DIRECTED, engine, path, hierarchy.gk)
    return index


def load_dynamic_index(
    path: PathLike,
    cost_model: Optional[CostModel] = None,
    engine: str = "fast",
) -> DynamicISLabelIndex:
    """Load a dynamic index saved by :func:`save_snapshot`.

    The restored index resumes exactly where it left off: patched labels,
    staleness counters, the ``approximate`` flag *and the original build
    parameters* (``k``/``sigma``/``full``/... — so a later ``rebuild()``
    reproduces the saved configuration) survive.  The selected ``engine``
    (resolved through the registry, ``"fast"`` by default) serves queries,
    keeps absorbing §8.3 updates, and is what future rebuilds use.  A
    snapshot without dynamic state raises :class:`StorageError`.
    """
    snap = _open(path, KIND_UNDIRECTED, dynamic=True)
    index = ISLabelIndex(
        hierarchy=_snapshot_hierarchy(snap, path, VertexHierarchy),
        labels=dict(SnapshotLabels(snap.label_table("lab"))),
        preds=None,
        store=None,
        cost_model=cost_model or CostModel(),
        labeling_seconds=0.0,
    )
    return _resume(DynamicISLabelIndex, snap, index, Graph(), engine)


def load_dynamic_directed_index(
    path: PathLike, engine: str = "fast"
) -> DynamicDirectedISLabelIndex:
    """Load a dynamic directed index (mirrors :func:`load_dynamic_index`)."""
    snap = _open(path, KIND_DIRECTED, dynamic=True)
    index = DirectedISLabelIndex(
        hierarchy=_snapshot_hierarchy(snap, path, DirectedHierarchy),
        out_labels=dict(SnapshotLabels(snap.label_table("out"))),
        in_labels=dict(SnapshotLabels(snap.label_table("in"))),
        labeling_seconds=0.0,
    )
    return _resume(DynamicDirectedISLabelIndex, snap, index, DiGraph(), engine)


def _open(path: PathLike, kind: int, dynamic: bool = False) -> Snapshot:
    snap = open_snapshot(path)
    if snap.kind != kind:
        if snap.kind == KIND_DIRECTED:
            raise StorageError(f"{path}: directed snapshot; use load_directed_index")
        raise StorageError(f"{path}: undirected snapshot; use load_index")
    if dynamic and "dynamic" not in snap.meta:
        raise StorageError(
            f"{path}: snapshot holds no dynamic state; serve it with "
            "load_index / load_directed_index"
        )
    return snap


def _snapshot_hierarchy(snap: Snapshot, path: PathLike, cls):
    """The facade's hierarchy: ``G_k``, levels, size trace, hints.

    Removal adjacency is not stored, so ``levels`` holds ``k - 1`` empty
    maps; per-level counts come from ``level_of``.
    """
    k = int(snap.meta.get("k", 1))
    shared = snap.shared
    hints = None
    if shared.has("hint_mid"):
        keys = zip(shared.array("hint_u").tolist(), shared.array("hint_w").tolist())
        hints = dict(zip(keys, shared.array("hint_mid").tolist()))
    coverage = snap.coverage()
    if coverage is None:
        raise StorageError(
            f"{path}: snapshot has no coverage sections (engine-internal "
            "spill?); re-create it with save_snapshot"
        )
    keys, levels = coverage
    return cls(
        levels=[{} for _ in range(max(k - 1, 0))],
        gk=snap.gk_graph(),
        level_of=dict(zip(keys.tolist(), levels.tolist())),
        sizes=list(snap.meta.get("sizes") or []),
        sigma=snap.meta.get("sigma"),
        hints=hints,
    )


def _snapshot_preds(snap: Snapshot, prefix: str):
    """``{vertex: {ancestor: predecessor}}`` of one table, if saved."""
    name = f"{prefix}_pred"
    if not snap.shared.has(name):
        return None
    flat = snap.label_table(prefix).to_flat()
    pred = snap.shared.array(name).tolist()
    if len(pred) != len(flat.anc):
        raise StorageError(
            f"{snap.path}: section {name!r} has {len(pred)} entries, "
            f"its label table {len(flat.anc)}"
        )
    owners = np.repeat(flat.keys, np.diff(flat.indptr)).tolist()
    preds: Dict[int, Dict[int, Optional[int]]] = {
        v: {} for v in flat.keys.tolist()
    }
    for v, a, p in zip(owners, flat.anc.tolist(), pred):
        preds[v][a] = None if p == _NO_PRED else p
    return preds


def _resume(cls, snap: Snapshot, index, graph, engine: str):
    """Rebuild the live graph and hand everything to ``cls.from_parts``."""
    state = snap.meta["dynamic"]
    shared = snap.shared
    for v in shared.array("graph_ids").tolist():
        graph.add_vertex(v)
    for u, v, w in zip(
        shared.array("graph_u").tolist(),
        shared.array("graph_v").tolist(),
        shared.array("graph_w").tolist(),
    ):
        graph.add_edge(u, v, w)
    index.attach_fast_engine(engine)
    build_kwargs = dict(state["build_kwargs"])
    build_kwargs["engine"] = engine
    return cls.from_parts(
        graph,
        index,
        inserts_applied=int(state["inserts"]),
        deletes_applied=int(state["deletes"]),
        approximate=bool(state["approximate"]),
        build_kwargs=build_kwargs,
    )


def _attach_snapshot_engine(index, kind: str, engine: str, path, gk) -> None:
    """Attach the requested backend to a snapshot-loaded facade."""
    factory = resolve_engine(kind, engine)  # validates the name
    if engine.startswith(CACHED_PREFIX):
        # Attach the base engine by recursion, then decorate whatever it
        # produced — the cached tier is orthogonal to how labels load.
        from repro.caching.engine import CachedEngine, cache_entries_from_env
        from repro.caching.engine import cache_ttl_from_env

        base = engine[len(CACHED_PREFIX) :]
        _attach_snapshot_engine(index, kind, base, path, gk)
        # A remote inner serves a fleet whose index can drift away from
        # this client's static snapshot G_k — the invalidation token
        # would never see the delta, so hand it no G_k at all and every
        # dirty invalidation degrades to the (sound) full flush.
        index._fast = CachedEngine(
            index._fast,
            gk=None if base == "remote" else gk,
            directed=(kind == DIRECTED),
            max_entries=cache_entries_from_env(),
            ttl_s=cache_ttl_from_env(),
        )
    elif engine == "mmap":
        cls = MmapEngine if kind == UNDIRECTED else DirectedMmapEngine
        index._fast = cls.from_snapshot(gk, os.fspath(path))
    elif engine == "sharded":
        cls = ShardedEngine if kind == UNDIRECTED else DirectedShardedEngine
        index._fast = cls.from_snapshot(gk, os.fspath(path))
    elif factory is not None:
        # Heap engines re-pack from the (lazily materialized) label view.
        index.attach_fast_engine(engine)
