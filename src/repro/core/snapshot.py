"""Zero-copy label snapshots and the mmap/sharded serving engines.

The labels of a built IS-LABEL index are static after construction
(§4–§6) — exactly the shape that serves heavy read traffic well.  This
module defines the one on-disk index format (written through
:func:`repro.core.serialization.save_snapshot`): a **snapshot** that is
nothing but a header, a JSON table of contents and 64-byte-aligned raw
dumps of the arrays a frozen
:class:`~repro.core.fastlabels.PackedEngineBase` already holds —
the packed ``int64`` label buffers (keys/indptr/ancestors/distances plus
the pre-extracted seed arrays; out/in twins for directed), the frozen
``G_k`` CSR arrays, and the optional all-pairs table.  Loading is
``np.memmap`` per section: no per-entry parsing, page-cache sharing across
processes, and labels fault in lazily as queries touch them.

Two serving engines adopt snapshots through the same
:class:`~repro.core.fastlabels.LabelTable` view struct the heap engines
use (heap-packed or mmap-backed are one code path):

* ``"mmap"`` — single-file snapshot, every section a lazily faulted
  memmap.  The all-pairs table maps copy-on-write (``mode="c"``), so each
  process can keep filling rows privately while clean pages stay shared.
* ``"sharded"`` — a snapshot *directory*: vertex-id-range shards of the
  label arrays in separate files plus one small shared file holding the
  replicated ``G_k``/table sections.  A worker process only maps (and
  faults) the shard files its queries route to; Equation 1 is answered by
  routing the query's two label slices to the owning shards.

Both engines also work without a snapshot on disk: constructed from live
entry lists (``ISLabelIndex.build(..., engine="mmap")``) they heap-freeze,
spill a temporary snapshot, and re-adopt it — which is exactly the
save→serve roundtrip, and what the cross-engine property suites exercise.

See ``docs/ARCHITECTURE.md`` for the byte-level layout and versioning
rules.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import struct
import tempfile
import zlib
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.engines import (
    CAP_LOCAL,
    CAP_SHARDED,
    CAP_SNAPSHOT,
    DIRECTED,
    UNDIRECTED,
    register_engine,
)
from repro.core.fastdirected import DirectedFastEngine
from repro.core.fastlabels import FastEngine, FlatLabels, LabelTable, concat_flat
from repro.errors import StorageError
from repro.graph.csr import CSRDiGraph, CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "MANIFEST_NAME",
    "KIND_UNDIRECTED",
    "KIND_DIRECTED",
    "is_snapshot_path",
    "write_snapshot",
    "open_snapshot",
    "Snapshot",
    "SnapshotLabels",
    "ShardedLabelTable",
    "MmapEngine",
    "ShardedEngine",
    "DirectedMmapEngine",
    "DirectedShardedEngine",
]

SNAPSHOT_MAGIC = b"ISNP"
SNAPSHOT_VERSION = 1
#: File inside a sharded snapshot directory naming the shard layout.
MANIFEST_NAME = "manifest.json"

KIND_UNDIRECTED = 0
KIND_DIRECTED = 1

#: Every section's byte offset is a multiple of this (covers any SIMD/page
#: alignment an mmap consumer could want; int64/float64 need only 8).
_ALIGN = 64

#: magic, version, kind, flags, toc offset, toc length.
_HEADER = struct.Struct("<4sHBBqq")

#: The seven flat arrays of one label table, in serialization order.
_FLAT_FIELDS = (
    "keys",
    "indptr",
    "anc",
    "dist",
    "seed_indptr",
    "seed_ids",
    "seed_dists",
)

#: Prefixes of the flat label tables a snapshot file may hold.
_TABLE_PREFIXES = ("lab", "out", "in")

#: Section dtypes the writer emits (``int64``, ``float64``, ``bool``).
_DTYPES = frozenset({"<i8", "<f8", "|b1"})

#: Default shard count when a sharded engine spills its own snapshot.
DEFAULT_SHARDS = 4

# ----------------------------------------------------------------------
# Temp-spill bookkeeping: every spilled snapshot path is tracked here so
# interpreter exit (atexit) reaps whatever GC / explicit close() missed —
# an engine that is never invalidated must not leave repro-snap-* files
# behind in the system temp directory.
# ----------------------------------------------------------------------
_LIVE_SPILLS: set = set()


def _remove_spill_path(path: str) -> None:
    """Best-effort removal of one spilled snapshot file or directory."""
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    else:
        try:
            os.unlink(path)
        except OSError:
            pass


@atexit.register
def _reap_spills() -> None:  # pragma: no cover - exercised via subprocess
    for path in list(_LIVE_SPILLS):
        _remove_spill_path(path)
    _LIVE_SPILLS.clear()


# ----------------------------------------------------------------------
# Low-level file format: header + aligned sections + trailing JSON TOC
# ----------------------------------------------------------------------
def _write_section_file(
    path: str,
    kind: int,
    meta: Dict,
    sections: Dict[str, np.ndarray],
    checksum: bool = False,
) -> int:
    """Write one snapshot file; returns bytes written.

    ``sections`` maps name -> array; arrays are dumped raw (C order,
    native little-endian dtypes) at 64-byte-aligned offsets, and the
    closing TOC records ``{name: {dtype, shape, offset}}`` plus ``meta``.
    ``checksum=True`` adds a ``crc32`` per TOC entry, verified lazily on
    the section's first map (:meth:`SnapshotFile.array`).
    """
    toc_sections = []
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, kind, 0, 0, 0))
        for name, arr in sections.items():
            arr = np.ascontiguousarray(arr)
            pos = fh.tell()
            pad = (-pos) % _ALIGN
            if pad:
                fh.write(b"\0" * pad)
            offset = fh.tell()
            arr.tofile(fh)
            entry = {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
            }
            if checksum:
                entry["crc32"] = zlib.crc32(memoryview(arr).cast("B"))
            toc_sections.append(entry)
        toc_offset = fh.tell()
        blob = json.dumps(
            {"meta": meta, "sections": toc_sections}, sort_keys=True
        ).encode("utf-8")
        fh.write(blob)
        total = fh.tell()
        fh.seek(0)
        fh.write(
            _HEADER.pack(
                SNAPSHOT_MAGIC, SNAPSHOT_VERSION, kind, 0, toc_offset, len(blob)
            )
        )
    return total


class SnapshotFile:
    """One snapshot file: parsed header/TOC plus per-section memmaps."""

    __slots__ = ("path", "kind", "meta", "_toc", "_verified")

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise StorageError(
                    f"{path}: truncated or empty snapshot "
                    f"(file is {os.path.getsize(self.path)} bytes, "
                    f"header needs {_HEADER.size})"
                )
            magic, version, kind, _flags, toc_offset, toc_len = _HEADER.unpack(
                header
            )
            if magic != SNAPSHOT_MAGIC:
                raise StorageError(f"{path}: bad snapshot magic {magic!r}")
            if version != SNAPSHOT_VERSION:
                raise StorageError(
                    f"{path}: unsupported snapshot version {version}"
                )
            if toc_len <= 0:
                # The header is patched last; a zeroed TOC pointer means
                # the writer died mid-dump.
                raise StorageError(f"{path}: truncated snapshot (no TOC)")
            fh.seek(toc_offset)
            blob = fh.read(toc_len)
            if len(blob) != toc_len:
                raise StorageError(
                    f"{path}: truncated snapshot TOC "
                    f"(file is {os.path.getsize(self.path)} bytes, "
                    f"TOC claims {toc_len} bytes at offset {toc_offset})"
                )
            size = os.fstat(fh.fileno()).st_size
        try:
            toc = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"{path}: corrupt snapshot TOC ({exc})") from None
        self.kind = kind
        self._toc = _validated_toc(self.path, toc, size)
        self.meta: Dict = toc.get("meta", {})
        self._verified: set = set()

    def has(self, name: str) -> bool:
        return name in self._toc

    def array(self, name: str, writable: bool = False) -> np.ndarray:
        """Section ``name`` as a view of its file mapping (or a heap array
        if empty).

        ``writable=True`` maps copy-on-write (``mode="c"``): writes land in
        private pages of the calling process; the file never changes.

        Sections written with ``checksum=True`` carry a ``crc32`` TOC
        entry, verified here lazily on the section's *first* access (a
        streamed read over the raw bytes — the page cost is paid anyway
        by the queries about to touch the map); a mismatch raises
        :class:`StorageError` naming the section and the file.
        """
        entry = self._toc.get(name)
        if entry is None:
            raise StorageError(f"{self.path}: no snapshot section {name!r}")
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        if "crc32" in entry and name not in self._verified:
            self._verify(name, entry, dtype, shape)
        if int(np.prod(shape)) == 0:
            return np.empty(shape, dtype=dtype)
        # A plain ndarray view of the map (kept alive through ``.base``;
        # pages still fault lazily): the memmap subclass's
        # ``__array_finalize__``/``__getitem__`` machinery would otherwise
        # run on every label cut, and each ``np.asarray`` of a memmap is a
        # fresh object, so identity-keyed pointer caches would never hit.
        return np.asarray(
            np.memmap(
                self.path,
                dtype=dtype,
                mode="c" if writable else "r",
                offset=entry["offset"],
                shape=shape,
            )
        )

    def _verify(
        self, name: str, entry: Dict, dtype: np.dtype, shape: Tuple[int, ...]
    ) -> None:
        """Stream the section's bytes and compare against the TOC crc32."""
        nbytes = int(np.prod(shape)) * dtype.itemsize
        crc = 0
        with open(self.path, "rb") as fh:
            fh.seek(entry["offset"])
            remaining = nbytes
            while remaining:
                chunk = fh.read(min(remaining, 1 << 20))
                if not chunk:
                    raise StorageError(
                        f"{self.path}: section {name!r} is truncated "
                        f"({nbytes - remaining} of {nbytes} bytes)"
                    )
                crc = zlib.crc32(chunk, crc)
                remaining -= len(chunk)
        if crc != int(entry["crc32"]):
            raise StorageError(
                f"{self.path}: checksum mismatch in section {name!r} "
                f"(stored crc32 {entry['crc32']}, computed {crc}) — "
                "the snapshot is corrupt; rebuild it with save_snapshot"
            )
        self._verified.add(name)

    def flat_labels(self, prefix: str) -> FlatLabels:
        """The seven ``{prefix}_*`` sections as a :class:`FlatLabels`."""
        return FlatLabels(
            *(self.array(f"{prefix}_{field}") for field in _FLAT_FIELDS)
        )


def _validated_toc(path: str, toc, size: int) -> Dict[str, Dict]:
    """``{name: entry}`` of a parsed TOC, checked against the file size.

    Reads the TOC alone — no data page is touched, so opening stays
    O(sections).  Every entry needs a known dtype, a non-negative integer
    shape and an extent inside the file; each flat label table's
    ``indptr``/``seed_indptr`` must have ``len(keys) + 1`` rows and its
    parallel arrays equal lengths.  Any violation raises
    :class:`StorageError` naming the file and the section.
    """

    def bad(name, why: str) -> StorageError:
        return StorageError(f"{path}: corrupt snapshot TOC, section {name!r}: {why}")

    if not isinstance(toc, dict) or not isinstance(toc.get("sections"), list):
        raise StorageError(f"{path}: corrupt snapshot TOC (no 'sections' list)")
    if not isinstance(toc.get("meta", {}), dict):
        raise StorageError(f"{path}: corrupt snapshot TOC ('meta' is not an object)")
    entries: Dict[str, Dict] = {}
    for entry in toc["sections"]:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise bad(name, "entry has no name")
        if entry.get("dtype") not in _DTYPES:
            raise bad(name, f"unknown dtype {entry.get('dtype')!r}")
        shape, offset = entry.get("shape"), entry.get("offset")
        if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise bad(name, f"bad shape {shape!r}")
        if type(offset) is not int or offset < 0:
            raise bad(name, f"bad offset {offset!r}")
        nbytes = int(np.prod(shape)) * np.dtype(entry["dtype"]).itemsize
        if offset + nbytes > size:
            raise bad(
                name,
                f"{nbytes} bytes at offset {offset} run past the end "
                f"of the {size}-byte file",
            )
        entries[name] = entry
    rows = {
        name: entry["shape"][0] if entry["shape"] else 1
        for name, entry in entries.items()
    }
    for prefix in _TABLE_PREFIXES:
        keys = rows.get(f"{prefix}_keys")
        if keys is None:
            continue
        for field in _FLAT_FIELDS[1:]:
            if f"{prefix}_{field}" not in rows:
                raise bad(f"{prefix}_{field}", "missing from its label table")
        for field in ("indptr", "seed_indptr"):
            if rows[f"{prefix}_{field}"] != keys + 1:
                raise bad(
                    f"{prefix}_{field}",
                    f"{rows[f'{prefix}_{field}']} rows for {keys} keys",
                )
        for a, b in (("anc", "dist"), ("seed_ids", "seed_dists")):
            if rows[f"{prefix}_{a}"] != rows[f"{prefix}_{b}"]:
                raise bad(f"{prefix}_{b}", f"length differs from {prefix}_{a}")
    return entries


# ----------------------------------------------------------------------
# Writing snapshots from frozen engines
# ----------------------------------------------------------------------
def _flat_sections(prefix: str, flat: FlatLabels) -> Dict[str, np.ndarray]:
    return {f"{prefix}_{f}": arr for f, arr in zip(_FLAT_FIELDS, flat)}


def _slice_flat(flat: FlatLabels, lo: int, hi: int) -> FlatLabels:
    """Restrict a flat table to key positions ``[lo, hi)`` (rebased)."""
    e_lo, e_hi = int(flat.indptr[lo]), int(flat.indptr[hi])
    s_lo, s_hi = int(flat.seed_indptr[lo]), int(flat.seed_indptr[hi])
    return FlatLabels(
        flat.keys[lo:hi],
        flat.indptr[lo : hi + 1] - e_lo,
        flat.anc[e_lo:e_hi],
        flat.dist[e_lo:e_hi],
        flat.seed_indptr[lo : hi + 1] - s_lo,
        flat.seed_ids[s_lo:s_hi],
        flat.seed_dists[s_lo:s_hi],
    )


def _engine_parts(engine) -> Tuple[int, Dict[str, np.ndarray], Dict[str, FlatLabels]]:
    """``(kind, shared sections, label flats)`` of a frozen packed engine."""
    engine.freeze()
    csr = engine.csr
    if isinstance(engine, DirectedFastEngine):
        kind = KIND_DIRECTED
        shared = {
            "gk_ids": csr.ids_array,
            "gk_indptr": csr.indptr,
            "gk_indices": csr.indices,
            "gk_weights": csr.weights,
            "gk_rindptr": csr.rindptr,
            "gk_rindices": csr.rindices,
            "gk_rweights": csr.rweights,
        }
        flats = {"out": engine.out_table.to_flat(), "in": engine.in_table.to_flat()}
    elif isinstance(engine, FastEngine):
        kind = KIND_UNDIRECTED
        shared = {
            "gk_ids": csr.ids_array,
            "gk_indptr": csr.indptr,
            "gk_indices": csr.indices,
            "gk_weights": csr.weights,
        }
        flats = {"lab": engine.table.to_flat()}
    else:  # pragma: no cover - guarded by the facade
        raise StorageError(
            f"cannot snapshot engine of type {type(engine).__name__}"
        )
    if engine._apsp is not None:
        shared["apsp"] = np.asarray(engine._apsp, dtype=np.float64)
        shared["apsp_done"] = np.asarray(engine._apsp_done, dtype=bool)
    return kind, shared, flats


def write_snapshot(
    path: str,
    engine,
    extra_sections: Optional[Dict[str, np.ndarray]] = None,
    meta: Optional[Dict] = None,
    shards: int = 1,
    checksum: bool = False,
) -> int:
    """Dump a frozen packed engine as a snapshot; returns bytes written.

    ``shards=1`` writes a single file.  ``shards > 1`` writes a snapshot
    *directory*: ``manifest.json``, a ``shared.snap`` with the ``G_k``
    arrays, the optional all-pairs table and any ``extra_sections``
    (facade metadata), and ``shard-NNNN.snap`` files each holding one
    contiguous vertex-id range of every label table.  ``extra_sections``
    and ``meta`` ride in the shared file so facades can reconstruct
    coverage information without touching the label shards.

    ``checksum=True`` stamps every TOC section with a CRC32, verified
    lazily when a reader first maps the section — bit rot or a torn copy
    surfaces as a :class:`StorageError` naming the section instead of as
    silently wrong distances.
    """
    kind, shared, flats = _engine_parts(engine)
    meta = dict(meta or {})
    meta.setdefault("n_gk", int(engine.csr.num_vertices))
    if extra_sections:
        shared.update(extra_sections)

    if shards <= 1:
        if os.path.isdir(path):
            # Replacing a sharded snapshot with a single-file one is fine;
            # anything else is not ours to delete.
            if not os.path.exists(os.path.join(path, MANIFEST_NAME)):
                raise StorageError(
                    f"{path}: refusing to overwrite a non-snapshot directory"
                )
            shutil.rmtree(path)
        sections = dict(shared)
        for prefix, flat in flats.items():
            sections.update(_flat_sections(prefix, flat))
        return _write_section_file(path, kind, meta, sections, checksum=checksum)

    # Shard boundaries: the union of every table's keys, split into
    # near-equal contiguous vertex-id ranges.
    all_keys = np.unique(np.concatenate([f.keys for f in flats.values()]))
    if all_keys.size == 0:
        bounds = [0]
    else:
        count = max(1, min(int(shards), len(all_keys)))
        bounds = sorted(
            {int(all_keys[(len(all_keys) * i) // count]) for i in range(count)}
        )

    if os.path.isdir(path):
        # Refuse to clobber a directory we did not write: only replace it
        # when it is empty or is itself a sharded snapshot.
        if os.listdir(path) and not os.path.exists(
            os.path.join(path, MANIFEST_NAME)
        ):
            raise StorageError(
                f"{path}: refusing to overwrite a non-snapshot directory"
            )
        shutil.rmtree(path)
    elif os.path.exists(path):
        # Replacing a single-file snapshot with a sharded one is fine;
        # refuse to delete any other existing file.
        if not is_snapshot_path(path):
            raise StorageError(
                f"{path}: refusing to overwrite a non-snapshot file"
            )
        os.unlink(path)
    os.makedirs(path)
    total = 0
    shard_entries = []
    for i, start in enumerate(bounds):
        stop = bounds[i + 1] if i + 1 < len(bounds) else None
        sections: Dict[str, np.ndarray] = {}
        for prefix, flat in flats.items():
            lo = int(np.searchsorted(flat.keys, start))
            hi = (
                int(np.searchsorted(flat.keys, stop))
                if stop is not None
                else len(flat.keys)
            )
            sections.update(_flat_sections(prefix, _slice_flat(flat, lo, hi)))
        name = f"shard-{i:04d}.snap"
        total += _write_section_file(
            os.path.join(path, name),
            kind,
            {"shard": i, "start": start},
            sections,
            checksum=checksum,
        )
        shard_entries.append({"file": name, "start": start})
    total += _write_section_file(
        os.path.join(path, "shared.snap"), kind, meta, shared, checksum=checksum
    )
    manifest = {
        "magic": SNAPSHOT_MAGIC.decode("ascii"),
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "shared": "shared.snap",
        "shards": shard_entries,
    }
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    total += os.path.getsize(manifest_path)
    return total


# ----------------------------------------------------------------------
# Reading snapshots
# ----------------------------------------------------------------------
def is_snapshot_path(path) -> bool:
    """True when ``path`` is a snapshot file or sharded snapshot directory."""
    path = os.fspath(path)
    if os.path.isdir(path):
        return os.path.exists(os.path.join(path, MANIFEST_NAME))
    try:
        with open(path, "rb") as fh:
            return fh.read(len(SNAPSHOT_MAGIC)) == SNAPSHOT_MAGIC
    except OSError:
        return False


class _ShardHandle:
    """One label shard: opens its file (and flat views) on first touch."""

    __slots__ = ("start", "path", "prefix", "_table")

    def __init__(self, start: int, path: str, prefix: str) -> None:
        self.start = start
        self.path = path
        self.prefix = prefix
        self._table: Optional[LabelTable] = None

    @property
    def opened(self) -> bool:
        return self._table is not None

    @property
    def table(self) -> LabelTable:
        if self._table is None:
            self._table = LabelTable.from_flat(
                SnapshotFile(self.path).flat_labels(self.prefix)
            )
        return self._table


class ShardedLabelTable:
    """A :class:`LabelTable` split into contiguous vertex-id-range shards.

    Lookups bisect the shard start keys and delegate to the owning shard's
    table; shards open (mmap) lazily, so a worker only maps the files its
    queries actually route to.  Presents the same accessor surface as
    :class:`LabelTable`, making it a drop-in for the packed engines.  Its
    :attr:`record` lists every shard's directories for the compiled query
    entries; an unopened shard's slot is empty until :meth:`open_shard`.
    """

    __slots__ = ("shards", "_starts", "record")

    def __init__(self, shards: Sequence[_ShardHandle]) -> None:
        self.shards = list(shards)
        self._starts = [s.start for s in self.shards]
        self._link()

    def _link(self) -> None:
        """A fresh C record over every open shard's directories (see
        :class:`repro.core.kernels.LabelRecord`)."""
        self.record = kernels.LabelRecord(self._starts)
        for i, handle in enumerate(self.shards):
            if handle.opened:
                self.record.set(i, handle.table.over, handle.table.base)

    @property
    def starts(self) -> List[int]:
        """Sorted first vertex id of each shard (the scheduler's routing
        table: vertex ``v`` belongs to the shard whose start is the
        rightmost one ``<= v``)."""
        return list(self._starts)

    def open_shard(self, i: int) -> LabelTable:
        """Shard ``i``'s table, opened (and linked into :attr:`record`) on
        first touch."""
        handle = self.shards[i]
        if not handle.opened:
            table = handle.table
            self.record.set(i, table.over, table.base)
        return handle.table

    def _route(self, v: int) -> LabelTable:
        # A bisect over the (tiny) starts list per access: deliberately
        # not cached per vertex — the per-vertex label caches below this
        # already grow with the touched set, and doubling that footprint
        # to skip a bisect would fight the low-RSS serving goal.
        i = bisect_right(self._starts, v) - 1
        return self.open_shard(max(i, 0))

    def label(self, v: int):
        return self._route(v).label(v)

    def seeds_np(self, v: int):
        return self._route(v).seeds_np(v)

    def repack(self, dirty, lists, gk_ids) -> None:
        groups: Dict[int, set] = {}
        for v in dirty:
            i = max(bisect_right(self._starts, v) - 1, 0)
            groups.setdefault(i, set()).add(v)
        for i, vs in groups.items():
            self.open_shard(i).repack(vs, lists, gk_ids)
        self._link()

    def _tables(self) -> List[LabelTable]:
        return [self.open_shard(i) for i in range(len(self.shards))]

    def num_labels(self) -> int:
        return sum(t.num_labels() for t in self._tables())

    def nbytes(self) -> int:
        return sum(t.nbytes() for t in self._tables())

    def vertex_ids(self) -> List[int]:
        out: List[int] = []
        for t in self._tables():
            out.extend(t.vertex_ids())
        return sorted(out)

    def to_flat(self) -> FlatLabels:
        # Shards are contiguous, ascending vertex-id ranges.
        return concat_flat([t.to_flat() for t in self._tables()])


class Snapshot:
    """A parsed snapshot (single file or sharded directory)."""

    __slots__ = ("path", "kind", "meta", "shared", "_shard_entries")

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        if os.path.isdir(self.path):
            manifest_path = os.path.join(self.path, MANIFEST_NAME)
            try:
                with open(manifest_path, "r", encoding="utf-8") as fh:
                    manifest = json.load(fh)
            except OSError as exc:
                raise StorageError(
                    f"{path}: not a sharded snapshot ({exc})"
                ) from None
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise StorageError(
                    f"{manifest_path}: corrupt shard manifest ({exc})"
                ) from None
            if "shared" not in manifest or "shards" not in manifest:
                raise StorageError(
                    f"{manifest_path}: shard manifest is missing its "
                    "'shared'/'shards' entries"
                )
            self.shared = SnapshotFile(os.path.join(self.path, manifest["shared"]))
            self._shard_entries = [
                (int(entry["start"]), os.path.join(self.path, entry["file"]))
                for entry in manifest["shards"]
            ]
        else:
            self.shared = SnapshotFile(self.path)
            self._shard_entries = None
        self.kind = self.shared.kind
        self.meta = self.shared.meta

    @property
    def sharded(self) -> bool:
        return self._shard_entries is not None

    @property
    def shard_starts(self) -> List[int]:
        """Sorted first vertex id of each label shard ([] when unsharded).

        The shard mapping half of the manifest: vertex ``v`` lives in the
        shard whose start is the rightmost one ``<= v`` (ids below every
        start route to shard 0).  :class:`repro.serving.scheduler.ShardScheduler`
        consumes this to bucket query pairs by owning shard pair.
        """
        if self._shard_entries is None:
            return []
        return [start for start, _ in self._shard_entries]

    def ownership(self) -> Dict[int, Dict[str, object]]:
        """Shard index → ``{"start", "file"}`` ownership map of the manifest.

        What a serving deployment partitions across workers: each worker
        claims a subset of these shard indices (``repro serve --owned``),
        and the scheduler routes each query bucket to a worker owning the
        bucket's source shard.  Empty for single-file snapshots, which
        have exactly one implicit shard.
        """
        if self._shard_entries is None:
            return {}
        return {
            i: {"start": start, "file": os.path.basename(path)}
            for i, (start, path) in enumerate(self._shard_entries)
        }

    def label_table(self, prefix: str):
        """The ``prefix`` label table (``"lab"`` / ``"out"`` / ``"in"``)."""
        if self._shard_entries is None:
            return LabelTable.from_flat(self.shared.flat_labels(prefix))
        return ShardedLabelTable(
            [_ShardHandle(start, p, prefix) for start, p in self._shard_entries]
        )

    def csr(self):
        """The frozen ``G_k`` CSR view over the mapped arrays."""
        shared = self.shared
        if self.kind == KIND_DIRECTED:
            return CSRDiGraph.from_arrays(
                shared.array("gk_ids"),
                shared.array("gk_indptr"),
                shared.array("gk_indices"),
                shared.array("gk_weights"),
                shared.array("gk_rindptr"),
                shared.array("gk_rindices"),
                shared.array("gk_rweights"),
            )
        return CSRGraph.from_arrays(
            shared.array("gk_ids"),
            shared.array("gk_indptr"),
            shared.array("gk_indices"),
            shared.array("gk_weights"),
        )

    def apsp(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Copy-on-write views of the all-pairs table, if snapshotted."""
        if not self.shared.has("apsp"):
            return None, None
        return (
            self.shared.array("apsp", writable=True),
            self.shared.array("apsp_done", writable=True),
        )

    def gk_graph(self):
        """Rebuild ``G_k`` as a mutable graph object (it is tiny)."""
        csr = self.csr()
        ids = csr.id_of
        if self.kind == KIND_DIRECTED:
            dg = DiGraph()
            for v in ids:
                dg.add_vertex(v)
            indptr = csr.indptr.tolist()
            indices = csr.indices.tolist()
            weights = csr.weights.tolist()
            for i, v in enumerate(ids):
                for p in range(indptr[i], indptr[i + 1]):
                    dg.add_edge(v, ids[indices[p]], weights[p])
            return dg
        g = Graph()
        for v in ids:
            g.add_vertex(v)
        indptr = csr.indptr.tolist()
        indices = csr.indices.tolist()
        weights = csr.weights.tolist()
        for i, v in enumerate(ids):
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if i <= j:
                    g.add_edge(v, ids[j], weights[p])
        return g

    def coverage(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(vertex ids, levels)`` of every covered vertex, if recorded."""
        if not self.shared.has("cov_keys"):
            return None
        return self.shared.array("cov_keys"), self.shared.array("cov_levels")


def open_snapshot(path) -> Snapshot:
    """Open a snapshot file or sharded snapshot directory."""
    return Snapshot(path)


class SnapshotLabels(Mapping):
    """Read-only entry-list view of a snapshot label table.

    Lets the index facades treat mmap-backed labels as the familiar
    ``{vertex: [(ancestor, distance), ...]}`` mapping: entries materialize
    per vertex on first access (and are cached), so loading stays O(1)
    while the dict-engine reference path, ``index.label(v)`` and
    ``index.stats`` keep working against snapshots.
    """

    __slots__ = ("_table", "_keys", "_cache")

    def __init__(self, table) -> None:
        self._table = table
        self._keys: Optional[List[int]] = None
        self._cache: Dict[int, List[Tuple[int, int]]] = {}

    def _ids(self) -> List[int]:
        if self._keys is None:
            self._keys = self._table.vertex_ids()
        return self._keys

    def __getitem__(self, v: int) -> List[Tuple[int, int]]:
        got = self._cache.get(v)
        if got is not None:
            return got
        label = self._table.label(v)
        if label is None:
            raise KeyError(v)
        entries = list(zip(label[0].tolist(), label[1].tolist()))
        self._cache[v] = entries
        return entries

    def __iter__(self):
        return iter(self._ids())

    def __len__(self) -> int:
        return len(self._ids())


# ----------------------------------------------------------------------
# The serving engines
# ----------------------------------------------------------------------
class _SnapshotSpillMixin:
    """Shared snapshot lifecycle of the mmap/sharded serving engines.

    Owns the freeze orchestration: adopt an existing snapshot, or (when
    constructed from live entry lists) heap-freeze through the parent
    engine, spill a temporary snapshot and adopt that — plus the
    spill-cleanup on full invalidation and GC.  Subclasses declare the
    ``_snapshot_path``/``_owns_snapshot``/``_spill_shards`` slots (a
    slotted mixin cannot carry them next to another slotted base), call
    :meth:`_init_spill` from ``__init__`` and supply the
    orientation-specific :meth:`_adopt`.
    """

    __slots__ = ()

    def _init_spill(self, snapshot: Optional[str], shards: int = 1) -> None:
        self._snapshot_path = None if snapshot is None else os.fspath(snapshot)
        self._owns_snapshot = False
        self._spill_shards = shards

    def freeze(self):
        if self.frozen:
            return self
        if self._snapshot_path is None:
            self._spill()
        self._adopt(open_snapshot(self._snapshot_path))
        self.frozen = True
        return self

    def _spill(self) -> None:
        """Heap-freeze the live entry lists and dump a temporary snapshot.

        The temp path is tracked in the module spill registry the moment
        it exists, and unlinked on *any* failure mid-dump — a
        ``write_snapshot`` that raises (disk full, a killed freeze) must
        not leave a half-written ``repro-snap-*`` orphan behind, and an
        engine that is never explicitly invalidated is still reaped by
        the atexit hook.
        """
        super().freeze()
        if self._spill_shards > 1:
            path = tempfile.mkdtemp(prefix="repro-snap-")
        else:
            fd, path = tempfile.mkstemp(prefix="repro-snap-", suffix=".snap")
            os.close(fd)
        _LIVE_SPILLS.add(path)
        try:
            write_snapshot(path, self, shards=self._spill_shards)
        except BaseException:
            _LIVE_SPILLS.discard(path)
            _remove_spill_path(path)
            raise
        self._snapshot_path = path
        self._owns_snapshot = True
        self.frozen = False  # _adopt replaces the heap structures

    def _adopt(self, snap: "Snapshot") -> None:
        raise NotImplementedError

    def _adopt_apsp(self, snap: "Snapshot") -> None:
        """Adopt the snapshotted all-pairs table (copy-on-write), or
        allocate a fresh heap table under the usual budget."""
        apsp, done = snap.apsp()
        if apsp is not None:
            self._apsp, self._apsp_done = apsp, done
            return
        n = self.csr.num_vertices
        if 0 < n <= self.apsp_max_gk:
            self._apsp = np.full((n, n), np.inf)
            self._apsp_done = np.zeros(n, dtype=bool)
        else:
            self._apsp = None
            self._apsp_done = None

    def _drop_frozen(self) -> None:
        super()._drop_frozen()
        self._discard_spill()

    def _discard_spill(self) -> None:
        if self._owns_snapshot and self._snapshot_path is not None:
            _LIVE_SPILLS.discard(self._snapshot_path)
            _remove_spill_path(self._snapshot_path)
            self._snapshot_path = None
            self._owns_snapshot = False

    def close(self) -> None:
        """Release the engine's frozen structures and any temp spill.

        Explicit, deterministic teardown for serving processes: drops
        the mapped views and deletes a spilled temporary snapshot now
        instead of waiting for GC or interpreter exit.  The engine stays
        usable — the next query re-freezes (and re-spills) from the
        current entry lists or the adopted snapshot path.
        """
        self._drop_frozen()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self._discard_spill()
        except Exception:
            pass


class MmapEngine(_SnapshotSpillMixin, FastEngine):
    """Undirected ``"mmap"`` engine: frozen state adopted from a snapshot.

    Two lifecycles share one query code path:

    * **snapshot-backed** (``from_snapshot`` / ``load_index(path,
      engine="mmap")``): freezing memmaps the snapshot's sections — the
      label views materialize lazily per vertex, the all-pairs table maps
      copy-on-write, and nothing is parsed;
    * **build-backed** (``ISLabelIndex.build(..., engine="mmap")``): the
      first freeze packs the live entry lists on the heap, spills a
      temporary snapshot, and re-adopts it — the full save→serve
      roundtrip, which is what the property suites compare against the
      dict oracle.

    Between invalidations the engine is read-only like its parent; §8.3
    incremental repairs splice heap overrides in front of the mapped
    views (see :meth:`LabelTable.repack`), and a full invalidation of a
    build-backed engine discards the spilled file so the next freeze
    re-packs from the current labels.
    """

    __slots__ = ("_snapshot_path", "_owns_snapshot", "_spill_shards")

    name = "mmap"

    def __init__(
        self,
        gk,
        entry_lists,
        arrays=None,
        apsp_budget_bytes: Optional[int] = None,
        snapshot: Optional[str] = None,
    ) -> None:
        super().__init__(gk, entry_lists, arrays, apsp_budget_bytes)
        self._init_spill(snapshot)

    @classmethod
    def from_snapshot(cls, gk, path, apsp_budget_bytes=None) -> "MmapEngine":
        """Serve an existing snapshot (no entry lists; read-only)."""
        return cls(gk, {}, None, apsp_budget_bytes, snapshot=path)

    def _adopt(self, snap: Snapshot) -> None:
        if snap.kind != KIND_UNDIRECTED:
            raise StorageError(
                f"{snap.path}: directed snapshot; use the directed engine"
            )
        self.csr = snap.csr()
        self.indptr = self.csr.indptr.tolist()
        self.indices = self.csr.indices.tolist()
        self.weights = self.csr.weights.tolist()
        self.table = snap.label_table("lab")
        self._adopt_apsp(snap)

    def _num_labels(self) -> int:
        if self.entry_lists:
            return len(self.entry_lists)
        return self.table.num_labels() if self.table is not None else 0


class ShardedEngine(MmapEngine):
    """Undirected ``"sharded"`` engine: vertex-id-range label shards.

    Adopts a sharded snapshot directory; each shard file memmaps lazily on
    the first query routed into its vertex-id range, so a worker process
    only maps (and pages in) the shards it serves.  The replicated
    ``G_k``/table sections come from the shared file.  Built from live
    entry lists it spills a temporary sharded snapshot first.
    """

    __slots__ = ()

    name = "sharded"

    def __init__(
        self,
        gk,
        entry_lists,
        arrays=None,
        apsp_budget_bytes: Optional[int] = None,
        snapshot: Optional[str] = None,
        shards: int = DEFAULT_SHARDS,
    ) -> None:
        super().__init__(gk, entry_lists, arrays, apsp_budget_bytes, snapshot)
        self._spill_shards = max(2, int(shards))


class DirectedMmapEngine(_SnapshotSpillMixin, DirectedFastEngine):
    """Directed ``"mmap"`` engine (out/in label tables from one snapshot)."""

    __slots__ = ("_snapshot_path", "_owns_snapshot", "_spill_shards")

    name = "mmap"

    def __init__(
        self,
        gk,
        out_lists,
        in_lists,
        apsp_budget_bytes: Optional[int] = None,
        snapshot: Optional[str] = None,
    ) -> None:
        super().__init__(gk, out_lists, in_lists, apsp_budget_bytes)
        self._init_spill(snapshot)

    @classmethod
    def from_snapshot(cls, gk, path, apsp_budget_bytes=None):
        """Serve an existing directed snapshot (read-only)."""
        return cls(gk, {}, {}, apsp_budget_bytes, snapshot=path)

    def _adopt(self, snap: Snapshot) -> None:
        if snap.kind != KIND_DIRECTED:
            raise StorageError(
                f"{snap.path}: undirected snapshot; use the undirected engine"
            )
        self.csr = snap.csr()
        self.indptr = self.csr.indptr.tolist()
        self.indices = self.csr.indices.tolist()
        self.weights = self.csr.weights.tolist()
        self.rindptr = self.csr.rindptr.tolist()
        self.rindices = self.csr.rindices.tolist()
        self.rweights = self.csr.rweights.tolist()
        self.out_table = snap.label_table("out")
        self.in_table = snap.label_table("in")
        self._adopt_apsp(snap)

    def _num_labels(self) -> int:
        if self.out_lists or self.in_lists:
            return len(self.out_lists) + len(self.in_lists)
        if self.out_table is None:
            return 0
        return self.out_table.num_labels() + self.in_table.num_labels()


class DirectedShardedEngine(DirectedMmapEngine):
    """Directed ``"sharded"`` engine (out/in tables sharded by id range)."""

    __slots__ = ()

    name = "sharded"

    def __init__(
        self,
        gk,
        out_lists,
        in_lists,
        apsp_budget_bytes: Optional[int] = None,
        snapshot: Optional[str] = None,
        shards: int = DEFAULT_SHARDS,
    ) -> None:
        super().__init__(gk, out_lists, in_lists, apsp_budget_bytes, snapshot)
        self._spill_shards = max(2, int(shards))


register_engine(
    UNDIRECTED, MmapEngine.name, MmapEngine, {CAP_LOCAL, CAP_SNAPSHOT}
)
register_engine(
    UNDIRECTED,
    ShardedEngine.name,
    ShardedEngine,
    {CAP_LOCAL, CAP_SNAPSHOT, CAP_SHARDED},
)
register_engine(
    DIRECTED, DirectedMmapEngine.name, DirectedMmapEngine, {CAP_LOCAL, CAP_SNAPSHOT}
)
register_engine(
    DIRECTED,
    DirectedShardedEngine.name,
    DirectedShardedEngine,
    {CAP_LOCAL, CAP_SNAPSHOT, CAP_SHARDED},
)
