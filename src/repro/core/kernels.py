"""Compiled query kernels: the packed engines' query path in C, through cffi.

One compiled entry answers a packed engine's query from two vertex ids
(:func:`query`; :func:`staged` also returns the search's counters), and
another a whole batch from two vertex arrays (:func:`query_batch`).  Each
finds both labels itself, by binary search over the engine's registered
label directories (a vertex no directory holds reads as the implicit
one-entry label ``{(v, 0)}``), runs Equation 1, then the search stage:

* **Table mode** (the engine keeps the all-pairs ``G_k`` table): each
  side's seeds as dense ids (binary search over the sorted ``G_k`` ids)
  and Theorem 4's table reduction.  The kernels never fill the table: a
  missing row goes back to the engine's row filler, which publishes it
  with :func:`mark_row_done`, and the call runs again.
* **CSR mode** (no table): Algorithm 1's label-seeded bidirectional
  Dijkstra, seeded from the directories' pre-extracted seeds.
  :func:`bidijkstra` exposes the same search over caller-supplied arrays
  for :func:`repro.core.query.csr_label_bidijkstra`, with
  :func:`repro.core.query.csr_label_bidijkstra_reference` as the oracle;
  it returns identical :class:`SearchStats` counters too.

The dispatch points are :class:`repro.core.fastlabels.PackedEngineBase`'s
``distance``, ``distances`` and ``staged``, which pick the compiled entry
when the module loaded (:data:`BACKEND` ``== "c"``) and the pure-Python
staging otherwise — the engines' ``eq1``, ``search_distance`` and the CSR
reference search, :func:`repro.core.fastlabels.batch_eq1` and
:func:`repro.core.fastlabels.batch_table_stage`.  Both give identical
answers.

The C source (``kernels.c``, next to this file) is compiled with cffi in
API mode the first time this module is imported — which happens at import
of :mod:`repro.core.query`, so the one-time compile never lands inside a
timed query window.  The built extension is cached in ``_kernel_cache/``
next to the source, keyed by a hash of the C source, the cffi
declarations, the compiler flags and the interpreter tag; deleting the
directory forces a rebuild.  Each build runs in a fresh interpreter inside
a private directory under the cache and is published with an atomic
rename, so concurrent imports (a fleet of workers starting together) never
see a half-written module, and nothing is written to the system temp
directory.  Without cffi, a C compiler or a writable cache directory, the
module loads with ``BACKEND == "python"`` and :data:`LOAD_ERROR` says why.

Buffers are checked and wrapped for C when they come alive, not per query:

* **Label directories.**  A label table is one directory — the snapshot
  layout, a :class:`repro.core.fastlabels.FlatLabels`: sorted ``keys``,
  ``indptr`` bounds into ``anc``/``dist``, and the seed arrays — plus, after
  §8.3 repacks, one override directory the kernels check first (fresh
  labels and tombstones for deleted vertices).  Each is passed to
  :func:`register_directory` once (a heap freeze, a snapshot adopt or
  shard open, a repack), which checks what C reads unchecked: sorted
  keys, monotone bounds that end at the entry count.  A table's
  :class:`LabelRecord` lists its shards' directories; a sharded table's
  unopened shards are empty slots, and a query routed into one returns a
  status so the engine opens it and asks again.
* **The engine record.**  :class:`EngineRecord` validates the ``G_k`` ids,
  table and row flags (table mode) or the six CSR arrays (CSR mode) once
  per engine state and links the label records; the engine rebuilds it
  after a freeze or an invalidation.

:func:`counters` reports how often each happened; flat counters across a
warm query stream mean no query paid for either.

Every call releases the GIL.  The native scratch (the search's distance
maps, epoch stamps and heaps, the table stage's seed buffers, grown on
demand in C) is one per thread, so two threads never share one.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BACKEND",
    "LOAD_ERROR",
    "Directory",
    "EngineRecord",
    "LabelRecord",
    "bidijkstra",
    "counters",
    "load",
    "mark_row_done",
    "query",
    "query_batch",
    "register_directory",
    "staged",
]

_SOURCE = Path(__file__).with_name("kernels.c")
_CACHE_DIR = Path(__file__).with_name("_kernel_cache")

_CDEF = """
typedef struct isl_scratch isl_scratch;
typedef struct {
    int64_t n;
    const int64_t *keys;
    const int64_t *indptr;
    const int64_t *anc;
    const int64_t *dist;
    const int64_t *seed_indptr;
    const int64_t *seed_ids;
    const int64_t *seed_dists;
    const uint8_t *dead;
} isl_dir;
typedef struct {
    int64_t n_shards;
    const int64_t *starts;
    const isl_dir **over;
    const isl_dir **base;
} isl_labels;
typedef struct {
    const isl_labels *labels[2];
    int64_t n;
    const int64_t *ids;
    const double *table;
    const uint8_t *done;
    const int64_t *csr[6];
} isl_engine;
isl_scratch *isl_scratch_new(void);
void isl_scratch_free(isl_scratch *s);
int isl_bidijkstra(
    isl_scratch *s, int64_t n,
    const int64_t *indptr, const int64_t *indices, const int64_t *weights,
    const int64_t *indptr_r, const int64_t *indices_r, const int64_t *weights_r,
    const int64_t *seed_fv, const int64_t *seed_fd, int64_t n_seed_f,
    const int64_t *seed_rv, const int64_t *seed_rd, int64_t n_seed_r,
    int64_t initial_mu, int64_t *out);
int isl_query(isl_scratch *s, const isl_engine *e, int64_t src, int64_t dst, int64_t *out);
int isl_query_batch(isl_scratch *s, const isl_engine *e, int64_t q,
                    const int64_t *src, const int64_t *dst,
                    int64_t *out, int64_t *missing, int64_t *info);
void isl_mark_done(uint8_t *done, int64_t a);
"""
# -pipe keeps gcc's intermediate files out of the temp directory.
_CFLAGS = ["-O2", "-pipe"]

# Run by ``sys.executable`` in the private build directory: cffi's
# compile chdirs and edits os.environ, which must not happen in-process.
_BUILD_SCRIPT = """
import sys, cffi
name, cdef, source, flags = sys.argv[1:]
ffi = cffi.FFI()
ffi.cdef(cdef)
with open(source, encoding="utf-8") as fh:
    ffi.set_source(name, fh.read(), extra_compile_args=flags.split())
ffi.compile(tmpdir=".")
"""
_BUILD_TIMEOUT_S = 300

#: ``"c"`` when the compiled kernel loaded, else ``"python"``.
BACKEND = "python"
#: Why the compiled kernel is unavailable (``None`` when it loaded).
LOAD_ERROR: Optional[str] = None

_ffi = None
_lib = None

#: ``initial_mu`` meaning "no bound" on the C side, and an answer of
#: "unreachable" coming back from the query entries.
_NO_BOUND = np.iinfo(np.int64).max

_INF = math.inf
_I64 = np.dtype(np.int64)

_counts = {"validations": 0, "registrations": 0}
_counts_lock = threading.Lock()


def _count(name: str) -> None:
    with _counts_lock:
        _counts[name] += 1


def counters() -> Dict[str, int]:
    """Process-wide ``{"validations", "registrations"}`` counts.

    ``validations``: :class:`EngineRecord` s built, each
    checking and wrapping one set of ``G_k`` arrays for C.
    ``registrations``: label directories passed to
    :func:`register_directory`.  Neither moves on a warm query path; a
    worker's ``stats`` reply reports both.
    """
    with _counts_lock:
        return dict(_counts)


def _module_name() -> str:
    key = hashlib.sha256()
    for part in (
        _SOURCE.read_bytes(),
        _CDEF.encode(),
        " ".join(_CFLAGS).encode(),
        sys.implementation.cache_tag.encode(),
        sysconfig.get_config_var("EXT_SUFFIX").encode(),
    ):
        key.update(part)
        key.update(b"\0")
    return f"_islabel_kernel_{key.hexdigest()[:16]}"


def _build(name: str, target: Path) -> None:
    """Compile ``kernels.c`` into ``target`` (atomic publish)."""
    _CACHE_DIR.mkdir(exist_ok=True)
    build_dir = Path(tempfile.mkdtemp(prefix=".build-", dir=_CACHE_DIR))
    try:
        subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT, name, _CDEF, str(_SOURCE), " ".join(_CFLAGS)],
            cwd=build_dir,
            capture_output=True,
            check=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        (build_dir / target.name).replace(target)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def load() -> str:
    """Build (on a cache miss) and load the compiled kernel; set :data:`BACKEND`."""
    global BACKEND, LOAD_ERROR, _ffi, _lib
    try:
        name = _module_name()
        target = _CACHE_DIR / (name + sysconfig.get_config_var("EXT_SUFFIX"))
        if not target.exists():
            _build(name, target)
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except subprocess.CalledProcessError as exc:
        detail = exc.stderr.decode(errors="replace").strip().splitlines()
        BACKEND, LOAD_ERROR = "python", f"kernel build failed: {detail[-1] if detail else exc}"
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        BACKEND, LOAD_ERROR = "python", f"kernel unavailable: {exc}"
    else:
        _ffi, _lib = module.ffi, module.lib
        BACKEND, LOAD_ERROR = "c", None
    return BACKEND


class _Scratch:
    """One thread's C state: the native scratch and the result cells."""

    __slots__ = ("ptr", "out", "info", "missing", "missing_cap")

    def __init__(self) -> None:
        ptr = _lib.isl_scratch_new()
        if ptr == _ffi.NULL:
            raise MemoryError("cannot allocate the query kernel's scratch")
        self.ptr = _ffi.gc(ptr, _lib.isl_scratch_free)
        self.out = _ffi.new("int64_t[6]")
        self.info = _ffi.new("int64_t[2]")
        self.missing = _ffi.NULL
        self.missing_cap = 0

    @classmethod
    def mine(cls) -> "_Scratch":
        """The calling thread's scratch, created on its first call."""
        scratch = _local.scratch
        if scratch is None:
            scratch = _local.scratch = cls()
        return scratch

    def missing_rows(self, n: int):
        """Room for ``n`` missing table rows (one per ``G_k`` vertex)."""
        if self.missing_cap < n:
            self.missing = _ffi.new("int64_t[]", n)
            self.missing_cap = n
        return self.missing


class _Local(threading.local):
    scratch: Optional[_Scratch] = None


_local = _Local()


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _is_array(a, dtype, shape) -> bool:
    """True for a C-contiguous ndarray of ``dtype`` and ``shape``."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.shape == shape
        and a.flags.c_contiguous
    )


def _check_csr(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, n: int) -> None:
    """Bounds the kernel relies on: it reads these arrays unchecked."""
    if (
        len(indptr) != n + 1
        or len(indices) != len(weights)
        or (n and indptr[0] != 0)
        or np.any(np.diff(indptr) < 0)
        or indptr[-1] > len(indices)
        or (len(indices) and (indices.min() < 0 or indices.max() >= n))
    ):
        raise ValueError(f"malformed CSR arrays for {n} vertices")


def _check_bounds(indptr, entries: int, what: str) -> None:
    """``indptr`` must start at 0, never fall, and end at ``entries``."""
    if indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]) or indptr[-1] != entries:
        raise ValueError(f"corrupt label directory: {what} bounds are not monotone from 0 to {entries}")


class Directory:
    """One label directory registered with the kernels.

    ``flat`` holds the seven snapshot-layout arrays (sorted ``keys``,
    ``indptr``, ``anc``, ``dist``, ``seed_indptr``, ``seed_ids``,
    ``seed_dists``) and ``dead`` an override's tombstone flags (``None``
    for a base directory).  ``ptr`` is the C ``isl_dir`` record (``None``
    without the compiled module); its pointers stay valid while this
    object lives, since it keeps the arrays and cffi's views of them.
    """

    __slots__ = ("flat", "dead", "ptr", "_views")

    def __init__(self, flat, dead, ptr, views) -> None:
        self.flat = flat
        self.dead = dead
        self.ptr = ptr
        self._views = views


def register_directory(flat, dead: Optional[np.ndarray] = None) -> Directory:
    """Check one label directory and wrap its pointers for C, once.

    Every array must be a 1-D C-contiguous ``int64`` ndarray (a view over
    a snapshot mapping qualifies): ``keys`` strictly increasing,
    ``indptr``/``seed_indptr`` one longer than ``keys``, starting at 0,
    never falling and ending at the length of ``anc``/``dist`` and
    ``seed_ids``/``seed_dists``.  ``dead`` is ``None`` or a bool vector
    as long as ``keys``.  Anything else raises :class:`ValueError`: the
    kernels read these arrays unchecked, and snapshot files supply them.
    """
    keys = flat.keys
    n = len(keys) if isinstance(keys, np.ndarray) else -1
    shapes = (
        (keys, (n,)),
        (flat.indptr, (n + 1,)),
        (flat.anc, (len(flat.anc),)),
        (flat.dist, (len(flat.anc),)),
        (flat.seed_indptr, (n + 1,)),
        (flat.seed_ids, (len(flat.seed_ids),)),
        (flat.seed_dists, (len(flat.seed_ids),)),
    )
    if n < 0 or not all(_is_array(a, _I64, shape) for a, shape in shapes):
        raise ValueError("a label directory must be seven contiguous int64 vectors of matching lengths")
    if n > 1 and np.any(keys[1:] <= keys[:-1]):
        raise ValueError("corrupt label directory: keys are not strictly increasing")
    _check_bounds(flat.indptr, len(flat.anc), "label")
    _check_bounds(flat.seed_indptr, len(flat.seed_ids), "seed")
    if dead is not None and not _is_array(dead, np.bool_, (n,)):
        raise ValueError(f"tombstone flags must be a contiguous bool vector of {n}")
    if _ffi is None:
        return Directory(flat, dead, None, ())
    _count("registrations")
    # The C record's fields are named after the FlatLabels arrays.
    fields = {name: _ffi.from_buffer("int64_t[]", a) for name, a in zip(flat._fields, flat)}
    fields["dead"] = _ffi.NULL if dead is None else _ffi.from_buffer("uint8_t[]", dead)
    ptr = _ffi.new("isl_dir *", dict(fields, n=n))
    return Directory(flat, dead, ptr, fields)


class LabelRecord:
    """One label table's C ``isl_labels`` record: per shard, an override
    and a base :class:`Directory` (a shard without a base is not open).

    ``starts`` are the shards' first vertex ids (one shard: ``[0]``).
    :meth:`set` fills a shard's slot in place, so engine records linking
    this one follow a shard open without a rebuild.  A slot is never
    repointed: a call may be reading it without the GIL, so a repack
    builds a new record, and the old one keeps its directories alive for
    as long as an engine record holds it.
    """

    __slots__ = ("ptr", "_starts", "_over", "_base", "_held")

    def __init__(self, starts: Sequence[int]) -> None:
        n = len(starts)
        self._held: List[tuple] = [(None, None)] * n
        if _ffi is None:
            self.ptr = None
            return
        self._starts = _ffi.new("int64_t[]", list(starts))
        self._over = _ffi.new("isl_dir *[]", n)
        self._base = _ffi.new("isl_dir *[]", n)
        self.ptr = _ffi.new(
            "isl_labels *",
            {"n_shards": n, "starts": self._starts, "over": self._over, "base": self._base},
        )

    def set(self, shard: int, over: Optional[Directory], base: Optional[Directory]) -> None:
        """Point shard ``shard`` at ``over`` and ``base`` (``None``: none)."""
        self._held[shard] = (over, base)
        if self.ptr is None:
            return
        # The override first, so a concurrent reader that sees the shard
        # open sees its override too; each store is one aligned pointer.
        self._over[shard] = _ffi.NULL if over is None or over.ptr is None else over.ptr
        self._base[shard] = _ffi.NULL if base is None or base.ptr is None else base.ptr


class EngineRecord:
    """One packed engine state's C ``isl_engine`` record.

    Validates the ``G_k`` arrays and links the two sides' label records
    (an undirected engine passes its one record twice).  ``ids`` are the
    sorted ``G_k`` vertex ids (dense id = rank).  In table mode ``table``
    is the lazily filled all-pairs float64 ``n x n`` table and ``done``
    its writable bool row flags; in CSR mode both are ``None`` and
    ``csr`` holds the forward and reverse CSR triples (six arrays).
    Requires the compiled module.
    """

    __slots__ = ("ptr", "n", "csr_mode", "done", "done_view", "_held")

    def __init__(self, labels_f: LabelRecord, labels_r: LabelRecord, ids, table, done, csr) -> None:
        _count("validations")
        n = len(ids) if isinstance(ids, np.ndarray) else -1
        if not _is_array(ids, _I64, (n,)) or (n > 1 and np.any(np.diff(ids) <= 0)):
            raise ValueError("G_k ids must be a strictly increasing int64 vector")
        fields = {
            "labels": [labels_f.ptr, labels_r.ptr],
            "n": n,
            "ids": _ffi.from_buffer("int64_t[]", ids),
        }
        self.done_view = None
        if table is not None:
            if not _is_array(table, np.float64, (n, n)):
                raise ValueError(f"the G_k table must be a C-contiguous float64 {n}x{n} array")
            if not _is_array(done, np.bool_, (n,)) or not done.flags.writeable:
                raise ValueError(f"the table's row flags must be a writable contiguous bool vector of {n}")
            self.done_view = _ffi.from_buffer("uint8_t[]", done, require_writable=True)
            fields["table"] = _ffi.from_buffer("double[]", table)
            fields["done"] = self.done_view
        else:
            if not 0 <= n < 2**31:
                raise ValueError(f"G_k size {n} outside the kernel's int32 vertex ids")
            csr = [_int64(a) for a in csr]
            for triple in (csr[:3], csr[3:]):
                _check_csr(*triple, n)
            fields["csr"] = [_ffi.from_buffer("int64_t[]", a) for a in csr]
        self.ptr = _ffi.new("isl_engine *", fields)
        self.n = n
        self.csr_mode = table is None
        self.done = done
        # The arrays and cffi's views of them live as long as the record.
        self._held = (labels_f, labels_r, ids, table, csr, fields)


def _retry(status: int, first: int, second: int, owner) -> "EngineRecord":
    """Have ``owner`` act on a status that asks for another call, and
    return the record to call with; raise for an error status.

    Status 3: table row ``first`` is missing.  Status 4: shard ``second``
    of side ``first`` (0: source, 1: target) is not open.  ``owner`` is the
    engine (:meth:`repro.core.fastlabels.PackedEngineBase._resolve`); its
    current record may be newer than the one the call ran with.
    """
    if status == 3 or status == 4:
        return owner._resolve(status, first, second)
    if status == -2:
        raise IndexError("a label seed lies outside the dense G_k ids")
    raise MemoryError("query kernel ran out of memory")


def query(record: EngineRecord, source: int, target: int, owner):
    """Exact distance from ``source`` to ``target`` in one compiled call.

    ``owner`` is the engine ``record`` belongs to: a missing table row or
    an unopened shard goes to it, and the call runs again.  The answer is
    an ``int``, or ``math.inf`` when ``target`` is unreachable.
    """
    scratch = _local.scratch or _Scratch.mine()
    out = scratch.out
    status = _lib.isl_query(scratch.ptr, record.ptr, source, target, out)
    while status > 1 or status < 0:
        record = _retry(status, out[1], out[2], owner)
        status = _lib.isl_query(scratch.ptr, record.ptr, source, target, out)
    d = out[0]
    return _INF if d == _NO_BOUND else d


def staged(record: EngineRecord, source: int, target: int, owner):
    """:func:`query` with its stage report: ``(distance, used_search,
    counts)``.  ``used_search`` is False when a side has no ``G_k`` seed
    (Equation 1 alone is exact); ``counts`` are a CSR search's
    ``(settled_forward, settled_reverse, relaxed_edges, heap_pushes)``,
    ``None`` in table mode or when no search ran."""
    scratch = _Scratch.mine()
    out = scratch.out
    status = _lib.isl_query(scratch.ptr, record.ptr, source, target, out)
    while status > 1 or status < 0:
        record = _retry(status, out[1], out[2], owner)
        status = _lib.isl_query(scratch.ptr, record.ptr, source, target, out)
    d = out[0]
    searched = status == 1
    counts = (out[2], out[3], out[4], out[5]) if searched and record.csr_mode else None
    return (_INF if d == _NO_BOUND else d), searched, counts


def query_batch(record: EngineRecord, pairs: Sequence[Tuple[int, int]], owner) -> List:
    """:func:`query` for every pair of ``pairs``, in one compiled call.

    The answers are those of the batch reference
    (:func:`repro.core.fastlabels.batch_eq1` then
    :func:`repro.core.fastlabels.batch_table_stage` or the CSR search),
    which routes Equation 1 through float64 whenever more than one pair
    has two distinct endpoints.  The call reports every missing table row
    at once; they are filled in ascending order and the batch runs again.
    """
    q = len(pairs)
    scratch = _Scratch.mine()
    src = _ffi.new("int64_t[]", [s for s, _ in pairs])
    dst = _ffi.new("int64_t[]", [t for _, t in pairs])
    out = _ffi.new("int64_t[]", q)
    info = scratch.info
    while True:
        missing = scratch.missing_rows(record.n)
        status = _lib.isl_query_batch(scratch.ptr, record.ptr, q, src, dst, out, missing, info)
        if status == 0:
            break
        if status == 3:
            for a in sorted(_ffi.unpack(missing, info[0])):
                record = _retry(status, a, 0, owner)
        else:
            record = _retry(status, info[0], info[1], owner)
    return [_INF if d == _NO_BOUND else d for d in _ffi.unpack(out, q)]


def mark_row_done(done: np.ndarray, a: int, record: Optional[EngineRecord] = None) -> None:
    """Set ``done[a]`` once table row ``a`` is written.

    With the compiled module this is a release store, which the query
    kernels (running without the GIL on other threads) pair with acquire
    loads, so they never read a row before its values.  When ``record``
    (the engine's current record) already holds a view of ``done``, the
    store goes through it instead of wrapping the array again.
    """
    if BACKEND != "c":
        done[a] = True
        return
    if not (done.dtype == np.bool_ and done.ndim == 1 and 0 <= a < len(done)):
        raise ValueError(f"row {a} outside the table's bool row flags")
    if record is not None and record.done is done:
        view = record.done_view
    else:
        view = _ffi.from_buffer("uint8_t[]", done, require_writable=True)
    _lib.isl_mark_done(view, a)


def _seed_ptrs(seeds):
    ids, dists = _int64(seeds[0]), _int64(seeds[1])
    if len(ids) != len(dists):
        raise ValueError("seed ids and distances differ in length")
    return _ffi.from_buffer("int64_t[]", ids), _ffi.from_buffer("int64_t[]", dists), len(ids)


def bidijkstra(
    indptr: Sequence[int],
    indices: Sequence[int],
    weights: Sequence[int],
    seeds_forward: Tuple[Sequence[int], Sequence[int]],
    seeds_reverse: Tuple[Sequence[int], Sequence[int]],
    num_vertices: int,
    initial_mu: float,
    indptr_r: Optional[Sequence[int]] = None,
    indices_r: Optional[Sequence[int]] = None,
    weights_r: Optional[Sequence[int]] = None,
) -> Tuple[float, int, Tuple[int, int, int, int]]:
    """The compiled Stage 2 over caller-supplied arrays; arguments as for
    the reference (less its pool: the scratch is the thread's).

    Returns ``(distance, meet_dense, (settled_forward, settled_reverse,
    relaxed_edges, heap_pushes))``.  ``distance`` is ``initial_mu`` itself
    when the bound was never beaten (``meet_dense == -1``), as in the
    reference.  The arrays are checked on every call (int64 arrays are
    used in place, other sequences converted).  Distances must stay below
    ``2**63``.
    """
    n = num_vertices
    if not 0 <= n < 2**31:
        raise ValueError(f"G_k size {n} outside the kernel's int32 vertex ids")
    if indptr_r is None:
        indptr_r, indices_r, weights_r = indptr, indices, weights
    arrays = [_int64(a) for a in (indptr, indices, weights, indptr_r, indices_r, weights_r)]
    for triple in (arrays[:3], arrays[3:]):
        _check_csr(*triple, n)
    # Integral ceiling (exact for int types): for integer path lengths,
    # ``x < mu`` and ``x < ceil(mu)`` agree.
    bound = _NO_BOUND if initial_mu >= _NO_BOUND else int(-(-initial_mu // 1))
    scratch = _Scratch.mine()
    out = scratch.out
    status = _lib.isl_bidijkstra(
        scratch.ptr,
        n,
        *(_ffi.from_buffer("int64_t[]", a) for a in arrays),
        *_seed_ptrs(seeds_forward),
        *_seed_ptrs(seeds_reverse),
        bound,
        out,
    )
    if status == -2:
        raise IndexError(f"seed vertex outside the {n} dense G_k ids")
    if status:
        raise MemoryError("search kernel ran out of memory")
    meet = out[1]
    return (initial_mu if meet < 0 else out[0]), meet, (out[2], out[3], out[4], out[5])


load()
