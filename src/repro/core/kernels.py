"""Compiled query kernels: the packed engines' stages in C, through cffi.

Two stages have a compiled form, each behind one dispatch point that
picks it when the module loaded (:data:`BACKEND` ``== "c"``) and the
pure-Python reference otherwise; both give identical answers.

* **Table mode** (the engine keeps the all-pairs ``G_k`` table):
  :func:`table_query` answers a whole query in one call — Equation 1 over
  the two labels, each side's seeds (dense ids by binary search over the
  sorted ``G_k`` ids) and Theorem 4's table reduction — and
  :func:`table_batch` a whole ``distances()`` batch.  The dispatch points
  are :meth:`repro.core.fastlabels.PackedEngineBase.staged` and
  ``distances``; the references are the engines' ``eq1`` and
  ``search_distance`` and :func:`repro.core.fastlabels.batch_eq1` +
  :func:`repro.core.fastlabels.batch_table_stage`.  The kernels never fill
  the table: a missing row goes back to the engine's row filler, which
  publishes it with :func:`mark_row_done`.
* **CSR mode** (no table): :func:`bidijkstra` is Algorithm 1's
  label-seeded bidirectional Dijkstra, dispatched from
  :func:`repro.core.query.csr_label_bidijkstra`, with
  :func:`repro.core.query.csr_label_bidijkstra_reference` as the oracle;
  it returns identical :class:`SearchStats` counters too.

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

* **Label backings.**  A label table keeps its labels in one ``anc``/``dist``
  pair per backing: the heap freeze's concatenated arrays, a snapshot's
  (or shard's) flat sections, and one fresh pair per §8.3 repack.  Each
  pair is passed to :func:`register_labels` once, which validates it and
  returns a :class:`LabelBuffer` holding its C pointers.  A label is then
  a *span* ``(buffer, offset, length)``, and a query hands the kernels
  only that buffer's cached pointer and two integers per side; the C side
  checks every span against its backing's length.  :data:`IMPLICIT` spans
  ``(IMPLICIT, v, 1)`` stand for the one-entry label ``{(v, 0)}`` of a
  vertex the table holds no label for.
* **``G_k`` arrays.**  The ``G_k`` ids, table and row flags (table mode)
  and the six CSR arrays (CSR mode) are validated on a thread's first
  query and whenever the engine swaps them; the pointers are cached on
  that thread's scratch, keyed by array identity.

:func:`counters` reports how often each happened; flat counters across a
warm query stream mean no query paid for either.

Every call releases the GIL.  The native scratch (the search's distance
maps, epoch stamps and heaps, the table stage's seed buffers, grown on
demand in C) hangs off the caller's
:class:`repro.core.fastlabels.LabelArrayPool`, which the packed engines
keep one per thread, so two threads never share one scratch set.
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
    "IMPLICIT",
    "LOAD_ERROR",
    "LabelBuffer",
    "bidijkstra",
    "counters",
    "load",
    "mark_row_done",
    "register_labels",
    "table_batch",
    "table_query",
]

_SOURCE = Path(__file__).with_name("kernels.c")
_CACHE_DIR = Path(__file__).with_name("_kernel_cache")

_CDEF = """
typedef struct isl_scratch isl_scratch;
typedef struct {
    const int64_t *anc;
    const int64_t *dist;
    int64_t len;
} isl_labels;
typedef struct {
    int64_t n;
    const int64_t *ids;
    const double *table;
    const uint8_t *done;
} isl_gk;
isl_scratch *isl_scratch_new(void);
void isl_scratch_free(isl_scratch *s);
int isl_bidijkstra(
    isl_scratch *s, int64_t n,
    const int64_t *indptr, const int64_t *indices, const int64_t *weights,
    const int64_t *indptr_r, const int64_t *indices_r, const int64_t *weights_r,
    const int64_t *seed_fv, const int64_t *seed_fd, int64_t n_seed_f,
    const int64_t *seed_rv, const int64_t *seed_rd, int64_t n_seed_r,
    int64_t initial_mu, int64_t *out);
int isl_table_query(
    isl_scratch *s, const isl_gk *gk,
    const isl_labels *lab_s, int64_t off_s, int64_t len_s,
    const isl_labels *lab_t, int64_t off_t, int64_t len_t,
    int64_t *out, double *best);
int isl_table_batch(
    isl_scratch *s, const isl_gk *gk, int64_t q,
    isl_labels **lab_s, const int64_t *off_s, const int64_t *len_s,
    isl_labels **lab_t, const int64_t *off_t, const int64_t *len_t,
    double *out, int64_t *missing, int64_t *n_missing);
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

#: ``initial_mu`` meaning "no bound" on the C side (and Equation 1's
#: "no common ancestor" coming back from the table kernels).
_NO_BOUND = np.iinfo(np.int64).max

_I64 = np.dtype(np.int64)

_counts = {"validations": 0, "registrations": 0}
_counts_lock = threading.Lock()


def _count(name: str) -> None:
    with _counts_lock:
        _counts[name] += 1


def counters() -> Dict[str, int]:
    """Process-wide ``{"validations", "registrations"}`` counts.

    ``validations``: ``G_k`` array sets (table or CSR) checked and wrapped
    for C, once per thread and array set.  ``registrations``: label
    backings passed to :func:`register_labels`.  Neither moves on a warm
    query path; a worker's ``stats`` reply reports both.
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
        IMPLICIT.ptr = _ffi.NULL
        BACKEND, LOAD_ERROR = "c", None
    return BACKEND


class _Scratch:
    """One thread's C state: the native scratch, plus the last CSR arrays
    and the last ``G_k`` table it validated (each re-checked only when the
    arrays change, the table as one ``isl_gk`` record), plus the table
    query's result cells."""

    __slots__ = (
        "ptr",
        "csr_key",
        "csr_ptrs",
        "table_key",
        "table_gk",
        "table_views",
        "out",
        "best",
    )

    def __init__(self) -> None:
        ptr = _lib.isl_scratch_new()
        if ptr == _ffi.NULL:
            raise MemoryError("cannot allocate the search kernel's scratch")
        self.ptr = _ffi.gc(ptr, _lib.isl_scratch_free)
        self.csr_key: tuple = ()
        self.csr_ptrs: tuple = ()
        self.table_key: tuple = (None, None, None)
        self.table_gk = None
        self.table_views: tuple = ()
        self.out = _ffi.new("int64_t[2]")
        self.best = _ffi.new("double[1]")

    @classmethod
    def of(cls, pool) -> "_Scratch":
        """The pool's scratch, created on its first compiled call."""
        scratch = pool.kernel
        if scratch is None:
            scratch = pool.kernel = cls()
        return scratch

    def table(self, ids, table, done):
        """The table stage's C ``isl_gk`` record (``n``, ``ids``,
        ``table``, ``done``), validated once per array set.

        Keyed by array identity, so an engine that swaps in a new table
        (a §8.3 repair grows it) is re-validated on its next query; the
        cached buffer views hold the arrays, so the record never outlives
        them.
        """
        cached = self.table_key
        if ids is cached[0] and table is cached[1] and done is cached[2]:
            return self.table_gk
        _count("validations")
        n = len(ids) if isinstance(ids, np.ndarray) else -1
        if not _is_array(ids, _I64, (n,)) or (n > 1 and np.any(np.diff(ids) <= 0)):
            raise ValueError("G_k ids must be a strictly increasing int64 vector")
        if not _is_array(table, np.float64, (n, n)):
            raise ValueError(f"the G_k table must be a C-contiguous float64 {n}x{n} array")
        if not _is_array(done, np.bool_, (n,)):
            raise ValueError(f"the table's row flags must be a contiguous bool vector of {n}")
        views = (
            _ffi.from_buffer("int64_t[]", ids),
            _ffi.from_buffer("double[]", table),
            _ffi.from_buffer("uint8_t[]", done),
        )
        self.table_gk = _ffi.new(
            "isl_gk *", {"n": n, "ids": views[0], "table": views[1], "done": views[2]}
        )
        self.table_key, self.table_views = (ids, table, done), views
        return self.table_gk

    def csr(self, arrays: tuple, n: int) -> tuple:
        """C pointers to the six CSR arrays, validated once per array set
        (compared by identity) and vertex count (by value)."""
        key = self.csr_key
        if (
            key
            and n == key[-1]
            and all(a is b for a, b in zip(arrays, key))
        ):
            return self.csr_ptrs
        _count("validations")
        checked = [_int64(a) for a in arrays]
        for triple in (checked[:3], checked[3:]):
            _check_csr(*triple, n)
        ptrs = tuple(_ffi.from_buffer("int64_t[]", a) for a in checked)
        # Only arrays used in place are remembered: a converted copy
        # would go stale if the caller edits its list.
        if all(c is a for c, a in zip(checked, arrays)):
            self.csr_key, self.csr_ptrs = arrays + (n,), ptrs
        return ptrs


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
    pool,
    num_vertices: int,
    initial_mu: float,
    indptr_r: Optional[Sequence[int]] = None,
    indices_r: Optional[Sequence[int]] = None,
    weights_r: Optional[Sequence[int]] = None,
) -> Tuple[float, int, Tuple[int, int, int, int]]:
    """The compiled Stage 2; arguments as for the reference.

    Returns ``(distance, meet_dense, (settled_forward, settled_reverse,
    relaxed_edges, heap_pushes))``.  ``distance`` is ``initial_mu`` itself
    when the bound was never beaten (``meet_dense == -1``), as in the
    reference.  Int64 arrays are used in place; other sequences are
    converted per call.  Distances must stay below ``2**63``.
    """
    n = num_vertices
    if not 0 <= n < 2**31:
        raise ValueError(f"G_k size {n} outside the kernel's int32 vertex ids")
    if indptr_r is None:
        indptr_r, indices_r, weights_r = indptr, indices, weights
    scratch = _Scratch.of(pool)
    csr = scratch.csr((indptr, indices, weights, indptr_r, indices_r, weights_r), n)
    # Integral ceiling (exact for int types): for integer path lengths,
    # ``x < mu`` and ``x < ceil(mu)`` agree.
    bound = _NO_BOUND if initial_mu >= _NO_BOUND else int(-(-initial_mu // 1))
    out = _ffi.new("int64_t[6]")
    status = _lib.isl_bidijkstra(
        scratch.ptr,
        n,
        *csr,
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


class LabelBuffer:
    """One label backing (``anc``/``dist`` pair) registered with the kernels.

    ``ptr`` is the C ``isl_labels`` record the table kernels read spans
    of (``None`` without the compiled module); the record's pointers stay
    valid while this object lives, since it keeps the arrays (and cffi's
    buffer views of them) alive.  Label tables hand out spans
    ``(buffer, offset, length)`` over it and cut label views from
    :attr:`anc`/:attr:`dist`.
    """

    __slots__ = ("anc", "dist", "ptr", "_views")

    def __init__(self, anc, dist, ptr, views) -> None:
        self.anc = anc
        self.dist = dist
        self.ptr = ptr
        self._views = views


def register_labels(anc: np.ndarray, dist: np.ndarray) -> LabelBuffer:
    """Validate one label backing pair and wrap its pointers for C, once.

    Both must be 1-D C-contiguous ``int64`` ndarrays of equal length (a
    view over a snapshot mapping qualifies).  Called when a backing
    comes alive — a heap freeze, a snapshot adopt or shard open, a §8.3
    repack — never per query.
    """
    n = len(anc) if isinstance(anc, np.ndarray) else -1
    if not (_is_array(anc, _I64, (n,)) and _is_array(dist, _I64, (n,))):
        raise ValueError("a label backing must be two contiguous int64 vectors of one length")
    if _ffi is None:
        return LabelBuffer(anc, dist, None, ())
    _count("registrations")
    views = (_ffi.from_buffer("int64_t[]", anc), _ffi.from_buffer("int64_t[]", dist))
    ptr = _ffi.new("isl_labels *", {"anc": views[0], "dist": views[1], "len": len(anc)})
    return LabelBuffer(anc, dist, ptr, views)


#: The backing of implicit labels: the span ``(IMPLICIT, v, 1)`` is the
#: one-entry label ``{(v, 0)}`` (the C side reads a NULL record so).
IMPLICIT = LabelBuffer(None, None, None, ())


def _raise(status: int) -> None:
    """Raise for a negative table-kernel status."""
    if status == -3:
        raise ValueError("label span outside its registered backing")
    if status < 0:
        raise MemoryError("table kernel ran out of memory")


def table_query(span_s, span_t, ids, table, done, fill_row, pool) -> Tuple[float, bool]:
    """One query of a table-mode engine in one compiled call.

    ``span_s``/``span_t`` are the two labels as spans ``(buffer, offset,
    length)`` of :class:`LabelBuffer` backings, ``ids`` the sorted ``G_k``
    vertex ids (dense id = rank), ``table`` the lazily filled all-pairs
    float64 ``G_k`` table and ``done`` its filled rows.  Returns
    ``(distance, used_search)`` exactly as
    :meth:`repro.core.fastlabels.PackedEngineBase.staged` does on the
    reference path (Equation 1, then :meth:`search_distance` when both
    sides have seeds).  A row the query needs that is not filled yet goes
    to ``fill_row(dense_id)`` (which must set ``done``), then the call
    runs again.
    """
    # The warm path inlines _Scratch.of and the table key check.
    scratch = pool.kernel or _Scratch.of(pool)
    key = scratch.table_key
    if ids is key[0] and table is key[1] and done is key[2]:
        gk = scratch.table_gk
    else:
        gk = scratch.table(ids, table, done)
    buf_s, off_s, len_s = span_s
    buf_t, off_t, len_t = span_t
    out, best = scratch.out, scratch.best
    while True:
        status = _lib.isl_table_query(
            scratch.ptr, gk, buf_s.ptr, off_s, len_s, buf_t.ptr, off_t, len_t, out, best
        )
        if status != 3:
            break
        fill_row(out[1])
    if status < 0:
        _raise(status)
    if status == 2:
        return int(best[0]), True
    mu0 = out[0]
    return (math.inf if mu0 == _NO_BOUND else mu0), status == 1


def mark_row_done(done: np.ndarray, a: int, pool) -> None:
    """Set ``done[a]`` once table row ``a`` is written.

    With the compiled module this is a release store, which the table
    kernels (running without the GIL on other threads) pair with acquire
    loads, so they never read a row before its values.  ``pool`` is the
    calling thread's search pool: when its table record already holds a
    view of ``done``, the store goes through that view instead of
    wrapping the array again.
    """
    if BACKEND != "c":
        done[a] = True
        return
    if not (done.dtype == np.bool_ and done.ndim == 1 and 0 <= a < len(done)):
        raise ValueError(f"row {a} outside the table's bool row flags")
    scratch = pool.kernel
    if scratch is not None and scratch.table_key[2] is done and done.flags.writeable:
        view = scratch.table_views[2]
    else:
        view = _ffi.from_buffer("uint8_t[]", done, require_writable=True)
    _lib.isl_mark_done(view, a)


def _spans(spans):
    """Per-query ``(records, offsets, lengths)`` C arrays of label spans."""
    bufs, offs, lens = zip(*spans) if spans else ((), (), ())
    return (
        _ffi.new("isl_labels *[]", [b.ptr for b in bufs]),
        _ffi.new("int64_t[]", offs),
        _ffi.new("int64_t[]", lens),
    )


def table_batch(spans_s, spans_t, ids, table, done, fill_row, pool) -> List[float]:
    """:func:`table_query` for a batch of queries, in one compiled call.

    ``spans_s[i]``/``spans_t[i]`` are query ``i``'s label spans.  Answers
    are :func:`repro.core.fastlabels.batch_table_stage`'s over
    :func:`repro.core.fastlabels.batch_eq1`'s bounds.  The call reports
    every missing row at once; they are filled in ascending order and the
    batch runs again.
    """
    q = len(spans_s)
    if q != len(spans_t):
        raise ValueError("source and target label lists differ in length")
    scratch = _Scratch.of(pool)
    gk = scratch.table(ids, table, done)
    args = (*_spans(spans_s), *_spans(spans_t))
    out = _ffi.new("double[]", q)
    # Room for every forward seed: a label's seeds are among its entries.
    missing = _ffi.new("int64_t[]", sum(span[2] for span in spans_s))
    n_missing = _ffi.new("int64_t *")
    while True:
        status = _lib.isl_table_batch(
            scratch.ptr, gk, q, *args, out, missing, n_missing
        )
        if status < 0:
            _raise(status)
        if not n_missing[0]:
            break
        for a in sorted(set(_ffi.unpack(missing, n_missing[0]))):
            fill_row(a)
    return [int(d) if d != math.inf else d for d in _ffi.unpack(out, q)]


load()
