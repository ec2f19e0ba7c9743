"""Compiled search kernel: Algorithm 1's Stage 2 in C, loaded through cffi.

:func:`repro.core.query.csr_label_bidijkstra` is the one dispatch point
for the label-seeded bidirectional Dijkstra over the CSR ``G_k``.  It
calls :func:`bidijkstra` here when the compiled module loaded
(:data:`BACKEND` ``== "c"``) and the pure-Python
:func:`repro.core.query.csr_label_bidijkstra_reference` otherwise; both
return identical answers and identical :class:`SearchStats` counters.

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

The call releases the GIL.  Its scratch (distance maps, epoch stamps and
the two heaps, grown on demand in C) hangs off the caller's
:class:`repro.core.fastlabels.LabelArrayPool`, which the packed engines
keep one per thread, so two threads never search in one scratch set.
"""

from __future__ import annotations

import hashlib
import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["BACKEND", "LOAD_ERROR", "bidijkstra", "load"]

_SOURCE = Path(__file__).with_name("kernels.c")
_CACHE_DIR = Path(__file__).with_name("_kernel_cache")

_CDEF = """
typedef struct isl_scratch isl_scratch;
isl_scratch *isl_scratch_new(void);
void isl_scratch_free(isl_scratch *s);
int isl_bidijkstra(
    isl_scratch *s, int64_t n,
    const int64_t *indptr, const int64_t *indices, const int64_t *weights,
    const int64_t *indptr_r, const int64_t *indices_r, const int64_t *weights_r,
    const int64_t *seed_fv, const int64_t *seed_fd, int64_t n_seed_f,
    const int64_t *seed_rv, const int64_t *seed_rd, int64_t n_seed_r,
    int64_t initial_mu, int64_t *out);
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

#: ``initial_mu`` meaning "no bound" on the C side.
_NO_BOUND = np.iinfo(np.int64).max


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
    """One thread's C search state: the native scratch plus the last int64
    CSR arrays it validated (re-checked only when the arrays change)."""

    __slots__ = ("ptr", "csr_key", "csr_ptrs")

    def __init__(self) -> None:
        ptr = _lib.isl_scratch_new()
        if ptr == _ffi.NULL:
            raise MemoryError("cannot allocate the search kernel's scratch")
        self.ptr = _ffi.gc(ptr, _lib.isl_scratch_free)
        self.csr_key: tuple = ()
        self.csr_ptrs: tuple = ()

    def csr(self, arrays: tuple, n: int) -> tuple:
        """C pointers to the six CSR arrays, validated once per array set."""
        key = arrays + (n,)
        if len(key) == len(self.csr_key) and all(
            a is b for a, b in zip(key, self.csr_key)
        ):
            return self.csr_ptrs
        checked = [_int64(a) for a in arrays]
        for triple in (checked[:3], checked[3:]):
            _check_csr(*triple, n)
        ptrs = tuple(_ffi.from_buffer("int64_t[]", a) for a in checked)
        # Only arrays used in place are remembered: a converted copy
        # would go stale if the caller edits its list.
        if all(c is a for c, a in zip(checked, arrays)):
            self.csr_key, self.csr_ptrs = key, ptrs
        return ptrs


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


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
    scratch = pool.kernel
    if scratch is None:
        scratch = pool.kernel = _Scratch()
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


load()
