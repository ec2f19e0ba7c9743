"""The compiled kernels against the pure-Python reference.

``csr_label_bidijkstra`` dispatches to :mod:`repro.core.kernels` when the
C module loaded; ``csr_label_bidijkstra_reference`` stays the oracle.  The
two must agree on the distance, the meeting vertex and every
:class:`SearchStats` counter, since both pop the same ``(d, v)`` keys in
the same order.

A packed engine answers a whole query (both label lookups by vertex id,
Equation 1, then the ``G_k`` table reduction or the CSR search) in one
compiled call, and a batch in another; with ``kernels.BACKEND ==
"python"`` it runs the reference bodies (``eq1``, ``search_distance`` or
the CSR reference, ``batch_eq1``, ``batch_table_stage``).  Both must give
the same answers, the same ``used_search`` flags and the same ``query()``
fields.
"""

from __future__ import annotations

import contextlib
import math
import random
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra_distance
from repro.core import kernels, query
from repro.core.directed import DirectedISLabelIndex
from repro.core.engines import DIRECTED, UNDIRECTED, resolve_engine
from repro.core.fastlabels import (
    _TABLE_FLAT_CAP,
    APSP_BUDGET_ENV,
    FastEngine,
    FlatLabels,
    LabelArrayPool,
)
from repro.core.index import ISLabelIndex
from repro.core.query import csr_label_bidijkstra, csr_label_bidijkstra_reference
from repro.core.serialization import load_directed_index, load_index, save_snapshot
from repro.core.updates import DynamicDirectedISLabelIndex, DynamicISLabelIndex
from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.generators import grid_graph
from repro.graph.graph import Graph

from tests.conftest import random_pairs

compiled = pytest.mark.skipif(
    kernels.BACKEND != "c", reason=f"compiled kernel unavailable: {kernels.LOAD_ERROR}"
)


def _csr(n, arcs):
    """CSR triple (as lists) of the arcs ``(u, v, w)`` over ``0..n-1``."""
    arcs = sorted(arcs)
    indptr = [0] * (n + 1)
    for u, _, _ in arcs:
        indptr[u + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    return indptr, [v for _, v, _ in arcs], [w for _, _, w in arcs]


@st.composite
def search_inputs(draw):
    """A random G_k (undirected or directed), two seed sets and a bound."""
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    weight = st.one_of(st.integers(0, 12), st.integers(0, 2**40))
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=4 * n))
    directed = draw(st.booleans())
    if directed:
        forward = _csr(n, edges)
        reverse = _csr(n, [(v, u, w) for u, v, w in edges])
    else:
        forward = _csr(n, edges + [(v, u, w) for u, v, w in edges])
        reverse = (None, None, None)
    seed_dist = st.integers(0, 30)
    fwd = draw(st.dictionaries(vertex, seed_dist, max_size=n))
    # Reverse seeds overlap the forward ones, avoid them, or are empty.
    shape = draw(st.sampled_from(["any", "overlap", "disjoint", "empty"]))
    if shape == "overlap":
        rev = {v: draw(seed_dist) for v in fwd} | draw(
            st.dictionaries(vertex, seed_dist, max_size=n)
        )
    elif shape == "disjoint":
        rev = {
            v: d
            for v, d in draw(st.dictionaries(vertex, seed_dist, max_size=n)).items()
            if v not in fwd
        }
    elif shape == "empty":
        rev = {}
    else:
        rev = draw(st.dictionaries(vertex, seed_dist, max_size=n))
    if draw(st.booleans()):
        fwd, rev = rev, fwd  # one-sided either way round
    mu = draw(st.one_of(st.just(math.inf), st.integers(0, 80), st.floats(0, 80)))
    return n, forward, reverse, (list(fwd), list(fwd.values())), (list(rev), list(rev.values())), mu


def _run(fn, n, forward, reverse, seeds_f, seeds_r, mu, pool):
    return fn(
        *forward,
        seeds_f,
        seeds_r,
        pool,
        n,
        initial_mu=mu,
        indptr_r=reverse[0],
        indices_r=reverse[1],
        weights_r=reverse[2],
    )


# One pool per backend across examples: exercises epoch reuse and growth.
_REFERENCE_POOL = LabelArrayPool()
_KERNEL_POOL = LabelArrayPool()


@compiled
class TestDifferential:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(search_inputs())
    def test_kernel_matches_reference(self, case):
        n, forward, reverse, seeds_f, seeds_r, mu = case
        want = _run(csr_label_bidijkstra_reference, n, forward, reverse, seeds_f, seeds_r, mu, _REFERENCE_POOL)
        as_arrays = lambda triple: tuple(
            None if a is None else np.asarray(a, dtype=np.int64) for a in triple
        )
        got = _run(
            csr_label_bidijkstra,
            n,
            as_arrays(forward),
            as_arrays(reverse),
            as_arrays(seeds_f),
            as_arrays(seeds_r),
            mu,
            _KERNEL_POOL,
        )
        assert got == want
        assert type(got[0]) is type(want[0])

    def test_lists_are_accepted(self):
        indptr, indices, weights = _csr(3, [(0, 1, 2), (1, 0, 2), (1, 2, 5), (2, 1, 5)])
        args = (indptr, indices, weights, ([0], [0]), ([2], [0]))
        got = csr_label_bidijkstra(*args, LabelArrayPool(), 3)
        assert got == csr_label_bidijkstra_reference(*args, LabelArrayPool(), 3)

    def test_bad_inputs_raise_before_native_code(self):
        indptr, indices, weights = _csr(2, [(0, 1, 1), (1, 0, 1)])
        pool = LabelArrayPool()
        with pytest.raises(IndexError):
            csr_label_bidijkstra(indptr, indices, weights, ([5], [0]), ([0], [0]), pool, 2)
        with pytest.raises(ValueError):
            csr_label_bidijkstra(indptr, [0, 9], weights, ([0], [0]), ([1], [0]), pool, 2)
        with pytest.raises(ValueError):
            csr_label_bidijkstra(indptr[:-1], indices, weights, ([0], [0]), ([1], [0]), pool, 2)


@contextlib.contextmanager
def _backend(name):
    """Answer on one backend; the loaded one is restored afterwards."""
    saved = kernels.BACKEND
    kernels.BACKEND = name
    try:
        yield
    finally:
        kernels.BACKEND = saved


def _graph(directed, n, arcs):
    graph = DiGraph() if directed else Graph()
    for v in range(n):
        graph.add_vertex(v)
    for u, v, w in arcs:
        if directed:
            graph.add_edge(u, v, w)
        else:
            graph.merge_edge(u, v, w)
    return graph


@st.composite
def table_cases(draw):
    """A small graph, possibly disconnected, and how to serve it."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 14))
    vertex = st.integers(0, n - 1)
    weight = st.one_of(st.integers(1, 12), st.integers(1, 2**40))
    arcs = draw(
        st.lists(
            st.tuples(vertex, vertex, weight).filter(lambda arc: arc[0] != arc[1]),
            max_size=3 * n,
        )
    )
    return {
        "graph": _graph(directed, n, arcs),
        "k": draw(st.sampled_from([None, 2, 3])),
        # "sharded" serves a shards=3 snapshot of the built index.
        "engine": draw(st.sampled_from(["fast", "mmap", "sharded"])),
        # Engine built without the G_k vertices' own labels: their
        # endpoints fall back to the implicit ``([v], [0])`` label.
        "bare": draw(st.booleans()),
        "singles_first": draw(st.booleans()),
    }


def _serve(case, tmp):
    """``(index or None, engine)`` for one case, with a cold table;
    snapshots go under ``tmp``."""
    graph = case["graph"]
    directed = isinstance(graph, DiGraph)
    cls = DirectedISLabelIndex if directed else ISLabelIndex
    sharded = case["engine"] == "sharded"
    index = cls.build(graph, k=case["k"], engine="fast" if sharded else case["engine"])
    factory = resolve_engine(DIRECTED if directed else UNDIRECTED, case["engine"])
    extra = {"shards": 3} if sharded else {}
    if not case["bare"]:
        if not sharded:
            return index, index._fast
        path = tempfile.mkdtemp(dir=tmp)
        save_snapshot(index, path, shards=3)
        loaded = (load_directed_index if directed else load_index)(path, engine="sharded")
        return loaded, loaded._fast
    gk = index.gk
    tables = (index._out_labels, index._in_labels) if directed else (index._labels,)
    lists = [{v: e for v, e in table.items() if not gk.has_vertex(v)} for table in tables]
    return None, factory(gk, *lists, **extra)


def _report(index, engine, pairs, singles_first):
    """Everything the engine and its index report for ``pairs``."""

    def singles():
        return [(d, type(d), used, stats) for d, used, stats in map(engine.staged, *zip(*pairs))]

    def batch():
        return [(d, type(d)) for d in engine.distances(pairs)]

    got = {}
    for name, run in (("singles", singles), ("batch", batch))[:: 1 if singles_first else -1]:
        got[name] = run()
    if isinstance(index, ISLabelIndex):
        got["query"] = [
            (r.distance, type(r.distance), r.query_type, r.used_bidijkstra, r.label_ios, r.search)
            for r in (index.query(s, t) for s, t in pairs)
        ]
    elif index is not None:
        got["distance"] = [index.distance(s, t) for s, t in pairs]
    return got


def _compare_backends(case, pairs):
    """Reference answers vs the compiled path's, each on a cold table."""
    with tempfile.TemporaryDirectory() as tmp:
        return _compare_served(case, pairs, [_serve(case, tmp), _serve(case, tmp)])


def _compare_served(case, pairs, served):
    try:
        with _backend("python"):
            want = _report(*served[0], pairs, case["singles_first"])
        got = _report(*served[1], pairs, case["singles_first"])
    finally:
        for _, engine in served:
            if hasattr(engine, "close"):
                engine.close()
    assert got == want
    # distances() and the staged singles agree (float64-exact here).
    assert got["batch"] == [single[:2] for single in got["singles"]]
    return served[1][1]


@compiled
class TestTableStage:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(table_cases())
    def test_compiled_table_matches_reference(self, case):
        n = case["graph"].num_vertices
        _compare_backends(case, [(s, t) for s in range(n) for t in range(n)])

    def test_inputs_are_validated_before_native_code(self):
        ids = np.array([2, 5, 9], dtype=np.int64)
        table = np.zeros((3, 3))
        done = np.ones(3, dtype=bool)
        # Vertex 2: {(2, 0), (5, 1)}; vertex 7: {(2, 4)}; 9 reads as {(9, 0)}.
        flat = _flat([2, 7], [0, 2, 3], [2, 5, 2], [0, 1, 4], [0, 2, 3], [0, 1, 0], [0, 1, 4])
        labels = kernels.LabelRecord([0])
        labels.set(0, None, kernels.register_directory(flat))

        class Owner:
            def _fill_apsp_row(self, a):
                raise AssertionError(f"row {a} is already filled")

        record = kernels.EngineRecord(labels, labels, ids, table, done, None)
        assert kernels.staged(record, 2, 7, Owner()) == (4, True, None)
        assert kernels.staged(record, 9, 7, Owner()) == (4, True, None)
        assert kernels.query_batch(record, [(2, 7), (9, 7), (7, 7)], Owner()) == [4, 4, 0]
        for bad_table in (
            table.astype(np.float32),
            np.asfortranarray(np.arange(9.0).reshape(3, 3)),
            np.zeros((3, 4)),
            np.zeros(9),
            table.tolist(),
        ):
            with pytest.raises(ValueError):
                kernels.EngineRecord(labels, labels, ids, bad_table, done, None)
        read_only = done.copy()
        read_only.flags.writeable = False
        for bad_done in (done[:2], done.astype(np.uint8), np.ones(4, dtype=bool), done.tolist(), read_only):
            with pytest.raises(ValueError):
                kernels.EngineRecord(labels, labels, ids, table, bad_done, None)
        for bad_ids in (ids[::-1].copy(), ids.astype(np.int32), ids.tolist()):
            with pytest.raises(ValueError):
                kernels.EngineRecord(labels, labels, bad_ids, table, done, None)

    def test_corrupt_directories_raise_when_registered(self):
        """Directories come from snapshot files and C reads them unchecked,
        so registration rejects whatever would send it out of bounds."""
        good = ([2, 7], [0, 2, 3], [2, 5, 2], [0, 1, 4], [0, 2, 3], [0, 1, 0], [0, 1, 4])
        kernels.register_directory(_flat(*good))
        kernels.register_directory(_flat(*good), np.zeros(2, dtype=bool))
        corrupt = {
            "unsorted keys": ([7, 2],) + good[1:],
            "repeated keys": ([2, 2],) + good[1:],
            "falling indptr": (good[0], [0, 3, 2]) + good[2:],
            "indptr past the entries": (good[0], [0, 2, 4]) + good[2:],
            "indptr short of the entries": (good[0], [0, 1, 2]) + good[2:],
            "indptr not from 0": (good[0], [1, 2, 3]) + good[2:],
            "indptr of the wrong length": (good[0], [0, 3]) + good[2:],
            "falling seed bounds": good[:4] + ([0, 3, 2],) + good[5:],
            "seed bounds past the seeds": good[:4] + ([0, 2, 5],) + good[5:],
            "anc and dist of two lengths": good[:3] + ([0, 1],) + good[4:],
        }
        for why, arrays in corrupt.items():
            with pytest.raises(ValueError):
                kernels.register_directory(_flat(*arrays))
                pytest.fail(why)
        for bad in (
            _flat(*good)._replace(keys=np.array([2, 7], dtype=np.int32)),
            _flat(*good)._replace(anc=np.arange(6, dtype=np.int64)[::2]),
            _flat(*good)._replace(dist=[0, 1, 4]),
        ):
            with pytest.raises(ValueError):
                kernels.register_directory(bad)
        for bad_dead in (np.zeros(3, dtype=bool), np.zeros(2, dtype=np.uint8)):
            with pytest.raises(ValueError):
                kernels.register_directory(_flat(*good), bad_dead)


def _flat(*arrays):
    """A :class:`FlatLabels` of int64 copies of ``arrays``."""
    return FlatLabels(*(np.array(a, dtype=np.int64) for a in arrays))


def _seedy_case(directed, engine):
    """Vertices 100 and 101 each see every vertex of a 70-clique G_k."""
    arcs = []
    for i in range(70):
        for j in range(i + 1, 70):
            arcs.append((i, j, (i * 7 + j) % 11 + 1))
            if directed:
                arcs.append((j, i, (i * 5 + j) % 13 + 1))
        arcs.append((100, i, i % 5 + 1))
        arcs.append((i, 101, i % 3 + 1))
    graph = _graph(directed, 0, arcs)
    return {"graph": graph, "k": 2, "engine": engine, "bare": False, "singles_first": False}


@pytest.mark.parametrize("engine", ["fast", "mmap"])
@pytest.mark.parametrize("directed", [False, True])
def test_seed_pairs_beyond_the_flat_cap(directed, engine):
    """A batch holding a pair past ``_TABLE_FLAT_CAP`` seed pairs, which the
    reference answers on its own, agrees with the singles on both backends."""
    pairs = [(100, 101), (101, 100), (100, 3), (7, 101), (4, 9), (100, 100)]
    served = _compare_backends(_seedy_case(directed, engine), pairs)
    assert served.has_apsp
    assert len(served._seeds_of(0, 100)[0]) * len(served._seeds_of(1, 101)[0]) > _TABLE_FLAT_CAP


class TestLoader:
    @compiled
    def test_build_publishes_atomically_outside_tempdir(self, tmp_path, monkeypatch):
        spill = tmp_path / "tmp"
        spill.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill))
        monkeypatch.setattr(kernels, "_CACHE_DIR", tmp_path / "cache")
        for name in ("BACKEND", "LOAD_ERROR", "_ffi", "_lib"):
            monkeypatch.setattr(kernels, name, getattr(kernels, name))
        assert kernels.load() == "c"
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [
            kernels._module_name() + kernels.sysconfig.get_config_var("EXT_SUFFIX")
        ]
        assert list(spill.iterdir()) == []

    def test_unavailable_module_falls_back_to_reference(self, tmp_path, monkeypatch):
        g = grid_graph(8, 8, seed=1, max_weight=5)
        pairs = random_pairs(g, 40, seed=5)
        tabled = ISLabelIndex.build(g)
        assert tabled.search_mode == "apsp"
        table_fields = lambda: [
            (r.distance, r.used_bidijkstra, r.search)
            for r in (tabled.query(s, t) for s, t in pairs)
        ]
        want_table = tabled._fast.distances(pairs)
        want_table_query = table_fields()
        monkeypatch.setenv(APSP_BUDGET_ENV, "0")  # CSR search stage
        index = ISLabelIndex.build(g)
        engine = index._fast
        engine.freeze()
        assert index.search_mode == "csr"
        want = engine.distances(pairs)
        want_query = [index.query(s, t).search for s, t in pairs]
        assert any(stats is not None for stats in want_query)  # CSR stats reported

        def no_compiler(name, target):
            raise subprocess.CalledProcessError(1, "cc", stderr=b"error: cc: not found")

        for name in ("BACKEND", "LOAD_ERROR", "_ffi", "_lib"):
            monkeypatch.setattr(kernels, name, getattr(kernels, name))
        monkeypatch.setattr(kernels, "_CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(kernels, "_build", no_compiler)
        assert kernels.load() == "python"
        assert "cc: not found" in kernels.LOAD_ERROR

        calls = []
        reference = query.csr_label_bidijkstra_reference

        def spy(*args, **kwargs):
            calls.append(1)
            return reference(*args, **kwargs)

        monkeypatch.setattr(query, "csr_label_bidijkstra_reference", spy)
        assert engine.distances(pairs) == want
        assert [engine.distance(s, t) for s, t in pairs] == want
        assert [index.query(s, t).search for s, t in pairs] == want_query
        assert calls

        def unreachable(*args):
            raise AssertionError("the query kernels ran without the compiled module")

        for name in ("query", "query_batch", "staged"):
            monkeypatch.setattr(kernels, name, unreachable)
        assert tabled._fast.distances(pairs) == want_table
        assert table_fields() == want_table_query


def _race(engine, pairs, want, want_single):
    """Eight threads query ``engine`` (each from a different start) three
    times over; every answer must equal the single-threaded ones."""
    results = {}

    def reader(k):
        mine = pairs[k:] + pairs[:k]  # threads start at different pairs
        for _ in range(3):
            results.setdefault(k, []).append(
                (engine.distances(mine), [engine.distance(s, t) for s, t in mine])
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(8):
        rotated = want[k:] + want[:k]
        rotated_single = want_single[k:] + want_single[:k]
        assert results[k] == [(rotated, rotated_single)] * 3


def test_threads_share_one_engine_bit_exactly():
    """Eight threads query one CSR-mode engine; each has its own scratch."""
    g = grid_graph(14, 14, seed=3, max_weight=9)
    index = ISLabelIndex.build(g)
    engine = FastEngine(
        index.gk, {v: index.label(v) for v in g.vertices()}, apsp_budget_bytes=0
    )
    engine.freeze()
    assert not engine.has_apsp
    pairs = random_pairs(g, 120, seed=11)
    want = engine.distances(pairs)
    want_single = [engine.distance(s, t) for s, t in pairs]
    _race(engine, pairs, want, want_single)


def test_threads_fill_one_table_bit_exactly():
    """Eight threads share a table-mode engine whose table starts empty, so
    lazy row fills race the GIL-free table kernel; a §8.3 insert between
    the two waves swaps in a grown table, which each thread's cached
    pointers must follow."""
    g = grid_graph(12, 12, seed=3, max_weight=9)
    served = DynamicISLabelIndex(g, engine="fast")
    twin = DynamicISLabelIndex(g, engine="fast")  # answers on one thread
    engine, reference = served.index._fast, twin.index._fast
    engine.freeze()
    assert engine.has_apsp and not engine._apsp_done.any()
    pairs = random_pairs(g, 120, seed=11)
    fresh = max(g.vertices()) + 1
    for wave in range(2):
        if wave:
            table = engine._apsp
            for dyn in (served, twin):
                dyn.insert_vertex(fresh, {0: 2, 77: 3, 143: 1})
            assert engine.frozen and engine._apsp is not table
            pairs = pairs + [(fresh, t) for _, t in pairs[:20]]
        want = reference.distances(pairs)
        want_single = [reference.distance(s, t) for s, t in pairs]
        _race(engine, pairs, want, want_single)


# ----------------------------------------------------------------------
# Pointer lifecycle: buffers are checked and wrapped when they come alive
# ----------------------------------------------------------------------
class _CountingFFI:
    """The module's cffi handle, counting ``from_buffer`` calls."""

    def __init__(self, ffi):
        self._ffi = ffi
        self.from_buffers = 0

    def from_buffer(self, *args, **kwargs):
        self.from_buffers += 1
        return self._ffi.from_buffer(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ffi, name)


def _moved(before):
    """How far each :func:`kernels.counters` count moved since ``before``."""
    return {name: count - before[name] for name, count in kernels.counters().items()}


_FLAT = {"validations": 0, "registrations": 0}


@compiled
def test_csr_pointers_validated_once_per_engine():
    """A CSR-mode engine over a ``G_k`` of more than 256 vertices checks its
    CSR arrays once, when its record is built, however many threads
    search it."""
    g = grid_graph(40, 40, seed=4, max_weight=9)
    index = ISLabelIndex.build(g, k=2)
    engine = FastEngine(
        index.gk, {v: index.label(v) for v in g.vertices()}, apsp_budget_bytes=0
    )
    engine.freeze()
    assert not engine.has_apsp and engine.csr.num_vertices > 256
    pairs = random_pairs(g, 100, seed=7)
    before = kernels.counters()
    searched = [engine.staged(s, t)[2] is not None for s, t in pairs]
    assert sum(searched) > 50
    assert _moved(before) == {"validations": 1, "registrations": 0}

    def reader():
        for s, t in pairs:
            engine.staged(s, t)

    threads = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert _moved(before) == {"validations": 1, "registrations": 0}


@compiled
def test_warm_csr_queries_make_no_buffer_calls(monkeypatch):
    """A warm CSR-mode engine seeds its searches from the registered seed
    arrays and answers into the thread's scratch: 200 singles and a batch
    make no ``ffi.from_buffer`` call, validation or registration."""
    monkeypatch.setenv(APSP_BUDGET_ENV, "0")
    g = grid_graph(40, 40, seed=4, max_weight=9)
    index = ISLabelIndex.build(g, k=2)
    assert index.search_mode == "csr"
    pairs = random_pairs(g, 200, seed=7)
    want = [dijkstra_distance(g, s, t) for s, t in pairs]
    assert index.distance(*pairs[0]) == want[0]  # builds the record
    counting = _CountingFFI(kernels._ffi)
    monkeypatch.setattr(kernels, "_ffi", counting)
    before = kernels.counters()
    assert [index.distance(s, t) for s, t in pairs] == want
    assert index.distances(pairs) == want
    assert sum(index.query(s, t).search is not None for s, t in pairs) > 100
    assert counting.from_buffers == 0
    assert _moved(before) == _FLAT


@compiled
@pytest.mark.parametrize("mode", ["table", "csr"])
@pytest.mark.parametrize("engine", ["mmap", "sharded"])
def test_snapshot_engines_validate_once(engine, mode, tmp_path, monkeypatch):
    """Engines serving a snapshot check their ``G_k`` arrays once, on the
    first query, however many singles and batches follow."""
    if mode == "csr":
        monkeypatch.setenv(APSP_BUDGET_ENV, "0")
    g = grid_graph(24, 24, seed=5, max_weight=9)
    path = tmp_path / "g.snap"
    save_snapshot(ISLabelIndex.build(g, k=2), path, shards=3 if engine == "sharded" else 1)
    loaded = load_index(path, engine=engine)
    assert loaded.search_mode == ("apsp" if mode == "table" else "csr")
    pairs = random_pairs(g, 200, seed=9)
    before = kernels.counters()
    want = loaded.distances(pairs)
    try:
        for _ in range(2):
            assert [loaded.distance(s, t) for s, t in pairs] == want
            assert sum((loaded.distances(pairs[i : i + 20]) for i in range(0, 200, 20)), []) == want
            assert _moved(before)["validations"] == 1
    finally:
        loaded._fast.close()


@compiled
@pytest.mark.parametrize("engine", ["fast", "mmap", "sharded"])
def test_warm_table_queries_make_no_buffer_calls(engine, tmp_path, monkeypatch):
    """After warm-up, single table-stage queries pass integers and cached
    pointers only: no ``ffi.from_buffer``, no validation, no registration."""
    g = grid_graph(20, 20, seed=6, max_weight=9)
    index = ISLabelIndex.build(g)
    if engine != "fast":
        path = tmp_path / "g.snap"
        save_snapshot(index, path, shards=3 if engine == "sharded" else 1)
        index = load_index(path, engine=engine)
    assert index.search_mode == "apsp"
    pairs = random_pairs(g, 1000, seed=12)
    want = [index.distance(s, t) for s, t in pairs]
    counting = _CountingFFI(kernels._ffi)
    monkeypatch.setattr(kernels, "_ffi", counting)
    before = kernels.counters()
    assert [index.distance(s, t) for s, t in pairs] == want
    assert counting.from_buffers == 0
    assert _moved(before) == _FLAT


@compiled
def test_row_fills_reuse_the_table_record(monkeypatch):
    """Once a thread's table record is validated, filling missing rows
    publishes them through the record's view of the row flags: no
    ``ffi.from_buffer`` per row."""
    g = grid_graph(20, 20, seed=6, max_weight=9)
    index = ISLabelIndex.build(g)
    assert index.search_mode == "apsp"
    engine = index._fast
    pairs = random_pairs(g, 400, seed=13)
    index.distance(*pairs[0])  # validates the record
    filled = int(engine._apsp_done.sum())
    counting = _CountingFFI(kernels._ffi)
    monkeypatch.setattr(kernels, "_ffi", counting)
    got = [index.distance(s, t) for s, t in pairs[1:]]
    assert int(engine._apsp_done.sum()) - filled >= 10
    assert counting.from_buffers == 0
    assert got == [dijkstra_distance(g, s, t) for s, t in pairs[1:]]


def _answers(dyn, pairs, singles_first):
    """Singles and batch answers (with their types) of a dynamic index."""

    def singles():
        return [(d, type(d)) for d in (dyn.distance(s, t) for s, t in pairs)]

    def batch():
        return [(d, type(d)) for d in dyn.distances(pairs)]

    runs = (("singles", singles), ("batch", batch))
    return {name: run() for name, run in runs[:: 1 if singles_first else -1]}


def _wave(dyns, rng, directed, next_id, deleted):
    """One §8.3 update, applied to every index alike: an insert of a fresh
    id or a re-insert of a deleted one, or a delete of a ``G_k`` vertex or
    of a peeled one.  Returns the next fresh id; ``deleted`` tracks the
    deleted ids not inserted again."""
    vertices = sorted(dyns[0].graph.vertices())

    def pick(lo, hi, avoid=()):
        chosen = rng.sample(vertices, rng.randint(lo, min(hi, len(vertices))))
        return {v: rng.randint(1, 4) for v in chosen if v not in avoid}

    if rng.random() < 0.55 or len(vertices) <= 2:
        if deleted and rng.random() < 0.4:
            vertex = deleted.pop(rng.randrange(len(deleted)))
        else:
            vertex, next_id = next_id, next_id + 1
        if directed:
            outs = pick(1, 2)
            args = (outs, pick(0, 2, avoid=outs))
        else:
            args = (pick(1, 3),)
        for dyn in dyns:
            dyn.insert_vertex(vertex, *map(dict, args))
        return next_id
    in_gk = dyns[0].index.hierarchy.in_gk
    sides = [[v for v in vertices if in_gk(v)], [v for v in vertices if not in_gk(v)]]
    side = sides[rng.random() < 0.5]
    victim = rng.choice(side or sides[0] or sides[1])
    for dyn in dyns:
        dyn.delete_vertex(victim)
    deleted.append(victim)
    return next_id


@compiled
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.booleans(),
    st.sampled_from(["fast", "mmap", "sharded"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_label_backings_follow_update_waves(directed, engine, seed, data):
    """§8.3 waves — inserts of fresh and of deleted ids, deletes of ``G_k``
    and of peeled vertices, so repacks that register fresh override
    directories with tombstones, grown tables and full re-freezes —
    interleaved with singles and batches: the compiled answers (and their
    types) equal the reference path's and the dict twin's, on both
    orientations; a warm repeat moves no kernel counter, and an uncovered
    vertex raises :class:`QueryError` from a single and from any position
    of a batch."""
    from tests.properties.strategies import connected_graphs, digraphs

    graph = data.draw(digraphs(max_vertices=10) if directed else connected_graphs(max_vertices=12))
    cls = DynamicDirectedISLabelIndex if directed else DynamicISLabelIndex
    served, reference = cls(graph, engine=engine), cls(graph, engine=engine)
    twin = cls(graph, engine="dict")
    rng = random.Random(seed)
    next_id = 100_000
    deleted: list = []
    try:
        for _ in range(4):
            fraction = 0.0 if rng.random() < 0.3 else FastEngine.INCREMENTAL_MAX_FRACTION
            for dyn in (served, reference):
                dyn.index._fast.incremental_max_fraction = fraction
            for _ in range(rng.randint(1, 3)):
                next_id = _wave((served, reference, twin), rng, directed, next_id, deleted)
            vertices = sorted(served.graph.vertices())
            pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(20)]
            singles_first = rng.random() < 0.5
            got = _answers(served, pairs, singles_first)
            with _backend("python"):
                want = _answers(reference, pairs, singles_first)
            assert got == want
            assert got["singles"] == [(d, type(d)) for d in map(twin.distance, *zip(*pairs))]
            before = kernels.counters()
            assert _answers(served, pairs, singles_first) == got
            assert _moved(before) == _FLAT
            absent = rng.choice(deleted) if deleted else next_id + 7
            some = rng.choice(vertices)
            for bad in ((absent, some), (some, absent)):
                with pytest.raises(QueryError):
                    served.distance(*bad)
                at = rng.randint(0, len(pairs))
                with pytest.raises(QueryError):
                    served.distances(pairs[:at] + [bad] + pairs[at:])
                # Below the facade, a deleted vertex reads as its implicit
                # label on both paths: its tombstone hides the stale one.
                got_engine = served.index._fast.staged(*bad)
                with _backend("python"):
                    assert reference.index._fast.staged(*bad) == got_engine
    finally:
        for dyn in (served, reference):
            if hasattr(dyn.index._fast, "close"):
                dyn.index._fast.close()
