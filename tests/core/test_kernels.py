"""The compiled search kernel against the pure-Python reference.

``csr_label_bidijkstra`` dispatches to :mod:`repro.core.kernels` when the
C module loaded; ``csr_label_bidijkstra_reference`` stays the oracle.  The
two must agree on the distance, the meeting vertex and every
:class:`SearchStats` counter, since both pop the same ``(d, v)`` keys in
the same order.
"""

from __future__ import annotations

import math
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels, query
from repro.core.fastlabels import APSP_BUDGET_ENV, FastEngine, LabelArrayPool
from repro.core.index import ISLabelIndex
from repro.core.query import csr_label_bidijkstra, csr_label_bidijkstra_reference
from repro.graph.generators import grid_graph

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
        monkeypatch.setenv(APSP_BUDGET_ENV, "0")  # CSR search stage
        g = grid_graph(8, 8, seed=1, max_weight=5)
        index = ISLabelIndex.build(g)
        engine = index._fast
        engine.freeze()
        assert index.search_mode == "csr"
        pairs = random_pairs(g, 40, seed=5)
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
