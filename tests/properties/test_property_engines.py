"""Cross-engine property tests: fast engine == dict engine == Dijkstra.

The fast engine (packed array labels, CSR / distance-table search) must be
*bit-identical* to the dict reference on every query — distances, Table 5
query types, I/O accounting — and both must match the Dijkstra oracle,
on arbitrary random weighted graphs including disconnected ones, across
every hierarchy configuration (σ-rule, explicit k, full) and both storage
modes, plus the batch path — including the one-pair batch, which the
packed engines answer on the scalar path (fast, mmap, sharded and the
directed fast engine).
"""

import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.directed import DirectedISLabelIndex
from repro.core.index import ISLabelIndex
from repro.core.serialization import load_index, save_snapshot
from tests.properties.strategies import connected_graphs, digraphs, graphs


def _all_pairs(graph):
    vertices = sorted(graph.vertices())
    return [(s, t) for s in vertices for t in vertices]


def _assert_one_pair_batches_agree(index, pairs, expected):
    """``distances([(s, t)])`` (answered on the scalar path) equals
    ``[distance(s, t)]`` and ``expected``, with the same int/inf types a
    larger batch returns."""
    batch = index.distances(pairs)
    assert batch == expected
    for pair, want, typed in zip(pairs, expected, batch):
        (got,) = index.distances([pair])
        assert got == want == index.distance(*pair), pair
        assert type(got) is type(typed), pair


def _block_reads(index, call):
    """Simulated label-store block reads one ``call()`` adds."""
    before = index.io_stats.block_reads
    call()
    return index.io_stats.block_reads - before


def _assert_engines_and_oracle_agree(graph, **build_kwargs):
    fast = ISLabelIndex.build(graph, engine="fast", **build_kwargs)
    ref = ISLabelIndex.build(graph, engine="dict", **build_kwargs)
    assert fast.engine == "fast" and ref.engine == "dict"
    disk = build_kwargs.get("storage") == "disk"
    for s in graph.vertices():
        truth = dijkstra(graph, s)
        for t in graph.vertices():
            expected = truth.get(t, math.inf)
            qf = fast.query(s, t)
            qd = ref.query(s, t)
            assert qf.distance == expected, (s, t, "fast")
            assert qd.distance == expected, (s, t, "dict")
            assert qf.query_type == qd.query_type, (s, t)
            assert qf.used_bidijkstra == qd.used_bidijkstra, (s, t)
            assert qf.label_ios == qd.label_ios, (s, t)
            if disk:
                # Every entry point charges the same label I/O as query().
                for index in (fast, ref):
                    reads = {
                        _block_reads(index, lambda: index.distance(s, t)),
                        _block_reads(index, lambda: index.distances([(s, t)])),
                        _block_reads(index, lambda: index.query(s, t)),
                    }
                    assert reads == {qd.label_ios}, (s, t, index.engine, reads)
    pairs = _all_pairs(graph)
    _assert_one_pair_batches_agree(fast, pairs, ref.distances(pairs))


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_sigma_engines_agree(g):
    _assert_engines_and_oracle_agree(g)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_full_hierarchy_engines_agree(g):
    _assert_engines_and_oracle_agree(g, full=True)


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(2, 6))
def test_explicit_k_engines_agree(g, k):
    _assert_engines_and_oracle_agree(g, k=k)


@settings(max_examples=20, deadline=None)
@given(connected_graphs())
def test_disk_storage_engines_agree(g):
    _assert_engines_and_oracle_agree(g, storage="disk")


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=18))
def test_csr_search_path_engines_agree(g):
    """Force the CSR bi-Dijkstra stage (no distance table) and re-compare."""
    fast = ISLabelIndex.build(g, engine="fast")
    fast._fast.freeze()
    fast._fast._apsp = None  # drop the G_k table: search must use the CSR path
    fast._fast._apsp_done = None
    assert fast.search_mode == "csr"
    ref = ISLabelIndex.build(g, engine="dict")
    for s in g.vertices():
        truth = dijkstra(g, s)
        for t in g.vertices():
            expected = truth.get(t, math.inf)
            assert fast.query(s, t).distance == expected, (s, t)
            assert ref.query(s, t).distance == expected, (s, t)
    pairs = _all_pairs(g)
    _assert_one_pair_batches_agree(fast, pairs, ref.distances(pairs))


@settings(max_examples=15, deadline=None)
@given(graphs())
def test_snapshot_engines_agree(g):
    """``mmap``/``sharded`` equal the dict oracle on arbitrary graphs.

    Covers both lifecycles: built directly (the engines spill and re-adopt
    a temporary snapshot) and an explicit snapshot→load→query roundtrip of
    single-file and sharded layouts.  ``graphs()`` may be disconnected, so
    ``inf`` answers are exercised throughout.
    """
    ref = ISLabelIndex.build(g, engine="dict")
    pairs = _all_pairs(g)
    expected = ref.distances(pairs)
    for name in ("mmap", "sharded"):
        built = ISLabelIndex.build(g, engine=name)
        assert built.engine == name
        _assert_one_pair_batches_agree(built, pairs, expected)
    fast = ISLabelIndex.build(g, engine="fast")
    mid = len(pairs) // 2
    with tempfile.TemporaryDirectory() as tmp:
        single = os.path.join(tmp, "g.snap")
        sharded = os.path.join(tmp, "g.shards")
        save_snapshot(fast, single)
        save_snapshot(fast, sharded, shards=3)
        for path in (single, sharded):
            for name in ("mmap", "sharded"):
                loaded = load_index(path, engine=name)
                assert loaded.engine == name
                assert loaded.distances(pairs) == expected, (path, name)
                assert loaded.distance(*pairs[mid]) == expected[mid]


@settings(max_examples=25, deadline=None)
@given(digraphs(max_vertices=14))
def test_directed_one_pair_batches_agree(dg):
    """Directed fast one-pair batches equal the dict engine, in table and
    CSR search mode; digraphs leave many pairs unreachable (``inf``)."""
    ref = DirectedISLabelIndex.build(dg, engine="dict")
    pairs = _all_pairs(dg)
    expected = ref.distances(pairs)
    fast = DirectedISLabelIndex.build(dg)
    _assert_one_pair_batches_agree(fast, pairs, expected)
    fast._fast._apsp = None  # drop the G_k table: search must use the CSR path
    fast._fast._apsp_done = None
    assert fast.search_mode == "csr"
    _assert_one_pair_batches_agree(fast, pairs, expected)


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=16))
def test_query_types_cover_all_three(g):
    """Per-query Table 5 types agree between engines for every pair."""
    fast = ISLabelIndex.build(g, engine="fast")
    ref = ISLabelIndex.build(g, engine="dict")
    for s in g.vertices():
        for t in g.vertices():
            assert fast.query(s, t).query_type == ref.query(s, t).query_type
