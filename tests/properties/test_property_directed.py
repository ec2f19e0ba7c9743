"""Property-based correctness of the directed index (§8.2).

Includes the cross-engine properties: the directed fast engine (packed
out/in label arrays, per-direction CSR search) must be answer-identical to
the dict reference and to a bidirectional Dijkstra oracle on arbitrary
random digraphs — including reachability mode (all weights 1), disconnected
pairs, and serialization round-trips.
"""

import math
import os
import tempfile

from hypothesis import given, settings

from repro.baselines.dijkstra import dijkstra_digraph
from repro.core.directed import DirectedISLabelIndex
from repro.core.query import label_bidijkstra
from repro.core.serialization import load_directed_index, save_snapshot
from tests.properties.strategies import digraphs


def _bidijkstra_oracle(dg, s, t):
    """Directed bidirectional Dijkstra over the whole graph (no labels)."""
    if s == t:
        return 0
    return label_bidijkstra(
        lambda v: dg.successors(v).items(),
        lambda v: dg.predecessors(v).items(),
        [(s, 0)],
        [(t, 0)],
    ).distance


def _all_pairs(dg):
    vertices = sorted(dg.vertices())
    return [(s, t) for s in vertices for t in vertices]


@settings(max_examples=50, deadline=None)
@given(digraphs())
def test_directed_index_matches_dijkstra(dg):
    index = DirectedISLabelIndex.build(dg)
    for s in dg.vertices():
        truth = dijkstra_digraph(dg, s)
        for t in dg.vertices():
            assert index.distance(s, t) == truth.get(t, math.inf), (s, t)


@settings(max_examples=30, deadline=None)
@given(digraphs(max_vertices=12))
def test_directed_full_hierarchy_matches(dg):
    index = DirectedISLabelIndex.build(dg, full=True)
    for s in dg.vertices():
        truth = dijkstra_digraph(dg, s)
        for t in dg.vertices():
            assert index.distance(s, t) == truth.get(t, math.inf)


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_out_in_labels_bound_true_distances(dg):
    index = DirectedISLabelIndex.build(dg)
    for v in dg.vertices():
        forward = dijkstra_digraph(dg, v)
        backward = dijkstra_digraph(dg, v, reverse=True)
        for w, d in index.out_label(v):
            assert d >= forward.get(w, math.inf) or w in forward
            assert d >= forward[w]
        for w, d in index.in_label(v):
            assert d >= backward[w]


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_reachability_consistent(dg):
    index = DirectedISLabelIndex.build(dg)
    for s in dg.vertices():
        truth = dijkstra_digraph(dg, s)
        for t in dg.vertices():
            assert index.reachable(s, t) == (t in truth)


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_directed_engines_agree_with_bidijkstra(dg):
    """fast == dict == bidirectional Dijkstra, per query and batched."""
    fast = DirectedISLabelIndex.build(dg)  # engine="fast" is the default
    ref = DirectedISLabelIndex.build(dg, engine="dict")
    assert fast.engine == "fast" and ref.engine == "dict"
    pairs = _all_pairs(dg)
    got_fast = fast.distances(pairs)
    got_ref = ref.distances(pairs)
    assert got_fast == got_ref
    for (s, t), d in zip(pairs, got_fast):
        assert d == _bidijkstra_oracle(dg, s, t), (s, t)
        assert fast.distance(s, t) == d, (s, t)


@settings(max_examples=25, deadline=None)
@given(digraphs(max_vertices=12))
def test_directed_csr_search_path_engines_agree(dg):
    """Force the flat-array bi-Dijkstra (no distance table) and re-compare."""
    fast = DirectedISLabelIndex.build(dg)
    fast._fast.freeze()
    fast._fast._apsp = None  # drop the G_k table: search must use the CSR path
    fast._fast._apsp_done = None
    assert fast.search_mode == "csr"
    ref = DirectedISLabelIndex.build(dg, engine="dict")
    pairs = _all_pairs(dg)
    assert fast.distances(pairs) == ref.distances(pairs)


@settings(max_examples=40, deadline=None)
@given(digraphs(max_weight=1))
def test_directed_reachability_mode_engines_agree(dg):
    """All weights 1 turns the index into a reachability oracle (§9)."""
    fast = DirectedISLabelIndex.build(dg)
    for s in dg.vertices():
        truth = dijkstra_digraph(dg, s)
        for t in dg.vertices():
            assert fast.reachable(s, t) == (t in truth), (s, t)
            assert fast.distance(s, t) == truth.get(t, math.inf), (s, t)


@settings(max_examples=25, deadline=None)
@given(digraphs(max_vertices=10), digraphs(max_vertices=6))
def test_directed_disconnected_pairs_are_inf_on_both_engines(dga, dgb):
    """Two disjoint components: every cross pair must be inf on each engine."""
    offset = max(dga.vertices()) + 1
    combined = dga.copy()
    for v in dgb.vertices():
        combined.add_vertex(v + offset)
    for u, v, w in dgb.edges():
        combined.add_edge(u + offset, v + offset, w)
    fast = DirectedISLabelIndex.build(combined)
    ref = DirectedISLabelIndex.build(combined, engine="dict")
    cross = [(s, t + offset) for s in dga.vertices() for t in dgb.vertices()]
    cross += [(t + offset, s) for s in dga.vertices() for t in dgb.vertices()]
    assert all(math.isinf(d) for d in fast.distances(cross))
    assert all(math.isinf(d) for d in ref.distances(cross))


@settings(max_examples=20, deadline=None)
@given(digraphs(max_vertices=12))
def test_directed_serialization_round_trip_engines_agree(dg):
    """Save/load preserves answers under both loaded engines."""
    index = DirectedISLabelIndex.build(dg)
    pairs = _all_pairs(dg)
    expected = index.distances(pairs)
    fd, path = tempfile.mkstemp(suffix=".snap")
    os.close(fd)
    try:
        save_snapshot(index, path)
        loaded_fast = load_directed_index(path)  # engine="fast" default
        loaded_ref = load_directed_index(path, engine="dict")
        assert loaded_fast.engine == "fast" and loaded_ref.engine == "dict"
        assert loaded_fast.distances(pairs) == expected
        assert loaded_ref.distances(pairs) == expected
    finally:
        os.unlink(path)


@settings(max_examples=30, deadline=None)
@given(digraphs(max_vertices=12))
def test_directed_paths_valid_and_tight(dg):
    index = DirectedISLabelIndex.build(dg, with_paths=True)
    for s in dg.vertices():
        truth = dijkstra_digraph(dg, s)
        for t in dg.vertices():
            dist, path = index.shortest_path(s, t)
            expected = truth.get(t, math.inf)
            assert dist == expected
            if math.isinf(expected):
                assert path is None
            else:
                assert path[0] == s and path[-1] == t
                assert all(dg.has_edge(a, b) for a, b in zip(path, path[1:]))
                assert (
                    sum(dg.weight(a, b) for a, b in zip(path, path[1:]))
                    == expected
                )


@settings(max_examples=15, deadline=None)
@given(digraphs())
def test_directed_snapshot_engines_agree(dg):
    """Directed ``mmap``/``sharded`` equal the dict oracle.

    Built directly (temporary-snapshot spill) and through explicit
    snapshot→load→query roundtrips of both layouts; digraphs may be
    unreachable in either direction, exercising ``inf`` answers.
    """
    ref = DirectedISLabelIndex.build(dg, engine="dict")
    pairs = _all_pairs(dg)
    expected = ref.distances(pairs)
    for name in ("mmap", "sharded"):
        built = DirectedISLabelIndex.build(dg, engine=name)
        assert built.engine == name
        assert built.distances(pairs) == expected, name
    fast = DirectedISLabelIndex.build(dg)
    mid = len(pairs) // 2
    with tempfile.TemporaryDirectory() as tmp:
        single = os.path.join(tmp, "dg.snap")
        sharded = os.path.join(tmp, "dg.shards")
        save_snapshot(fast, single)
        save_snapshot(fast, sharded, shards=3)
        for path in (single, sharded):
            for name in ("mmap", "sharded"):
                loaded = load_directed_index(path, engine=name)
                assert loaded.engine == name
                assert loaded.distances(pairs) == expected, (path, name)
                assert loaded.distance(*pairs[mid]) == expected[mid]
