"""Property-based round trips: serialization, file formats, updates."""

import math
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dijkstra import dijkstra
from repro.core.directed import DirectedISLabelIndex
from repro.core.index import ISLabelIndex
from repro.core.paths import PathReconstructor
from repro.core.serialization import (
    load_directed_index,
    load_dynamic_directed_index,
    load_dynamic_index,
    load_index,
    save_snapshot,
)
from repro.core.updates import DynamicDirectedISLabelIndex, DynamicISLabelIndex
from repro.graph.io import (
    read_binary_adjacency,
    read_edge_list,
    write_binary_adjacency,
    write_edge_list,
)
from tests.properties.strategies import connected_graphs, digraphs, graphs


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=16))
def test_index_serialization_round_trip(g):
    import tempfile
    from pathlib import Path

    index = ISLabelIndex.build(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.snap"
        save_snapshot(index, path)
        loaded = load_index(path)
    for s in g.vertices():
        truth = dijkstra(g, s)
        for t in g.vertices():
            assert loaded.distance(s, t) == truth.get(t, math.inf)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_edge_list_round_trip(g):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_binary_adjacency_round_trip(g):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.bin"
        write_binary_adjacency(g, path)
        assert read_binary_adjacency(path) == g


@settings(max_examples=20, deadline=None)
@given(
    connected_graphs(min_vertices=4, max_vertices=14),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 5)), min_size=1, max_size=4
    ),
)
def test_lazy_inserts_never_underestimate(g, insert_specs):
    """§8.3 invariant: after any insertion sequence, answers >= truth."""
    dyn = DynamicISLabelIndex(g)
    n = g.num_vertices
    for i, (anchor_idx, weight) in enumerate(insert_specs):
        anchor = sorted(dyn.graph.vertices())[anchor_idx % n]
        dyn.insert_vertex(10_000 + i, {anchor: weight})
    for s in dyn.graph.vertices():
        truth = dijkstra(dyn.graph, s)
        for t in dyn.graph.vertices():
            # Upper-bound semantics: never less than the true distance
            # (inf >= finite means a missed route, which is allowed; a
            # value below the truth would be a soundness bug).
            assert dyn.distance(s, t) >= truth.get(t, math.inf)


_LAYOUTS = st.sampled_from([1, 3])


def _saved(index, tmp, shards):
    """Save ``index`` in the given layout; returns the path."""
    path = os.path.join(tmp, "x.shards" if shards > 1 else "x.snap")
    save_snapshot(index, path, shards=shards)
    return path


@settings(max_examples=15, deadline=None)
@given(graphs(max_vertices=12), _LAYOUTS)
def test_path_state_survives_snapshot(g, shards):
    """A with_paths index answers shortest_path identically after a save."""
    index = ISLabelIndex.build(g, with_paths=True)
    pairs = [(s, t) for s in g.vertices() for t in g.vertices()]
    before = PathReconstructor(index)
    expected = [before.shortest_path(s, t) for s, t in pairs]
    with tempfile.TemporaryDirectory() as tmp:
        after = PathReconstructor(load_index(_saved(index, tmp, shards)))
        assert [after.shortest_path(s, t) for s, t in pairs] == expected


@settings(max_examples=15, deadline=None)
@given(digraphs(max_vertices=10), _LAYOUTS)
def test_directed_path_state_survives_snapshot(dg, shards):
    index = DirectedISLabelIndex.build(dg, with_paths=True)
    pairs = [(s, t) for s in dg.vertices() for t in dg.vertices()]
    expected = [index.shortest_path(s, t) for s, t in pairs]
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_directed_index(_saved(index, tmp, shards))
        assert [loaded.shortest_path(s, t) for s, t in pairs] == expected


def _wave_step(dyns, rng, fresh, directed):
    """One random insert or delete, applied identically to every index."""
    vertices = sorted(dyns[0].graph.vertices())
    if rng.random() < 0.65 or len(vertices) <= 2:
        def arcs():
            chosen = rng.sample(vertices, rng.randint(1, min(2, len(vertices))))
            return {v: rng.randint(1, 4) for v in chosen}

        args = (arcs(), arcs()) if directed else (arcs(),)
        for dyn in dyns:
            dyn.insert_vertex(fresh, *(dict(a) for a in args))
    else:
        victim = rng.choice(vertices)
        for dyn in dyns:
            dyn.delete_vertex(victim)


def _check_resumed_wave(cls, load, g, seed, shards, build_kwargs, directed):
    """Save mid-wave, reload, finish the wave on both copies: identical."""
    rng = random.Random(seed)
    dyn = cls(g, **build_kwargs)
    for i in range(3):
        _wave_step([dyn], rng, 100_000 + i, directed)
    with tempfile.TemporaryDirectory() as tmp:
        back = load(_saved(dyn, tmp, shards))
    for i in range(3, 7):
        _wave_step([dyn, back], rng, 100_000 + i, directed)
    vertices = sorted(dyn.graph.vertices())
    pairs = [(s, t) for s in vertices for t in vertices]
    assert back.distances(pairs) == dyn.distances(pairs)
    assert back.inserts_applied == dyn.inserts_applied
    assert back.deletes_applied == dyn.deletes_applied
    assert back.approximate == dyn.approximate
    assert back._build_kwargs == {**dyn._build_kwargs, "engine": "fast"}
    dyn.rebuild()
    back.rebuild()
    assert back.index.k == dyn.index.k
    assert back.distances(pairs) == dyn.distances(pairs)


_BUILD_KWARGS = st.sampled_from([{}, {"k": 2}, {"sigma": 0.8}])


@settings(max_examples=15, deadline=None)
@given(
    connected_graphs(max_vertices=12), st.integers(0, 2**32 - 1), _LAYOUTS, _BUILD_KWARGS
)
def test_dynamic_state_resumes_mid_wave(g, seed, shards, build_kwargs):
    _check_resumed_wave(
        DynamicISLabelIndex, load_dynamic_index, g, seed, shards, build_kwargs, False
    )


@settings(max_examples=15, deadline=None)
@given(digraphs(max_vertices=10), st.integers(0, 2**32 - 1), _LAYOUTS, _BUILD_KWARGS)
def test_directed_dynamic_state_resumes_mid_wave(dg, seed, shards, build_kwargs):
    _check_resumed_wave(
        DynamicDirectedISLabelIndex,
        load_dynamic_directed_index,
        dg,
        seed,
        shards,
        build_kwargs,
        True,
    )
