"""Engine agreement on the dataset stand-ins, not just hypothesis graphs.

The property suites check every engine against the dict oracle on small
random graphs.  These tests run the same comparisons on the scaled-down
stand-ins (a grid, the google web graph at 0.15 scale, a power-law
graph, Barabási–Albert digraphs): deeper hierarchies, real ``G_k``
stages, both search modes and longer labels than hypothesis reaches.
"""

import random

import pytest

from repro.core.directed import DirectedISLabelIndex
from repro.core.fastlabels import APSP_BUDGET_ENV
from repro.core.index import ISLabelIndex
from repro.core.serialization import load_index, save_snapshot
from repro.core.updates import DynamicISLabelIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    barabasi_albert,
    ensure_connected,
    grid_graph,
    powerlaw_configuration,
    random_weights,
)
from repro.workloads.datasets import load_dataset

QUERIES = 100


def _pairs(graph, count=QUERIES, seed=7):
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    return [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]


def _orient(graph, seed, both=0.1):
    """Random orientation: each edge becomes one arc, or both."""
    rng = random.Random(seed)
    one_way = (1.0 - both) / 2
    dg = DiGraph()
    for v in graph.vertices():
        dg.add_vertex(v)
    for u, v, w in graph.edges():
        roll = rng.random()
        if roll < one_way:
            dg.merge_edge(u, v, w)
        elif roll < 2 * one_way:
            dg.merge_edge(v, u, w)
        else:
            dg.merge_edge(u, v, w)
            dg.merge_edge(v, u, w)
    return dg


def _grid():
    return grid_graph(10, 10, seed=11, max_weight=8)


def _google():
    return load_dataset("google", 0.15)


@pytest.mark.parametrize("make", [_grid, _google], ids=["grid10", "google-s"])
def test_undirected_fast_matches_dict(make):
    graph = make()
    pairs = _pairs(graph)
    want = ISLabelIndex.build(graph, engine="dict").distances(pairs)
    fast = ISLabelIndex.build(graph, engine="fast")
    assert fast.distances(pairs) == want
    assert [fast.distance(s, t) for s, t in pairs] == want


@pytest.mark.parametrize(
    "make, apsp_budget_mb",
    [
        (lambda: _orient(_grid(), 41), None),
        (lambda: _orient(_google(), 44), None),
        (
            lambda: _orient(
                ensure_connected(
                    random_weights(barabasi_albert(300, 3, seed=13), 9, seed=13),
                    seed=13,
                ),
                46,
            ),
            "0",
        ),
    ],
    ids=["dgrid10", "dgoogle-s", "dba300-csr"],
)
def test_directed_fast_matches_dict(make, apsp_budget_mb, monkeypatch):
    if apsp_budget_mb is not None:
        monkeypatch.setenv(APSP_BUDGET_ENV, apsp_budget_mb)
    dg = make()
    pairs = _pairs(dg)
    want = DirectedISLabelIndex.build(dg, engine="dict").distances(pairs)
    fast = DirectedISLabelIndex.build(dg, engine="fast")
    assert fast.distances(pairs) == want
    assert [fast.distance(s, t) for s, t in pairs] == want
    if apsp_budget_mb == "0":
        assert fast.search_mode == "csr"


def test_dynamic_insert_waves_agree():
    """Incremental re-packing, a forced full re-freeze and the dict engine
    answer identically across waves of inserts, each followed by reads
    that touch the new vertex."""
    graph = ensure_connected(
        powerlaw_configuration(300, 2.3, seed=20, min_degree=1), seed=20
    )
    incremental = DynamicISLabelIndex(graph)
    full = DynamicISLabelIndex(graph)
    full.index._fast.incremental_max_fraction = 0.0
    reference = DynamicISLabelIndex(graph, engine="dict")
    rng = random.Random(7)
    vertices = sorted(graph.vertices())
    for fresh in range(10_000_000, 10_000_005):
        adjacency = {
            v: rng.randint(1, 4) for v in rng.sample(vertices, rng.randint(1, 4))
        }
        pool = vertices + [fresh]
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(20)]
        answers = []
        for dyn in (incremental, full, reference):
            dyn.insert_vertex(fresh, dict(adjacency))
            answers.append(dyn.distances(pairs))
        assert answers[0] == answers[1] == answers[2]
        vertices.append(fresh)


def test_snapshot_sources_agree(tmp_path):
    """The same index served from single-file and sharded snapshots, under
    the heap engine (re-packed on load) and the zero-copy engines."""
    graph = _google()
    pairs = _pairs(graph)
    built = ISLabelIndex.build(graph)
    want = built.distances(pairs)
    single = str(tmp_path / "g.snap")
    shards = str(tmp_path / "g.shards")
    save_snapshot(built, single)
    save_snapshot(built, shards, shards=8)
    sources = [
        (single, "fast"),
        (single, "mmap"),
        (shards, "fast"),
        (shards, "sharded"),
    ]
    for path, engine in sources:
        got = load_index(path, engine=engine).distances(pairs)
        assert got == want, (path, engine)

