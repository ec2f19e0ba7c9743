"""Unit tests for directed snapshot save/load."""

import math
import random

import pytest

from repro.baselines.dijkstra import dijkstra_digraph_distance
from repro.core.directed import DirectedISLabelIndex
from repro.core.serialization import (
    load_directed_index,
    load_index,
    save_snapshot,
)
from repro.errors import StorageError
from repro.graph.digraph import DiGraph


def _random_digraph(n, arcs, seed, max_weight=4):
    rng = random.Random(seed)
    dg = DiGraph()
    for v in range(n):
        dg.add_vertex(v)
    placed = 0
    while placed < arcs:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not dg.has_edge(u, v):
            dg.add_edge(u, v, rng.randint(1, max_weight))
            placed += 1
    return dg


@pytest.fixture(scope="module")
def digraph():
    return _random_digraph(90, 300, seed=171)


class TestRoundTrip:
    def test_distances_survive(self, digraph, tmp_path):
        index = DirectedISLabelIndex.build(digraph)
        path = tmp_path / "d.snap"
        written = save_snapshot(index, path)
        assert written == path.stat().st_size
        loaded = load_directed_index(path)
        rng = random.Random(1)
        for _ in range(120):
            s, t = rng.randrange(90), rng.randrange(90)
            assert loaded.distance(s, t) == dijkstra_digraph_distance(digraph, s, t)

    def test_metadata_survives(self, digraph, tmp_path):
        index = DirectedISLabelIndex.build(digraph)
        path = tmp_path / "d.snap"
        save_snapshot(index, path)
        loaded = load_directed_index(path)
        assert loaded.k == index.k
        assert loaded.hierarchy.sizes == index.hierarchy.sizes
        assert loaded.label_entries == index.label_entries

    def test_labels_identical(self, digraph, tmp_path):
        index = DirectedISLabelIndex.build(digraph)
        path = tmp_path / "d.snap"
        save_snapshot(index, path)
        loaded = load_directed_index(path)
        for v in range(0, 90, 9):
            assert loaded.out_label(v) == index.out_label(v)
            assert loaded.in_label(v) == index.in_label(v)

    def test_path_mode_round_trip(self, digraph, tmp_path):
        index = DirectedISLabelIndex.build(digraph, with_paths=True)
        path = tmp_path / "d.snap"
        save_snapshot(index, path)
        loaded = load_directed_index(path)
        rng = random.Random(2)
        for _ in range(80):
            s, t = rng.randrange(90), rng.randrange(90)
            dist, p = loaded.shortest_path(s, t)
            assert dist == dijkstra_digraph_distance(digraph, s, t)
            if p is not None:
                assert all(digraph.has_edge(a, b) for a, b in zip(p, p[1:]))
                assert sum(digraph.weight(a, b) for a, b in zip(p, p[1:])) == dist


class TestFailureInjection:
    def test_undirected_loader_rejects_directed_file(self, digraph, tmp_path):
        index = DirectedISLabelIndex.build(digraph)
        path = tmp_path / "d.snap"
        save_snapshot(index, path)
        with pytest.raises(StorageError, match="directed snapshot"):
            load_index(path)

    def test_directed_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(StorageError):
            load_directed_index(path)

    def test_truncation_detected(self, digraph, tmp_path):
        index = DirectedISLabelIndex.build(digraph)
        path = tmp_path / "d.snap"
        save_snapshot(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            load_directed_index(path)
