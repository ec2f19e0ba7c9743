"""Unit tests for dynamic update maintenance (§8.3), both orientations,
including the fast-engine integration (incremental invalidation) and the
dynamic-state serialization round trip."""

import random

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.fastlabels import array_label_entries
from repro.core.serialization import (
    load_dynamic_directed_index,
    load_dynamic_index,
    save_snapshot,
)
from repro.core.updates import DynamicDirectedISLabelIndex, DynamicISLabelIndex
from repro.errors import GraphError, QueryError, StaleIndexError, StorageError
from repro.graph.digraph import DiGraph
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.graph.graph import Graph

from tests.conftest import random_pairs


@pytest.fixture
def base_graph():
    return ensure_connected(erdos_renyi(80, 200, seed=71, max_weight=3), seed=71)


@pytest.fixture
def dyn(base_graph):
    return DynamicISLabelIndex(base_graph)


class TestInsertion:
    def test_insert_then_query_new_vertex(self, dyn):
        dyn.insert_vertex(1000, {0: 2, 5: 1})
        truth = dijkstra_distance(dyn.graph, 1000, 17)
        answer = dyn.distance(1000, 17)
        assert answer >= truth
        assert dyn.distance(1000, 0) == 2 or dyn.distance(1000, 0) == 1 + dyn.graph.weight(0, 5)

    def test_insert_never_underestimates(self, dyn):
        rng = random.Random(3)
        for i in range(15):
            neighbours = {
                v: rng.randint(1, 3)
                for v in rng.sample(sorted(dyn.graph.vertices()), rng.randint(1, 3))
            }
            dyn.insert_vertex(2000 + i, neighbours)
        for s, t in random_pairs(dyn.graph, 150, seed=4):
            truth = dijkstra_distance(dyn.graph, s, t)
            assert dyn.distance(s, t) >= truth

    def test_insert_mostly_exact(self, dyn):
        rng = random.Random(5)
        for i in range(10):
            neighbours = {
                v: rng.randint(1, 3)
                for v in rng.sample(sorted(dyn.graph.vertices()), 3)
            }
            dyn.insert_vertex(3000 + i, neighbours)
        pairs = random_pairs(dyn.graph, 200, seed=6)
        exact = sum(
            dyn.distance(s, t) == dijkstra_distance(dyn.graph, s, t)
            for s, t in pairs
        )
        assert exact >= 0.9 * len(pairs)

    def test_insert_counts_staleness(self, dyn):
        dyn.insert_vertex(1000, {0: 1})
        dyn.insert_vertex(1001, {1000: 1})
        assert dyn.staleness == 2
        assert dyn.inserts_applied == 2
        assert not dyn.approximate  # inserts keep upper-bound guarantees

    def test_duplicate_insert_rejected(self, dyn):
        dyn.insert_vertex(1000, {0: 1})
        with pytest.raises(GraphError):
            dyn.insert_vertex(1000, {1: 1})

    def test_insert_needs_known_neighbours(self, dyn):
        with pytest.raises(GraphError):
            dyn.insert_vertex(1000, {424242: 1})

    def test_insert_needs_nonempty_adjacency(self, dyn):
        with pytest.raises(GraphError):
            dyn.insert_vertex(1000, {})

    def test_label_of_inserted_vertex_is_the_eq1_label(self, dyn):
        """``label(v)`` of a §8.3-inserted G_k vertex is its enriched
        label, the one Equation 1 reads on both engines."""
        dyn.insert_vertex(1000, {0: 2, 5: 1, 17: 3})
        index = dyn.index
        label = index.label(1000)
        assert len(label) > 1
        assert label == index._fetch_label(1000)
        assert label == array_label_entries(index._fast.label(1000))

    def test_insert_into_gk_neighbours(self, dyn):
        gk = sorted(dyn.index.gk.vertices())[:2]
        dyn.insert_vertex(1000, {gk[0]: 1, gk[1]: 2})
        truth = dijkstra_distance(dyn.graph, 1000, gk[1])
        assert dyn.distance(1000, gk[1]) == truth


class TestDeletion:
    def test_delete_marks_approximate(self, dyn):
        victim = sorted(dyn.graph.vertices())[0]
        dyn.delete_vertex(victim)
        assert dyn.approximate
        assert dyn.deletes_applied == 1

    def test_delete_unknown_vertex_rejected(self, dyn):
        with pytest.raises(GraphError):
            dyn.delete_vertex(999999)

    def test_deleted_vertex_gone_from_labels(self, dyn):
        victim = sorted(dyn.graph.vertices())[3]
        dyn.delete_vertex(victim)
        for entries in dyn.index._labels.values():
            assert all(anc != victim for anc, _ in entries)

    def test_exact_distance_guard(self, dyn):
        victim = sorted(dyn.graph.vertices())[0]
        dyn.delete_vertex(victim)
        others = sorted(dyn.graph.vertices())[:2]
        with pytest.raises(StaleIndexError):
            dyn.exact_distance(others[0], others[1])

    def test_insert_then_delete_round_trip(self, dyn):
        dyn.insert_vertex(1000, {0: 1})
        dyn.delete_vertex(1000)
        assert not dyn.graph.has_vertex(1000)
        for s, t in random_pairs(dyn.graph, 40, seed=8):
            assert dyn.distance(s, t) >= dijkstra_distance(dyn.graph, s, t)


    @pytest.mark.parametrize("directed", [False, True])
    def test_deleted_label_stops_marking_its_ancestors(self, directed):
        """A deleted vertex no longer counts as a label mentioning its
        ancestors: deleting one of them later, a G_k vertex no live label
        mentions, leaves the index exact (as a reloaded copy, whose
        descendant map starts fresh, would say)."""
        graph = DiGraph() if directed else Graph()
        for v in range(3):
            graph.add_vertex(v)
        cls = DynamicDirectedISLabelIndex if directed else DynamicISLabelIndex
        dyn = cls(graph)
        assert dyn.index.hierarchy.in_gk(2)
        dyn.insert_vertex(100, *(({2: 1}, {2: 1}) if directed else ({2: 1},)))
        dyn.delete_vertex(100)
        dyn.delete_vertex(2)
        assert not dyn.approximate


class TestRebuild:
    def test_rebuild_restores_exactness(self, dyn):
        rng = random.Random(9)
        for i in range(8):
            neighbours = {
                v: rng.randint(1, 3)
                for v in rng.sample(sorted(dyn.graph.vertices()), 2)
            }
            dyn.insert_vertex(4000 + i, neighbours)
        dyn.delete_vertex(4000)
        dyn.rebuild()
        assert dyn.staleness == 0
        assert not dyn.approximate
        for s, t in random_pairs(dyn.graph, 80, seed=10):
            assert dyn.distance(s, t) == dijkstra_distance(dyn.graph, s, t)

    def test_path_mode_rejected(self, base_graph):
        with pytest.raises(QueryError):
            DynamicISLabelIndex(base_graph, with_paths=True)

    def test_disk_storage_supported(self, base_graph):
        dyn = DynamicISLabelIndex(base_graph, storage="disk")
        dyn.insert_vertex(1000, {0: 1})
        for s, t in random_pairs(dyn.graph, 30, seed=11):
            assert dyn.distance(s, t) >= dijkstra_distance(dyn.graph, s, t)


class TestEngineIntegration:
    """§8.3 updates keep serving from the fast engine between rebuilds."""

    def test_default_engine_is_fast(self, dyn):
        assert dyn.engine == "fast"
        assert dyn.index.engine == "fast"

    def test_dict_engine_still_available(self, base_graph):
        ref = DynamicISLabelIndex(base_graph, engine="dict")
        assert ref.engine == "dict"
        ref.insert_vertex(1000, {0: 1})
        assert ref.distance(1000, 0) == 1

    def test_insert_keeps_engine_frozen(self, dyn):
        engine = dyn.index._fast
        dyn.distance(0, 1)  # freeze
        assert engine.frozen
        dyn.insert_vertex(1000, {0: 2, 5: 1})
        assert engine.frozen, "insert should invalidate incrementally"
        assert dyn.distance(1000, 0) <= 2

    def test_fast_matches_dict_after_updates(self, base_graph):
        rng = random.Random(13)
        fast = DynamicISLabelIndex(base_graph)
        ref = DynamicISLabelIndex(base_graph, engine="dict")
        for i in range(10):
            verts = sorted(fast.graph.vertices())
            if i % 3 == 2:
                victim = rng.choice(verts)
                fast.delete_vertex(victim)
                ref.delete_vertex(victim)
            else:
                adj = {
                    v: rng.randint(1, 3) for v in rng.sample(verts, rng.randint(1, 3))
                }
                fast.insert_vertex(5000 + i, dict(adj))
                ref.insert_vertex(5000 + i, dict(adj))
        pairs = random_pairs(fast.graph, 120, seed=14)
        expected = [ref.distance(s, t) for s, t in pairs]
        assert [fast.distance(s, t) for s, t in pairs] == expected
        assert fast.distances(pairs) == expected

    def test_forced_full_refreeze_matches_incremental(self, base_graph):
        rng = random.Random(15)
        incremental = DynamicISLabelIndex(base_graph)
        full = DynamicISLabelIndex(base_graph)
        full.index._fast.incremental_max_fraction = 0.0
        for i in range(6):
            verts = sorted(incremental.graph.vertices())
            adj = {v: rng.randint(1, 3) for v in rng.sample(verts, 2)}
            incremental.insert_vertex(6000 + i, dict(adj))
            full.insert_vertex(6000 + i, dict(adj))
            assert incremental.index._fast.frozen or i == 0
            pairs = random_pairs(incremental.graph, 40, seed=16 + i)
            assert incremental.distances(pairs) == full.distances(pairs)

    def test_gk_delete_falls_back_to_full_refreeze(self, dyn):
        engine = dyn.index._fast
        dyn.distance(0, 1)
        gk_vertex = next(iter(dyn.index.gk.vertices()))
        dyn.delete_vertex(gk_vertex)
        assert not engine.frozen
        # Next query re-freezes from the scrubbed labels and still answers.
        others = [v for v in sorted(dyn.graph.vertices())][:2]
        dyn.distance(others[0], others[1])
        assert engine.frozen

    def test_disk_storage_on_fast_engine(self, base_graph):
        dyn = DynamicISLabelIndex(base_graph, storage="disk")
        assert dyn.engine == "fast"
        dyn.insert_vertex(1000, {0: 1})
        for s, t in random_pairs(dyn.graph, 30, seed=17):
            assert dyn.distance(s, t) >= dijkstra_distance(dyn.graph, s, t)

    def test_rebuild_reattaches_fast_engine(self, dyn):
        dyn.insert_vertex(1000, {0: 1})
        dyn.rebuild()
        assert dyn.engine == "fast"
        assert dyn.distance(1000, 0) == 1


def _random_digraph(n, arcs, seed):
    rng = random.Random(seed)
    dg = DiGraph()
    for v in range(1, n):
        dg.add_edge(rng.randrange(v), v, rng.randint(1, 3))
    for _ in range(arcs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            dg.merge_edge(u, v, rng.randint(1, 3))
    return dg


class TestDynamicDirected:
    @pytest.fixture
    def ddyn(self):
        return DynamicDirectedISLabelIndex(_random_digraph(50, 120, seed=31))

    def test_insert_then_query(self, ddyn):
        ddyn.insert_vertex(1000, out_arcs={0: 2}, in_arcs={5: 1})
        assert ddyn.distance(1000, 0) == 2
        assert ddyn.distance(5, 1000) == 1
        assert ddyn.staleness == 1
        assert ddyn.engine == "fast"

    def test_insert_requires_an_arc(self, ddyn):
        with pytest.raises(GraphError):
            ddyn.insert_vertex(1000)

    def test_insert_rejects_unknown_endpoints(self, ddyn):
        with pytest.raises(GraphError):
            ddyn.insert_vertex(1000, out_arcs={424242: 1})

    def test_duplicate_insert_rejected(self, ddyn):
        ddyn.insert_vertex(1000, out_arcs={0: 1})
        with pytest.raises(GraphError):
            ddyn.insert_vertex(1000, out_arcs={1: 1})

    def test_fast_matches_dict_after_updates(self):
        graph = _random_digraph(40, 100, seed=32)
        rng = random.Random(33)
        fast = DynamicDirectedISLabelIndex(graph)
        ref = DynamicDirectedISLabelIndex(graph, engine="dict")
        for i in range(8):
            verts = sorted(fast.graph.vertices())
            if i % 4 == 3:
                victim = rng.choice(verts)
                fast.delete_vertex(victim)
                ref.delete_vertex(victim)
            else:
                outs = {rng.choice(verts): rng.randint(1, 3)}
                ins = {rng.choice(verts): rng.randint(1, 3)}
                fast.insert_vertex(7000 + i, dict(outs), dict(ins))
                ref.insert_vertex(7000 + i, dict(outs), dict(ins))
        verts = sorted(fast.graph.vertices())
        pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(100)]
        expected = [ref.distance(s, t) for s, t in pairs]
        assert [fast.distance(s, t) for s, t in pairs] == expected
        assert fast.distances(pairs) == expected

    def test_labels_of_inserted_vertex_are_the_eq1_labels(self, ddyn):
        """``out_label``/``in_label`` of a §8.3-inserted vertex are the
        enriched labels the engine's Equation 1 reads."""
        ddyn.insert_vertex(1000, out_arcs={0: 2, 3: 1}, in_arcs={5: 1, 7: 2})
        index = ddyn.index
        engine = index._fast
        out_label, in_label = index.out_label(1000), index.in_label(1000)
        assert len(out_label) > 1 and len(in_label) > 1
        assert out_label == array_label_entries(engine.out_label(1000))
        assert in_label == array_label_entries(engine.in_label(1000))

    def test_delete_marks_approximate_and_guards(self, ddyn):
        victim = sorted(ddyn.graph.vertices())[1]
        ddyn.delete_vertex(victim)
        assert ddyn.approximate
        others = sorted(ddyn.graph.vertices())[:2]
        with pytest.raises(StaleIndexError):
            ddyn.exact_distance(others[0], others[1])
        ddyn.rebuild()
        assert not ddyn.approximate and ddyn.staleness == 0

    def test_deleted_vertex_scrubbed_from_both_tables(self, ddyn):
        victim = sorted(ddyn.graph.vertices())[3]
        ddyn.delete_vertex(victim)
        for table in (ddyn.index._out_labels, ddyn.index._in_labels):
            for entries in table.values():
                assert all(anc != victim for anc, _ in entries)


class TestDynamicSerialization:
    def test_undirected_round_trip(self, dyn, tmp_path):
        rng = random.Random(41)
        for i in range(5):
            verts = sorted(dyn.graph.vertices())
            dyn.insert_vertex(8000 + i, {rng.choice(verts): rng.randint(1, 3)})
        dyn.delete_vertex(2)
        path = tmp_path / "dyn.snap"
        save_snapshot(dyn, path)
        back = load_dynamic_index(path)
        assert back.staleness == dyn.staleness == 6
        assert back.approximate == dyn.approximate
        assert back.engine == "fast"
        pairs = random_pairs(dyn.graph, 60, seed=42)
        assert [back.distance(s, t) for s, t in pairs] == [
            dyn.distance(s, t) for s, t in pairs
        ]
        # The restored index keeps absorbing updates.
        anchor = sorted(back.graph.vertices())[0]
        back.insert_vertex(9000, {anchor: 1})
        assert back.distance(9000, anchor) == 1

    def test_undirected_round_trip_dict_engine(self, dyn, tmp_path):
        dyn.insert_vertex(8000, {0: 2})
        path = tmp_path / "dyn.snap"
        save_snapshot(dyn, path)
        back = load_dynamic_index(path, engine="dict")
        assert back.engine == "dict"
        assert back.distance(8000, 0) == dyn.distance(8000, 0)

    def test_directed_round_trip(self, tmp_path):
        ddyn = DynamicDirectedISLabelIndex(_random_digraph(40, 90, seed=43))
        rng = random.Random(44)
        for i in range(4):
            verts = sorted(ddyn.graph.vertices())
            ddyn.insert_vertex(
                8100 + i,
                {rng.choice(verts): rng.randint(1, 3)},
                {rng.choice(verts): rng.randint(1, 3)},
            )
        path = tmp_path / "dyn.snap"
        save_snapshot(ddyn, path)
        back = load_dynamic_directed_index(path)
        assert back.staleness == 4 and back.engine == "fast"
        verts = sorted(ddyn.graph.vertices())
        pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(60)]
        assert back.distances(pairs) == ddyn.distances(pairs)

    def test_round_trip_preserves_build_kwargs(self, base_graph, tmp_path):
        dyn = DynamicISLabelIndex(base_graph, k=5)
        assert dyn.index.k == 5
        dyn.insert_vertex(8000, {0: 1})
        path = tmp_path / "dyn.snap"
        save_snapshot(dyn, path)
        back = load_dynamic_index(path)
        back.rebuild()
        assert back.index.k == 5, "rebuild() must reproduce the saved config"
        assert back.engine == "fast"

    def test_wrong_magic_rejected(self, dyn, tmp_path):
        path = tmp_path / "dyn.snap"
        save_snapshot(dyn, path)
        with pytest.raises(StorageError):
            load_dynamic_directed_index(path)
