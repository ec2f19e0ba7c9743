"""Unit tests for the array-native fast engine internals."""

import math

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.fastlabels import (
    APSP_BUDGET_ENV,
    DEFAULT_APSP_BUDGET_BYTES,
    FastEngine,
    LabelArrayPool,
    apsp_ceiling,
    as_array_label,
    array_label_entries,
    eq1_merge,
    fast_top_down_labels,
)
from repro.core.hierarchy import build_hierarchy
from repro.core.index import ISLabelIndex
from repro.core.labeling import top_down_labels
from repro.core.labels import eq1_distance_argmin, sort_label
from repro.core.query import csr_label_bidijkstra, label_bidijkstra
from repro.graph.generators import ensure_connected, erdos_renyi, grid_graph
from repro.graph.graph import Graph

from tests.conftest import random_pairs


class TestArrayLabels:
    def test_round_trip(self):
        entries = [(1, 0), (4, 2), (9, 7)]
        assert array_label_entries(as_array_label(entries)) == entries

    def test_empty(self):
        anc, d = as_array_label([])
        assert len(anc) == 0 and len(d) == 0
        assert array_label_entries((anc, d)) == []

    def test_eq1_merge_matches_reference(self):
        label_s = [(1, 3), (5, 2), (8, 1)]
        label_t = [(2, 1), (5, 4), (8, 9)]
        expected = eq1_distance_argmin(label_s, label_t)
        assert eq1_merge(as_array_label(label_s), as_array_label(label_t)) == expected

    def test_eq1_merge_disjoint_is_inf(self):
        dist, w = eq1_merge(
            as_array_label([(1, 1)]), as_array_label([(2, 1)])
        )
        assert math.isinf(dist) and w == -1

    def test_eq1_merge_empty_side(self):
        dist, w = eq1_merge(as_array_label([]), as_array_label([(2, 1)]))
        assert math.isinf(dist) and w == -1


class TestFastTopDown:
    @pytest.mark.parametrize("kwargs", [{}, {"full": True}, {"k": 3}])
    def test_matches_reference_labeler(self, random_graph, kwargs):
        hierarchy = build_hierarchy(random_graph, **(
            {"sigma": None, **kwargs} if kwargs else {}
        ))
        reference, _ = top_down_labels(hierarchy)
        lists, arrays = fast_top_down_labels(hierarchy)
        assert set(lists) == set(reference)
        for v, label in reference.items():
            assert lists[v] == sort_label(label), v
        for v, arr in arrays.items():
            assert array_label_entries(arr) == lists[v], v


class TestLabelArrayPool:
    def test_epoch_invalidates_without_clearing(self):
        pool = LabelArrayPool()
        e1 = pool.acquire(4)
        pool.dist_f[2] = 99
        pool.seen_f[2] = e1
        e2 = pool.acquire(4)
        assert e2 == e1 + 1
        assert pool.seen_f[2] != e2  # stale entry is dead without a clear
        assert len(pool.dist_f) == 4

    def test_growth_keeps_capacity(self):
        pool = LabelArrayPool()
        pool.acquire(2)
        pool.acquire(10)
        assert len(pool.dist_r) == 10
        pool.acquire(3)
        assert len(pool.dist_r) == 10


class TestFastEngine:
    def test_lazy_freeze(self, random_graph):
        index = ISLabelIndex.build(random_graph)
        engine = index._fast
        assert not engine.frozen
        index.distance(*random_pairs(random_graph, 1, seed=0)[0])
        assert engine.frozen

    def test_seeds_match_reference_extraction(self, random_graph):
        index = ISLabelIndex.build(random_graph)
        engine = index._fast
        engine.freeze()
        csr = engine.csr
        for v in random_graph.vertices():
            ids, dists = engine.seeds(v)
            got = sorted(zip((csr.original(i) for i in ids), dists))
            expected = sorted(
                (w, d) for w, d in index.label(v) if index.gk.has_vertex(w)
            )
            assert got == expected, v

    def test_seeds_numpy_mirror_lists(self, random_graph):
        engine = ISLabelIndex.build(random_graph)._fast
        engine.freeze()
        for v in random_graph.vertices():
            ids, dists = engine.seeds(v)
            ids_np, dists_np = engine.seeds_np(v)
            assert ids_np.tolist() == ids
            assert dists_np.tolist() == dists

    def test_apsp_rows_match_dijkstra_over_gk(self):
        g = ensure_connected(erdos_renyi(120, 300, seed=3, max_weight=7), seed=3)
        index = ISLabelIndex.build(g)
        engine = index._fast
        if not engine.has_apsp:
            pytest.skip("G_k exceeded the table threshold")
        csr = engine.csr
        n = csr.num_vertices
        for a in range(min(n, 10)):
            engine._fill_apsp_row(a)
            for b in range(n):
                expected = dijkstra_distance(
                    index.gk, csr.original(a), csr.original(b)
                )
                assert engine._apsp[a, b] == expected, (a, b)

    def test_engine_property(self, random_graph):
        assert ISLabelIndex.build(random_graph).engine == "fast"
        assert ISLabelIndex.build(random_graph, engine="dict").engine == "dict"
        with pytest.raises(Exception):
            ISLabelIndex.build(random_graph, engine="vroom")


class TestAdaptiveApspBudget:
    def test_default_budget_keeps_the_2048_ceiling(self):
        assert apsp_ceiling(DEFAULT_APSP_BUDGET_BYTES) == 2048
        assert apsp_ceiling(None) == 2048  # no env override in this test run

    def test_ceiling_scales_with_budget(self):
        assert apsp_ceiling(8 * 50 * 50) == 50
        assert apsp_ceiling(8 * 50 * 50 - 1) == 49
        assert apsp_ceiling(0) == 0
        assert apsp_ceiling(-5) == 0

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(APSP_BUDGET_ENV, "0.5")  # half a megabyte
        assert apsp_ceiling() == math.isqrt((512 * 1024) // 8)
        monkeypatch.setenv(APSP_BUDGET_ENV, "0")  # explicit disable
        assert apsp_ceiling() == 0

    def test_env_var_invalid_values_raise_named_error(self, monkeypatch):
        """Garbage in the env var must fail loudly, naming the variable
        and the accepted range — not silently disable the table."""
        for bad in ("not-a-number", "-3", "inf", "-inf", "nan", ""):
            monkeypatch.setenv(APSP_BUDGET_ENV, bad)
            with pytest.raises(ValueError, match=APSP_BUDGET_ENV) as excinfo:
                apsp_ceiling()
            assert "megabytes" in str(excinfo.value), bad

    def test_env_var_invalid_value_fails_engine_construction(
        self, monkeypatch, random_graph
    ):
        monkeypatch.setenv(APSP_BUDGET_ENV, "banana")
        with pytest.raises(ValueError, match=APSP_BUDGET_ENV):
            ISLabelIndex.build(random_graph)

    def test_constructor_budget_disables_table(self, random_graph):
        index = ISLabelIndex.build(random_graph)
        starved = FastEngine(
            index.gk, {v: index.label(v) for v in random_graph.vertices()},
            apsp_budget_bytes=0,
        )
        starved.freeze()
        assert not starved.has_apsp
        rich = ISLabelIndex.build(random_graph)._fast
        rich.freeze()
        if rich.has_apsp:
            for s, t in random_pairs(random_graph, 20, seed=2):
                assert starved.distance(s, t) == rich.distance(s, t)

    def test_env_budget_applies_to_built_engines(self, monkeypatch, random_graph):
        monkeypatch.setenv(APSP_BUDGET_ENV, "0")
        index = ISLabelIndex.build(random_graph)
        index._fast.freeze()
        assert index.search_mode == "csr"
        monkeypatch.delenv(APSP_BUDGET_ENV)
        default = ISLabelIndex.build(random_graph)
        pairs = random_pairs(random_graph, 25, seed=3)
        assert index.distances(pairs) == default.distances(pairs)


class TestCsrSearchParity:
    def test_matches_dict_search(self):
        g = ensure_connected(erdos_renyi(90, 260, seed=9, max_weight=9), seed=9)
        index = ISLabelIndex.build(g, engine="dict")
        fast = ISLabelIndex.build(g, engine="fast")
        engine = fast._fast
        engine.freeze()
        csr = engine.csr
        pool = engine.pool
        for s, t in random_pairs(g, 60, seed=4):
            if s == t:
                continue
            label_s = index.label(s)
            label_t = index.label(t)
            mu0, _ = eq1_distance_argmin(label_s, label_t)
            seeds_f = index._gk_seeds(label_s)
            seeds_r = index._gk_seeds(label_t)
            if not seeds_f or not seeds_r:
                continue
            reference = label_bidijkstra(
                index._gk_adjacency,
                index._gk_adjacency,
                seeds_f,
                seeds_r,
                initial_mu=mu0,
            )
            dense_f = ([csr.dense(v) for v, _ in seeds_f], [d for _, d in seeds_f])
            dense_r = ([csr.dense(v) for v, _ in seeds_r], [d for _, d in seeds_r])
            got, _, stats = csr_label_bidijkstra(
                engine.indptr,
                engine.indices,
                engine.weights,
                dense_f,
                dense_r,
                pool,
                csr.num_vertices,
                initial_mu=mu0,
            )
            assert got == reference.distance, (s, t)
            assert stats.settled_total >= 0


class TestIncrementalInvalidate:
    """invalidate(dirty): re-pack dirty labels, repair G_k structures."""

    @pytest.fixture
    def index(self):
        g = ensure_connected(erdos_renyi(60, 150, seed=21, max_weight=4), seed=21)
        return ISLabelIndex.build(g, engine="fast")

    def test_full_invalidate_drops_everything(self, index):
        engine = index._fast
        engine.freeze()
        engine.invalidate()
        assert not engine.frozen
        assert engine.csr is None and engine.labels == {}

    def test_dirty_label_repacked_in_place(self, index):
        engine = index._fast
        engine.freeze()
        victim = next(v for v in index._labels if not index.hierarchy.in_gk(v))
        untouched = next(
            v for v in index._labels if v != victim and not index.hierarchy.in_gk(v)
        )
        before_untouched = engine.labels[untouched]
        index._labels[victim] = [(victim, 0)]
        engine.invalidate({victim})
        assert engine.frozen, "incremental invalidation must not drop the freeze"
        assert array_label_entries(engine.labels[victim]) == [(victim, 0)]
        # Clean labels keep their views over the original backing buffers.
        assert engine.labels[untouched][0] is before_untouched[0]

    def test_dirty_vertex_removed_from_tables(self, index):
        engine = index._fast
        engine.freeze()
        victim = next(v for v in index._labels if not index.hierarchy.in_gk(v))
        del index._labels[victim]
        index.hierarchy.level_of.pop(victim)
        engine.invalidate({victim})
        assert engine.frozen
        assert victim not in engine.labels
        assert engine.table.seeds_np(victim) is None
        assert victim not in engine.table.vertex_ids()

    def test_gk_vertex_removal_falls_back_to_full(self, index):
        engine = index._fast
        engine.freeze()
        gk_vertex = next(iter(index.gk.vertices()))
        index.gk.remove_vertex(gk_vertex)
        index._labels.pop(gk_vertex, None)
        engine.invalidate({gk_vertex})
        assert not engine.frozen, "dense-id shifts require a full re-freeze"

    def test_oversized_dirty_set_falls_back_to_full(self, index):
        engine = index._fast
        engine.freeze()
        engine.incremental_max_fraction = 0.25
        # Dirty more labels than both the fraction and the floor allow.
        dirty = set(index._labels)
        assert len(dirty) <= 64  # floor would keep it incremental...
        engine.invalidate(set(range(200_000, 200_100)) | dirty)  # ...so exceed it
        assert not engine.frozen

    def test_disabled_incremental_always_drops(self, index):
        engine = index._fast
        engine.freeze()
        engine.incremental_max_fraction = 0.0
        victim = next(iter(index._labels))
        engine.invalidate({victim})
        assert not engine.frozen

    def test_pre_freeze_invalidate_forgets_prebuilt_arrays(self):
        # A full hierarchy produces deep labels, so some were merged
        # vectorially and sit in _prebuilt awaiting the first freeze.
        g = ensure_connected(erdos_renyi(150, 400, seed=22, max_weight=4), seed=22)
        index = ISLabelIndex.build(g, engine="fast", full=True)
        engine = index._fast
        assert not engine.frozen
        assert engine._prebuilt, "expected vectorially merged labels"
        victim = next(iter(engine._prebuilt))
        index._labels[victim] = [(victim, 0)]
        engine.invalidate({victim})
        assert victim not in engine._prebuilt
        engine.freeze()
        assert array_label_entries(engine.labels[victim]) == [(victim, 0)]

    def test_apsp_rows_survive_pure_label_patching(self, index):
        engine = index._fast
        engine.freeze()
        if engine._apsp is None:
            pytest.skip("G_k exceeds the table budget on this graph")
        pairs = random_pairs(index.hierarchy.gk, 10, seed=3)
        index.distances(pairs)  # fill some rows
        done_before = int(engine._apsp_done.sum())
        victim = next(v for v in index._labels if not index.hierarchy.in_gk(v))
        index._labels[victim] = [(victim, 0)]
        engine.invalidate({victim})
        assert engine.frozen
        assert int(engine._apsp_done.sum()) == done_before
