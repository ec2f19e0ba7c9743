"""The paper's running example, pinned exactly (Figures 1-3, Examples 1-6).

These tests replay §4/§5's 9-vertex walkthrough with the paper's own level
assignment and assert the published artefacts verbatim — the one exception
being the documented label(f) erratum (see repro/workloads/paper_example.py
and docs/ARCHITECTURE.md).
"""

import pytest

from repro.core.hierarchy import build_hierarchy_with_levels
from repro.core.index import ISLabelIndex
from repro.core.labeling import definition3_label, top_down_labels
from repro.core.paths import PathReconstructor, is_valid_path, path_length
from repro.workloads.paper_example import (
    EXAMPLE5_K2_LABELS,
    EXAMPLE_QUERIES,
    FIGURE2_LABELS,
    FIGURE2_PUBLISHED_LABEL_F,
    PAPER_LEVELS,
    VERTEX_IDS,
    VERTEX_NAMES,
    paper_example_graph,
)


@pytest.fixture(scope="module")
def graph():
    return paper_example_graph()


@pytest.fixture(scope="module")
def hierarchy(graph):
    levels = [[VERTEX_IDS[c] for c in level] for level in PAPER_LEVELS]
    return build_hierarchy_with_levels(graph, levels, with_hints=True)


@pytest.fixture(scope="module")
def labels(hierarchy):
    return top_down_labels(hierarchy)[0]


def _named(label):
    return {VERTEX_NAMES[w]: d for w, d in label.items()}


class TestFigure1:
    def test_graph_shape(self, graph):
        assert graph.num_vertices == 9
        assert graph.num_edges == 10
        assert graph.weight(VERTEX_IDS["e"], VERTEX_IDS["f"]) == 3

    def test_five_levels_then_empty(self, hierarchy):
        assert hierarchy.k == 6
        assert hierarchy.is_full

    def test_level_numbers(self, hierarchy):
        expected = {"c": 1, "f": 1, "i": 1, "b": 2, "d": 2, "h": 2, "e": 3, "a": 4, "g": 5}
        got = {VERTEX_NAMES[v]: lvl for v, lvl in hierarchy.level_of.items()}
        assert got == expected

    def test_augmenting_edges_match_example1(self, hierarchy):
        named = {
            (VERTEX_NAMES[a], VERTEX_NAMES[b]): VERTEX_NAMES[m]
            for (a, b), m in hierarchy.hints.items()
        }
        # (e,h,4) via f in G2; (e,g,2) via d in G3; (a,g,3) via e in G4.
        assert named == {("e", "h"): "f", ("e", "g"): "d", ("a", "g"): "e"}

    def test_g2_contains_augmenting_eh_weight4(self, graph):
        """Example 1: dist_G(e,h) = 3 but ω_G2(e,h) = 4 is kept anyway."""
        from repro.core.reduce import reduce_graph

        l1 = [VERTEX_IDS[c] for c in PAPER_LEVELS[0]]
        adj = {v: sorted(graph.neighbors(v).items()) for v in l1}
        g2 = reduce_graph(graph, l1, adj)
        assert g2.weight(VERTEX_IDS["e"], VERTEX_IDS["h"]) == 4


class TestFigure2:
    def test_all_labels_verbatim(self, labels):
        for name, expected in FIGURE2_LABELS.items():
            assert _named(labels[VERTEX_IDS[name]]) == expected, name

    def test_example2_ancestors_of_f(self, labels):
        assert set(_named(labels[VERTEX_IDS["f"]])) == {"f", "e", "h", "a", "g"}
        # d is NOT an ancestor of f (Example 2's observation).
        assert "d" not in _named(labels[VERTEX_IDS["f"]])

    def test_dhe_entry_exceeds_true_distance(self, labels):
        """d(h,e) = 4 in label(h) while dist_G(h,e) = 3 (Example 3)."""
        assert _named(labels[VERTEX_IDS["h"]])["e"] == 4

    def test_label_f_erratum(self, hierarchy, labels):
        """Definition 3 yields (g,2); the paper prints (g,5)."""
        def3 = definition3_label(hierarchy, VERTEX_IDS["f"])
        assert _named(def3)["g"] == 2
        assert FIGURE2_PUBLISHED_LABEL_F["g"] == 5
        assert _named(labels[VERTEX_IDS["f"]])["g"] == 2

    def test_definition3_matches_topdown_everywhere(self, hierarchy, labels):
        for name in FIGURE2_LABELS:
            v = VERTEX_IDS[name]
            assert definition3_label(hierarchy, v) == labels[v]


class TestExample4Queries:
    def test_published_answers(self, graph):
        index = ISLabelIndex.build(graph, full=True)
        for s, t, expected in EXAMPLE_QUERIES:
            assert index.distance(VERTEX_IDS[s], VERTEX_IDS[t]) == expected

    def test_symmetry(self, graph):
        index = ISLabelIndex.build(graph, full=True)
        for s, t, expected in EXAMPLE_QUERIES:
            assert index.distance(VERTEX_IDS[t], VERTEX_IDS[s]) == expected


class TestExample5And6:
    def test_k2_labels(self, graph):
        levels = [[VERTEX_IDS[c] for c in PAPER_LEVELS[0]]]
        h = build_hierarchy_with_levels(graph, levels)
        labels, _ = top_down_labels(h)
        for name, expected in EXAMPLE5_K2_LABELS.items():
            assert _named(labels[VERTEX_IDS[name]]) == expected

    def test_example6_bidijkstra_answer(self, graph):
        levels = [[VERTEX_IDS[c] for c in PAPER_LEVELS[0]]]
        h = build_hierarchy_with_levels(graph, levels)
        from repro.core.index import ISLabelIndex as IX

        index = ISLabelIndex.build(graph, k=2)
        report = index.query(VERTEX_IDS["c"], VERTEX_IDS["i"])
        assert report.distance == 3


class TestPathsOnExample:
    def test_paths_match_distances(self, graph):
        index = ISLabelIndex.build(graph, full=True, with_paths=True)
        reconstructor = PathReconstructor(index)
        names = sorted(VERTEX_IDS)
        for s in names:
            for t in names:
                dist, path = reconstructor.shortest_path(
                    VERTEX_IDS[s], VERTEX_IDS[t]
                )
                assert path is not None
                assert is_valid_path(graph, path)
                assert path_length(graph, path) == dist
