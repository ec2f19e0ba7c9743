"""Unit tests for index introspection."""

import pytest

from repro.core.analysis import describe_index, hierarchy_report, label_report
from repro.core.index import ISLabelIndex
from repro.graph.generators import ensure_connected, erdos_renyi, path_graph


@pytest.fixture(scope="module")
def index():
    g = ensure_connected(erdos_renyi(90, 220, seed=151, max_weight=3), seed=151)
    return ISLabelIndex.build(g)


class TestHierarchyReport:
    def test_rows_cover_every_level_plus_gk(self, index):
        rows = hierarchy_report(index)
        assert len(rows) == index.k
        assert [r.level for r in rows] == list(range(1, index.k + 1))

    def test_peeled_counts_match_levels(self, index):
        rows = hierarchy_report(index)
        for row in rows[:-1]:
            assert row.peeled == len(index.hierarchy.levels[row.level - 1])
        assert rows[-1].peeled == 0  # the G_k row

    @pytest.mark.parametrize("shards", [1, 3])
    def test_snapshot_loaded_report_matches_built(self, index, tmp_path, shards):
        # A loaded snapshot carries no removal adjacency; the per-level
        # counts must still match the built index's.
        from repro.core.serialization import load_index, save_snapshot

        path = tmp_path / "report.snap"
        save_snapshot(index, path, shards=shards)
        loaded = load_index(path, engine="mmap")
        assert hierarchy_report(loaded) == hierarchy_report(index)
        assert describe_index(loaded) == describe_index(index)

    def test_graph_sizes_match_trace(self, index):
        rows = hierarchy_report(index)
        for row, size in zip(rows, index.hierarchy.sizes):
            assert row.graph_size == size

    def test_shrink_ratios_respect_sigma_rule(self, index):
        rows = hierarchy_report(index)
        # Ratios are positive; all peeled levels except possibly the last
        # shrank by the σ rule (the final peel may even grow |G| — that is
        # precisely what makes the rule stop).
        for row in rows:
            assert row.shrink_ratio > 0.0
        sigma = index.hierarchy.sigma
        for row in rows[:-2]:
            assert row.shrink_ratio <= sigma


class TestLabelReport:
    def test_statistics_consistent(self, index):
        stats = label_report(index)
        assert stats["count"] == index.stats.num_vertices
        assert stats["min"] <= stats["median"] <= stats["max"]
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_mean_matches_index_stats(self, index):
        stats = label_report(index)
        # index.stats counts stored entries; G_k vertices contribute their
        # implicit single-entry labels to both views.
        assert stats["mean"] == pytest.approx(
            index.stats.label_entries / index.stats.num_vertices, rel=0.25
        )


class TestDescribe:
    def test_render_contains_key_facts(self, index):
        text = describe_index(index)
        assert f"k={index.k}" in text
        assert "(G_k)" in text
        assert "label entries per vertex" in text

    def test_path_graph_report(self):
        index = ISLabelIndex.build(path_graph(16))
        rows = hierarchy_report(index)
        # A path halves per level until the σ rule stops it.
        assert rows[0].peeled >= 7
        assert describe_index(index)
