"""Unit tests for index save/load (the snapshot is the one on-disk format)."""

import pytest

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.index import ISLabelIndex
from repro.core.paths import PathReconstructor, path_length
from repro.core.serialization import load_index, save_snapshot
from repro.errors import StorageError
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.graph.graph import Graph

from tests.conftest import random_pairs


@pytest.fixture(scope="module")
def graph():
    return ensure_connected(erdos_renyi(90, 220, seed=81, max_weight=4), seed=81)


class TestRoundTrip:
    def test_distance_queries_survive(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "index.snap"
        written = save_snapshot(index, path)
        assert written == path.stat().st_size
        loaded = load_index(path)
        for s, t in random_pairs(graph, 60, seed=1):
            assert loaded.distance(s, t) == dijkstra_distance(graph, s, t)

    def test_metadata_survives(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "index.snap"
        save_snapshot(index, path)
        loaded = load_index(path)
        assert loaded.k == index.k
        assert loaded.hierarchy.sizes == index.hierarchy.sizes
        assert loaded.hierarchy.sigma == index.hierarchy.sigma
        assert loaded.stats.label_entries == index.stats.label_entries
        assert loaded.gk.num_edges == index.gk.num_edges

    def test_labels_identical(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "index.snap"
        save_snapshot(index, path)
        loaded = load_index(path)
        for v in list(graph.vertices())[::5]:
            assert loaded.label(v) == index.label(v)

    def test_path_mode_round_trip(self, graph, tmp_path):
        index = ISLabelIndex.build(graph, with_paths=True)
        path = tmp_path / "index.snap"
        save_snapshot(index, path)
        loaded = load_index(path)
        reconstructor = PathReconstructor(loaded)
        for s, t in random_pairs(graph, 40, seed=2):
            dist, p = reconstructor.shortest_path(s, t)
            assert dist == dijkstra_distance(graph, s, t)
            if p is not None:
                assert path_length(graph, p) == dist

    def test_full_hierarchy_round_trip(self, tmp_path):
        g = Graph([(0, 1, 2), (1, 2, 2), (2, 3, 1), (3, 0, 4)])
        index = ISLabelIndex.build(g, full=True)
        path = tmp_path / "full.snap"
        save_snapshot(index, path)
        loaded = load_index(path)
        for s in range(4):
            for t in range(4):
                assert loaded.distance(s, t) == index.distance(s, t)


class TestFailureInjection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(StorageError):
            load_index(path)

    def test_truncated_file(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "trunc.snap"
        save_snapshot(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) * 2 // 3])
        with pytest.raises(StorageError):
            load_index(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.snap"
        path.write_bytes(b"")
        with pytest.raises(StorageError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert "empty.snap" in message
        assert "0 bytes" in message

    def test_wrong_version(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "ver.snap"
        save_snapshot(index, path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # version halfword
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_index(path)


class TestTruncationDiagnostics:
    """Truncated/empty artifacts must fail as StorageError naming the
    path and the observed size — never a raw struct.error."""

    def test_empty_directed_file_names_path_and_size(self, tmp_path):
        from repro.core.serialization import load_directed_index

        path = tmp_path / "empty.snap"
        path.write_bytes(b"")
        with pytest.raises(StorageError) as excinfo:
            load_directed_index(path)
        assert "empty.snap" in str(excinfo.value)
        assert "0 bytes" in str(excinfo.value)

    def test_truncated_dynamic_header_names_path(self, tmp_path):
        from repro.core.serialization import load_dynamic_index

        path = tmp_path / "short.snap"
        path.write_bytes(b"ISNP")
        with pytest.raises(StorageError) as excinfo:
            load_dynamic_index(path)
        assert "short.snap" in str(excinfo.value)
        assert "4 bytes" in str(excinfo.value)

    def test_dynamic_loader_rejects_static_snapshot(self, graph, tmp_path):
        from repro.core.serialization import load_dynamic_index

        path = tmp_path / "static.snap"
        save_snapshot(ISLabelIndex.build(graph), path)
        with pytest.raises(StorageError, match="no dynamic state") as excinfo:
            load_dynamic_index(path)
        assert "static.snap" in str(excinfo.value)

    def test_truncated_snapshot_sniff_branch_names_path_and_size(self, tmp_path):
        # Starts with the snapshot magic but stops inside the header: the
        # loader must report the truncation, not crash unpacking.
        path = tmp_path / "short.snap"
        path.write_bytes(b"ISNP\x01\x00")
        with pytest.raises(StorageError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert "short.snap" in message
        assert "6 bytes" in message

    def test_corrupt_shard_manifest_rejected(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        shard_dir = tmp_path / "m.shards"
        save_snapshot(index, shard_dir, shards=3)
        (shard_dir / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError, match="manifest"):
            load_index(shard_dir)
        (shard_dir / "manifest.json").write_text("{}")
        with pytest.raises(StorageError, match="manifest"):
            load_index(shard_dir)
