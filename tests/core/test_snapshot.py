"""The zero-copy snapshot format and the mmap/sharded serving engines."""

import json
import math
import os

import numpy as np
import pytest

from repro.core.index import ISLabelIndex
from repro.core.directed import DirectedISLabelIndex
from repro.core.serialization import (
    load_directed_index,
    load_index,
    save_snapshot,
)
from repro.core.snapshot import (
    KIND_DIRECTED,
    KIND_UNDIRECTED,
    MANIFEST_NAME,
    MmapEngine,
    ShardedEngine,
    SnapshotFile,
    is_snapshot_path,
    open_snapshot,
)
from repro.errors import StorageError
from repro.graph.digraph import DiGraph
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.graph.graph import Graph


@pytest.fixture(scope="module")
def graph():
    return ensure_connected(erdos_renyi(70, 180, seed=31, max_weight=5), seed=31)


@pytest.fixture(scope="module")
def digraph():
    import random

    rng = random.Random(13)
    dg = DiGraph()
    for v in range(50):
        dg.add_vertex(v)
    for _ in range(200):
        u, v = rng.sample(range(50), 2)
        dg.merge_edge(u, v, rng.randint(1, 5))
    return dg


@pytest.fixture()
def snapshot(graph, tmp_path):
    index = ISLabelIndex.build(graph)
    path = tmp_path / "g.snap"
    save_snapshot(index, path)
    return index, str(path)


class TestFormat:
    def test_sniffing(self, graph, snapshot, tmp_path):
        index, snap_path = snapshot
        edge_list = tmp_path / "g.txt"
        edge_list.write_text("0 1 2\n")
        assert is_snapshot_path(snap_path)
        assert not is_snapshot_path(edge_list)
        assert not is_snapshot_path(tmp_path / "missing")

    def test_sections_are_aligned(self, snapshot):
        _, path = snapshot
        snap = SnapshotFile(path)
        for name, entry in snap._toc.items():
            assert entry["offset"] % 64 == 0, name

    def test_kind_and_meta(self, snapshot):
        index, path = snapshot
        snap = open_snapshot(path)
        assert snap.kind == KIND_UNDIRECTED
        assert snap.meta["k"] == index.hierarchy.k
        assert snap.meta["sizes"] == list(index.hierarchy.sizes)

    def test_bad_magic_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.snap"
        bogus.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(StorageError, match="magic"):
            SnapshotFile(str(bogus))

    def test_missing_section_rejected(self, snapshot):
        _, path = snapshot
        with pytest.raises(StorageError, match="no snapshot section"):
            SnapshotFile(path).array("nonexistent")

    def test_crash_truncated_snapshot_rejected(self, snapshot, tmp_path):
        """A writer that died before the header patch must parse cleanly
        as StorageError, not crash in the JSON decoder."""
        _, path = snapshot
        import struct

        from repro.core.snapshot import _HEADER, KIND_UNDIRECTED, SNAPSHOT_MAGIC, SNAPSHOT_VERSION

        data = bytearray(open(path, "rb").read())
        data[: _HEADER.size] = _HEADER.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_VERSION, KIND_UNDIRECTED, 0, 0, 0
        )
        truncated = tmp_path / "truncated.snap"
        truncated.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="truncated"):
            SnapshotFile(str(truncated))

    def test_sharded_write_refuses_foreign_directory(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        target = tmp_path / "precious"
        target.mkdir()
        (target / "data.txt").write_text("do not delete")
        with pytest.raises(StorageError, match="refusing to overwrite"):
            save_snapshot(index, target, shards=3)
        assert (target / "data.txt").read_text() == "do not delete"
        # An existing *snapshot* directory is replaced in place.
        ok = tmp_path / "replaceable"
        save_snapshot(index, ok, shards=3)
        save_snapshot(index, ok, shards=2)
        assert is_snapshot_path(ok)

    def test_layout_swap_overwrites_cleanly(self, graph, tmp_path):
        """Single-file over sharded (and vice versa) replaces the snapshot;
        foreign files are refused instead of clobbered."""
        index = ISLabelIndex.build(graph)
        target = tmp_path / "swap"
        save_snapshot(index, target, shards=3)
        assert target.is_dir()
        save_snapshot(index, target)  # sharded -> single file
        assert target.is_file() and is_snapshot_path(target)
        save_snapshot(index, target, shards=3)  # single file -> sharded
        assert target.is_dir() and is_snapshot_path(target)
        precious = tmp_path / "notes.txt"
        precious.write_text("keep me")
        with pytest.raises(StorageError, match="refusing to overwrite"):
            save_snapshot(index, precious, shards=3)
        assert precious.read_text() == "keep me"

    def test_sharded_layout(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        shard_dir = tmp_path / "g.shards"
        save_snapshot(index, shard_dir, shards=4)
        assert is_snapshot_path(shard_dir)
        manifest = json.loads((shard_dir / MANIFEST_NAME).read_text())
        assert manifest["kind"] == KIND_UNDIRECTED
        assert len(manifest["shards"]) >= 2
        starts = [entry["start"] for entry in manifest["shards"]]
        assert starts == sorted(starts)
        # Every label key lands in exactly one shard file: the shard key
        # counts sum to the single-file snapshot's key count.
        single = tmp_path / "g.single.snap"
        save_snapshot(index, single)
        expected_keys = len(SnapshotFile(str(single)).array("lab_keys"))
        total = 0
        for entry in manifest["shards"]:
            snap = SnapshotFile(str(shard_dir / entry["file"]))
            total += len(snap.array("lab_keys"))
        assert total == expected_keys


def _rewrite_toc(path, mutate):
    """Replace a snapshot file's TOC with ``mutate(toc)`` (header patched)."""
    from repro.core.snapshot import _HEADER

    data = open(path, "rb").read()
    magic, version, kind, flags, offset, length = _HEADER.unpack(data[: _HEADER.size])
    toc = mutate(json.loads(data[offset : offset + length]))
    blob = json.dumps(toc).encode("utf-8")
    header = _HEADER.pack(magic, version, kind, flags, offset, len(blob))
    with open(path, "wb") as fh:
        fh.write(header + data[_HEADER.size : offset] + blob)


def _section(toc, name):
    return next(entry for entry in toc["sections"] if entry["name"] == name)


def _offset_past_eof(toc):
    _section(toc, "lab_anc")["offset"] += 1 << 24
    return toc


def _unknown_dtype(toc):
    _section(toc, "lab_dist")["dtype"] = "bogus"
    return toc


def _indptr_disagrees(toc):
    entry = _section(toc, "lab_indptr")
    entry["shape"] = [entry["shape"][0] // 2]
    return toc


_CORRUPT_TOCS = {
    "offset-past-eof": (_offset_past_eof, "lab_anc"),
    "toc-is-a-list": (lambda toc: [toc], None),
    "no-sections": (lambda toc: {"meta": toc["meta"]}, None),
    "unknown-dtype": (_unknown_dtype, "lab_dist"),
    "indptr-disagrees-with-keys": (_indptr_disagrees, "lab_indptr"),
}


class TestCorruptTOC:
    """A TOC that lies about structure or bounds fails at open as a
    StorageError naming the file and section — never a raw ValueError,
    AttributeError, KeyError, TypeError or IndexError."""

    @pytest.mark.parametrize("engine", ["mmap", "fast"])
    @pytest.mark.parametrize("case", sorted(_CORRUPT_TOCS))
    def test_corrupt_toc_raises_storage_error(self, graph, tmp_path, case, engine):
        mutate, section = _CORRUPT_TOCS[case]
        path = tmp_path / "corrupt.snap"
        save_snapshot(ISLabelIndex.build(graph), path)
        _rewrite_toc(path, mutate)
        vertices = sorted(graph.vertices())
        with pytest.raises(StorageError) as excinfo:
            loaded = load_index(path, engine=engine)
            loaded.distances([(s, t) for s in vertices[:8] for t in vertices[-8:]])
        message = str(excinfo.value)
        assert "corrupt.snap" in message
        if section is not None:
            assert section in message


class TestRoundtrip:
    def test_every_engine_serves_the_snapshot(self, graph, snapshot):
        index, path = snapshot
        vertices = sorted(graph.vertices())[:15]
        pairs = [(s, t) for s in vertices for t in vertices]
        expected = index.distances(pairs)
        for engine in ("mmap", "sharded", "fast", "dict"):
            loaded = load_index(path, engine=engine)
            assert loaded.distances(pairs) == expected, engine
            assert loaded.distance(*pairs[5]) == expected[5], engine

    def test_facade_state_survives(self, graph, snapshot):
        index, path = snapshot
        loaded = load_index(path, engine="mmap")
        assert loaded.engine == "mmap"
        assert loaded.k == index.k
        assert loaded.stats.label_entries == index.stats.label_entries
        v = sorted(graph.vertices())[3]
        assert loaded.label(v) == index.label(v)
        with pytest.raises(Exception):
            loaded.distance(10**9, 0)  # uncovered vertex still rejected

    def test_directed_kind_guard(self, digraph, graph, tmp_path):
        dindex = DirectedISLabelIndex.build(digraph)
        dpath = tmp_path / "d.snap"
        save_snapshot(dindex, dpath)
        with pytest.raises(StorageError, match="directed"):
            load_index(dpath)
        uindex = ISLabelIndex.build(graph)
        upath = tmp_path / "u.snap"
        save_snapshot(uindex, upath)
        with pytest.raises(StorageError, match="undirected"):
            load_directed_index(upath)

    def test_dict_built_index_snapshots(self, graph, tmp_path):
        index = ISLabelIndex.build(graph, engine="dict")
        path = tmp_path / "dict.snap"
        save_snapshot(index, path)
        loaded = load_index(path, engine="mmap")
        vertices = sorted(graph.vertices())[:10]
        for s in vertices:
            for t in vertices:
                assert loaded.distance(s, t) == index.distance(s, t)

    def test_disconnected_pairs(self, tmp_path):
        g = Graph([(1, 2), (2, 3)])
        g.add_vertex(99)  # isolated
        index = ISLabelIndex.build(g)
        path = tmp_path / "disc.snap"
        save_snapshot(index, path)
        for engine in ("mmap", "sharded"):
            loaded = load_index(path, engine=engine)
            assert math.isinf(loaded.distance(1, 99))
            assert loaded.distances([(1, 99), (1, 3)]) == [math.inf, 2]


class TestServingEngines:
    def test_apsp_copy_on_write(self, graph, snapshot, tmp_path):
        """Row fills after loading must not modify the snapshot file."""
        _, path = snapshot
        before = open(path, "rb").read()
        loaded = load_index(path, engine="mmap")
        vertices = sorted(graph.vertices())
        loaded.distances([(s, t) for s in vertices[:10] for t in vertices[:10]])
        engine = loaded._fast
        if engine._apsp is not None:
            assert engine._apsp_done.any() or engine._apsp_done is not None
        assert open(path, "rb").read() == before

    def test_shards_open_lazily(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        shard_dir = tmp_path / "lazy.shards"
        save_snapshot(index, shard_dir, shards=4)
        loaded = load_index(shard_dir, engine="sharded")
        engine = loaded._fast
        engine.freeze()
        table = engine.table
        assert not any(s.opened for s in table.shards)
        smallest = sorted(graph.vertices())[0]
        loaded.distance(smallest, smallest + 1)
        assert any(s.opened for s in table.shards)
        assert not all(s.opened for s in table.shards)

    def test_build_path_spills_and_cleans_up(self, graph):
        index = ISLabelIndex.build(graph, engine="mmap")
        engine = index._fast
        assert isinstance(engine, MmapEngine)
        vertices = sorted(graph.vertices())
        d = index.distance(vertices[0], vertices[-1])
        assert d == ISLabelIndex.build(graph).distance(vertices[0], vertices[-1])
        spill = engine._snapshot_path
        assert spill is not None and os.path.exists(spill)
        engine.invalidate()  # full drop discards the temporary snapshot
        assert engine._snapshot_path is None
        assert not os.path.exists(spill)
        # The engine re-freezes (and re-spills) transparently.
        assert index.distance(vertices[0], vertices[-1]) == d

    def test_sharded_build_path(self, graph):
        index = ISLabelIndex.build(graph, engine="sharded")
        assert isinstance(index._fast, ShardedEngine)
        ref = ISLabelIndex.build(graph, engine="dict")
        vertices = sorted(graph.vertices())[:12]
        pairs = [(s, t) for s in vertices for t in vertices]
        assert index.distances(pairs) == ref.distances(pairs)

    def test_mmap_labels_are_memmap_views(self, graph, snapshot):
        _, path = snapshot
        loaded = load_index(path, engine="mmap")
        engine = loaded._fast
        engine.freeze()
        flat = engine.table.flat
        # The flat arrays are plain-ndarray views over the mapped buffer
        # (the memmap subclass overhead is shed on the hot path, but the
        # backing is still the lazily faulted file mapping).
        assert isinstance(flat.anc.base, np.memmap)
        assert not isinstance(flat.anc, np.memmap)
        v = sorted(graph.vertices())[1]
        label = engine.label(v)
        assert label[0].base is not None  # a view, not a copy

    def test_snapshot_ownership_map(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        shard_dir = tmp_path / "own.shards"
        save_snapshot(index, shard_dir, shards=4)
        snap = open_snapshot(shard_dir)
        ownership = snap.ownership()
        assert sorted(ownership) == list(range(len(snap.shard_starts)))
        assert [ownership[i]["start"] for i in sorted(ownership)] == snap.shard_starts
        assert snap.shard_starts == sorted(snap.shard_starts)
        # Single-file snapshots have one implicit shard: empty maps.
        single = tmp_path / "own.snap"
        save_snapshot(index, single)
        flat = open_snapshot(single)
        assert flat.shard_starts == [] and flat.ownership() == {}

    def test_directed_snapshot_engines(self, digraph, tmp_path):
        index = DirectedISLabelIndex.build(digraph)
        path = tmp_path / "d.snap"
        shard_dir = tmp_path / "d.shards"
        save_snapshot(index, path)
        save_snapshot(index, shard_dir, shards=3)
        vertices = sorted(digraph.vertices())[:12]
        pairs = [(s, t) for s in vertices for t in vertices]
        expected = index.distances(pairs)
        for source in (path, shard_dir):
            for engine in ("mmap", "sharded"):
                loaded = load_directed_index(source, engine=engine)
                assert loaded.distances(pairs) == expected, (source, engine)


class TestSpillCleanup:
    """Temporary spill snapshots must never outlive their engine."""

    @pytest.fixture(autouse=True)
    def _isolated_tempdir(self, tmp_path, monkeypatch):
        # Route tempfile.mkstemp/mkdtemp into the test's own directory so
        # stray repro-snap-* files are detectable (and cleaned up).
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        self.tmp_path = tmp_path

    def _strays(self):
        return sorted(p.name for p in self.tmp_path.glob("repro-snap-*"))

    def test_close_removes_spill_and_registry_entry(self, graph):
        from repro.core.snapshot import _LIVE_SPILLS

        index = ISLabelIndex.build(graph, engine="mmap")
        vertices = sorted(graph.vertices())
        d = index.distance(vertices[0], vertices[-1])
        engine = index._fast
        spill = engine._snapshot_path
        assert spill is not None and os.path.exists(spill)
        assert spill in _LIVE_SPILLS
        engine.close()
        assert not os.path.exists(spill)
        assert spill not in _LIVE_SPILLS
        assert self._strays() == []
        # close() is not fatal: the next query re-spills transparently.
        assert index.distance(vertices[0], vertices[-1]) == d
        engine.close()
        assert self._strays() == []

    def test_sharded_spill_directory_cleanup(self, graph):
        index = ISLabelIndex.build(graph, engine="sharded")
        vertices = sorted(graph.vertices())
        index.distance(vertices[0], vertices[-1])
        engine = index._fast
        spill = engine._snapshot_path
        assert os.path.isdir(spill)
        engine.close()
        assert self._strays() == []

    def test_exception_mid_spill_unlinks_temp_path(self, graph, monkeypatch):
        """A write_snapshot that dies must not leak the temp file (or dir)."""
        import repro.core.snapshot as snapshot_module
        from repro.core.snapshot import _LIVE_SPILLS

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(snapshot_module, "write_snapshot", boom)
        for engine_name in ("mmap", "sharded"):
            index = ISLabelIndex.build(graph, engine=engine_name)
            vertices = sorted(graph.vertices())
            with pytest.raises(OSError, match="disk full"):
                index.distance(vertices[0], vertices[1])
            assert self._strays() == [], engine_name
            assert not any("repro-snap" in p for p in _LIVE_SPILLS)

    def test_atexit_reaps_unclosed_engines(self, graph, tmp_path):
        """An engine abandoned at interpreter exit leaves no stray spills."""
        import subprocess
        import sys

        code = """
import os
from repro.core.index import ISLabelIndex
from repro.graph.generators import ensure_connected, erdos_renyi

g = ensure_connected(erdos_renyi(40, 90, seed=2, max_weight=4), seed=2)
for engine in ("mmap", "sharded"):
    index = ISLabelIndex.build(g, engine=engine)
    vs = sorted(g.vertices())
    index.distance(vs[0], vs[-1])
    assert index._fast._snapshot_path is not None
# neither engine is closed or invalidated: atexit must reap the spills
"""
        env = dict(os.environ, TMPDIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), str(
                os.path.join(os.path.dirname(__file__), "..", "..", "src")
            )) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        strays = sorted(p.name for p in tmp_path.glob("repro-snap-*"))
        assert strays == []


class TestChecksums:
    def _first_data_section(self, snap):
        """A TOC entry with actual bytes to corrupt."""
        import numpy as np

        for name, entry in snap._toc.items():
            nbytes = int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
            if nbytes > 0:
                return name, entry, nbytes
        raise AssertionError("snapshot has no non-empty section")

    def test_checksummed_snapshot_roundtrips(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "c.snap"
        save_snapshot(index, path, checksum=True)
        snap = SnapshotFile(str(path))
        assert snap._toc and all("crc32" in e for e in snap._toc.values())
        again = load_index(str(path), engine="mmap")
        vs = sorted(graph.vertices())
        pairs = [(s, t) for s in vs[::9] for t in vs[::9]]
        assert again.distances(pairs) == index.distances(pairs)

    def test_default_snapshots_carry_no_checksums(self, snapshot):
        _, path = snapshot
        snap = SnapshotFile(path)
        assert all("crc32" not in e for e in snap._toc.values())

    def test_corrupted_section_detected_on_first_map(self, graph, tmp_path):
        """Flip one byte inside a section's payload: the lazy verify on
        first map must name the section and the file."""
        index = ISLabelIndex.build(graph)
        path = tmp_path / "corrupt.snap"
        save_snapshot(index, path, checksum=True)
        snap = SnapshotFile(str(path))
        name, entry, nbytes = self._first_data_section(snap)
        with open(path, "r+b") as fh:
            fh.seek(entry["offset"] + nbytes // 2)
            byte = fh.read(1)
            fh.seek(entry["offset"] + nbytes // 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        fresh = SnapshotFile(str(path))
        with pytest.raises(StorageError, match="checksum mismatch") as exc:
            fresh.array(name)
        assert name in str(exc.value)
        assert "corrupt.snap" in str(exc.value)

    def test_verification_runs_once_per_section(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "once.snap"
        save_snapshot(index, path, checksum=True)
        snap = SnapshotFile(str(path))
        name, entry, nbytes = self._first_data_section(snap)
        snap.array(name)
        assert name in snap._verified
        # Corruption after the first map goes unnoticed by design: the
        # check guards the load boundary, not live memory.
        with open(path, "r+b") as fh:
            fh.seek(entry["offset"])
            byte = fh.read(1)
            fh.seek(entry["offset"])
            fh.write(bytes([byte[0] ^ 0xFF]))
        snap.array(name)  # no re-verification, no error

    def test_sharded_checksums_cover_every_file(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "c.shards"
        save_snapshot(index, path, shards=3, checksum=True)
        snap_files = sorted(str(p) for p in path.glob("*.snap"))
        assert len(snap_files) >= 4  # shared + 3 shards
        for file_path in snap_files:
            snap = SnapshotFile(file_path)
            assert all("crc32" in e for e in snap._toc.values()), file_path
        again = load_index(str(path), engine="sharded")
        vs = sorted(graph.vertices())
        pairs = [(s, t) for s in vs[::9] for t in vs[::9]]
        assert again.distances(pairs) == index.distances(pairs)

    def test_corrupted_shard_detected_through_the_engine(self, graph, tmp_path):
        index = ISLabelIndex.build(graph)
        path = tmp_path / "bad.shards"
        save_snapshot(index, path, shards=3, checksum=True)
        shard_file = sorted(path.glob("shard-*.snap"))[0]
        snap = SnapshotFile(str(shard_file))
        name, entry, nbytes = self._first_data_section(snap)
        with open(shard_file, "r+b") as fh:
            fh.seek(entry["offset"])
            byte = fh.read(1)
            fh.seek(entry["offset"])
            fh.write(bytes([byte[0] ^ 0xFF]))
        again = load_index(str(path), engine="sharded")
        vs = sorted(graph.vertices())
        pairs = [(s, t) for s in vs for t in vs]
        with pytest.raises(StorageError, match="checksum mismatch"):
            again.distances(pairs)  # faults in the corrupt shard lazily
