"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 4\n1 3 1\n3 2 2\n2 4 5\n4 5 1\n")
    return path


@pytest.fixture
def built(edge_list, tmp_path):
    index_path = tmp_path / "g.snap"
    code = main(["build", str(edge_list), "-o", str(index_path), "--with-paths"])
    assert code == 0
    return index_path


def test_build_reports_stats(edge_list, tmp_path, capsys):
    index_path = tmp_path / "out.snap"
    assert main(["build", str(edge_list), "-o", str(index_path)]) == 0
    out = capsys.readouterr().out
    assert "|V|=5" in out
    assert index_path.exists()


def test_build_full_mode(edge_list, tmp_path):
    index_path = tmp_path / "full.snap"
    assert main(["build", str(edge_list), "-o", str(index_path), "--full"]) == 0


def test_build_explicit_k(edge_list, tmp_path, capsys):
    index_path = tmp_path / "k2.snap"
    assert main(["build", str(edge_list), "-o", str(index_path), "--k", "2"]) == 0
    assert "k=2" in capsys.readouterr().out


def test_query_distance(built, capsys):
    assert main(["query", str(built), "1", "5"]) == 0
    assert "dist(1, 5) = 9" in capsys.readouterr().out


def test_query_with_path(built, capsys):
    assert main(["query", str(built), "1", "5", "--path"]) == 0
    out = capsys.readouterr().out
    assert "dist(1, 5) = 9" in out
    assert "->" in out


def test_query_disconnected_prints_inf(tmp_path, capsys):
    graph = tmp_path / "disc.txt"
    graph.write_text("1 2\n8 9\n")
    index_path = tmp_path / "disc.snap"
    main(["build", str(graph), "-o", str(index_path)])
    assert main(["query", str(index_path), "1", "9"]) == 0
    assert "inf" in capsys.readouterr().out


def test_query_unknown_vertex_fails_cleanly(built, capsys):
    assert main(["query", str(built), "1", "999"]) == 2
    assert "error" in capsys.readouterr().err


def test_stats_command(built, capsys):
    assert main(["stats", str(built)]) == 0
    out = capsys.readouterr().out
    assert "label entries" in out
    assert "G_k vertices" in out


def test_dataset_command(tmp_path, capsys):
    out_path = tmp_path / "google.txt"
    assert main(["dataset", "google", "-o", str(out_path), "--scale", "0.05"]) == 0
    assert out_path.exists()
    assert "avg deg" in capsys.readouterr().out


def test_dataset_then_build_round_trip(tmp_path):
    data = tmp_path / "wiki.txt"
    index_path = tmp_path / "wiki.snap"
    assert main(["dataset", "wikitalk", "-o", str(data), "--scale", "0.05"]) == 0
    assert main(["build", str(data), "-o", str(index_path)]) == 0
    assert main(["stats", str(index_path)]) == 0


@pytest.fixture
def directed_edge_list(tmp_path):
    path = tmp_path / "dg.txt"
    path.write_text("1 2 4\n2 3 1\n3 1 2\n3 4 5\n4 5 1\n")
    return path


@pytest.fixture
def built_directed(directed_edge_list, tmp_path):
    index_path = tmp_path / "dg.snap"
    code = main(
        [
            "build-directed",
            str(directed_edge_list),
            "-o",
            str(index_path),
            "--with-paths",
        ]
    )
    assert code == 0
    return index_path


def test_build_directed_reports_stats(directed_edge_list, tmp_path, capsys):
    index_path = tmp_path / "out.snap"
    assert main(["build-directed", str(directed_edge_list), "-o", str(index_path)]) == 0
    out = capsys.readouterr().out
    assert "directed index" in out
    assert index_path.exists()


@pytest.mark.parametrize("engine", ["fast", "dict"])
def test_query_directed_both_engines(built_directed, capsys, engine):
    assert main(
        ["query-directed", str(built_directed), "1", "5", "--engine", engine]
    ) == 0
    assert "dist(1, 5) = 11" in capsys.readouterr().out


def test_query_directed_unreachable_prints_inf(built_directed, capsys):
    assert main(["query-directed", str(built_directed), "5", "1"]) == 0
    assert "inf" in capsys.readouterr().out


def test_query_directed_with_path(built_directed, capsys):
    assert main(["query-directed", str(built_directed), "1", "5", "--path"]) == 0
    out = capsys.readouterr().out
    assert "dist(1, 5) = 11" in out
    assert "->" in out


def test_build_directed_engine_flag(directed_edge_list, tmp_path):
    index_path = tmp_path / "dict.snap"
    assert (
        main(
            [
                "build-directed",
                str(directed_edge_list),
                "-o",
                str(index_path),
                "--engine",
                "dict",
            ]
        )
        == 0
    )
    assert index_path.exists()


def test_query_directed_rejects_undirected_index(built, capsys):
    assert main(["query-directed", str(built), "1", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_example_command(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "L1 = {c, f, i}" in out
    assert "dist(h, e) = 3" in out


def test_stats_verbose_counts_peeled_vertices(built, capsys):
    assert main(["stats", str(built), "-v"]) == 0
    rows = [
        line.split()
        for line in capsys.readouterr().out.splitlines()
        if line.split() and line.split()[0].isdigit()
    ]
    assert rows and rows[-1][1] == "(G_k)"
    assert all(int(row[1]) > 0 for row in rows[:-1])


def test_snapshot_relayout_keeps_path_state(built, tmp_path, capsys):
    shards = tmp_path / "g.shards"
    assert main(["snapshot", str(built), "-o", str(shards), "--shards", "2"]) == 0
    assert main(["query", str(shards), "1", "5", "--path", "--engine", "sharded"]) == 0
    out = capsys.readouterr().out
    assert "dist(1, 5) = 9" in out
    assert "->" in out


def test_snapshot_relayout_keeps_dynamic_state(edge_list, tmp_path):
    from repro.core.serialization import load_dynamic_index, save_snapshot
    from repro.core.updates import DynamicISLabelIndex
    from repro.graph.io import read_edge_list

    dyn = DynamicISLabelIndex(read_edge_list(edge_list))
    dyn.insert_vertex(6, {5: 2})
    single = tmp_path / "dyn.snap"
    shards = tmp_path / "dyn.shards"
    save_snapshot(dyn, single)
    assert main(["snapshot", str(single), "-o", str(shards), "--shards", "2"]) == 0
    back = load_dynamic_index(shards)
    assert back.inserts_applied == 1
    assert back.distance(1, 6) == dyn.distance(1, 6) == 11


def test_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "ghost.snap")]) == 2
    assert "error" in capsys.readouterr().err


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro", "example"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "Figure 1" in result.stdout


class TestServeCommands:
    """`repro serve` + `serve-bench --remote` against a live fleet."""

    @pytest.fixture()
    def sharded_snapshot(self, edge_list, tmp_path):
        index_path = tmp_path / "srv.snap"
        snap_path = tmp_path / "srv.shards"
        assert main(["build", str(edge_list), "-o", str(index_path)]) == 0
        assert (
            main(["snapshot", str(index_path), "-o", str(snap_path), "--shards", "2"])
            == 0
        )
        return index_path, snap_path

    def test_serve_bench_remote_flag(self, sharded_snapshot, capsys):
        from repro.serving.server import ShardServer, load_serving_index

        index_path, snap_path = sharded_snapshot
        with ShardServer(load_serving_index(str(snap_path))) as server:
            host, port = server.address
            code = main(
                [
                    "serve-bench",
                    str(index_path),
                    "--remote",
                    f"{host}:{port}",
                    "--queries",
                    "50",
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "engine=remote" in out
            assert server.queries_served >= 50

    def test_serve_bench_remote_unreachable_fails_cleanly(
        self, sharded_snapshot, capsys
    ):
        import socket

        index_path, _ = sharded_snapshot
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        code = main(
            ["serve-bench", str(index_path), "--remote", f"127.0.0.1:{free_port}"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_serve_command_announces_and_shuts_down(self, sharded_snapshot):
        import json
        import os
        import socket
        import subprocess
        import sys

        from repro.serving import wire

        _, snap_path = sharded_snapshot
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(snap_path),
                "--owned",
                "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("SERVING ")
            assert "owned=0" in line and "shards=2" in line
            host, _, port = line.split()[1].rpartition(":")
            sock = socket.create_connection((host, int(port)), timeout=10)
            try:
                hello = wire.request(sock, {"op": "hello"})
                assert hello["owned"] == [0]
                assert wire.request(sock, {"op": "shutdown"}).get("bye")
            finally:
                sock.close()
            assert proc.wait(timeout=15) == 0  # reaped, exit code clean
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
