"""Remote shard serving: ShardServer + the "remote" engine end to end."""

import contextlib
import math
import socket
import struct
import sys
import threading

import pytest

from repro.core import kernels
from repro.core.directed import DirectedISLabelIndex
from repro.core.engines import (
    CAP_REMOTE,
    DIRECTED,
    UNDIRECTED,
    available_engines,
    engine_capabilities,
    engines_with_capability,
    resolve_engine,
)
from repro.core.index import ISLabelIndex
from repro.core.serialization import load_index, save_snapshot
from repro.errors import IndexBuildError, QueryError, StorageError
from repro.graph.digraph import DiGraph
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.serving import wire
from repro.serving.chaos import FleetWorker
from repro.serving.membership import DEAD
from repro.serving.remote import (
    REMOTE_ADDRS_ENV,
    DirectedRemoteEngine,
    RemoteEngine,
    parse_addresses,
)
from repro.serving.scheduler import SchedulerPolicy, assign_shards
from repro.serving.server import ShardServer, load_serving_index


@pytest.fixture(scope="module")
def graph():
    g = ensure_connected(erdos_renyi(70, 170, seed=9, max_weight=5), seed=9)
    g.add_vertex(500)  # isolated vertex: disconnected pairs over the wire
    return g


@pytest.fixture(scope="module")
def shard_path(graph, tmp_path_factory):
    index = ISLabelIndex.build(graph)
    path = tmp_path_factory.mktemp("remote") / "g.shards"
    save_snapshot(index, path, shards=4)
    return str(path)


@pytest.fixture(scope="module")
def expected(graph, shard_path):
    index = load_index(shard_path, engine="fast")
    vertices = sorted(graph.vertices())[::4] + [500]
    pairs = [(s, t) for s in vertices for t in vertices]
    return pairs, index.distances(pairs)


@pytest.fixture()
def server(shard_path):
    with ShardServer(load_serving_index(shard_path, engine="sharded")) as srv:
        yield srv


def _addr(server):
    host, port = server.address
    return [(host, port)]


@contextlib.contextmanager
def _hang_up_peer():
    """A TCP peer that accepts every connection, reads the first request
    and resets the connection instead of answering it."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            # Reading first keeps the dial itself clean: the failure is
            # the handshake's.  Zero linger turns close() into a RST.
            conn.settimeout(5.0)
            with contextlib.suppress(OSError):
                conn.recv(1 << 16)
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()


class TestRegistry:
    def test_remote_registered_both_orientations(self):
        assert "remote" in available_engines(UNDIRECTED)
        assert "remote" in available_engines(DIRECTED)
        assert resolve_engine(UNDIRECTED, "remote") is RemoteEngine
        assert resolve_engine(DIRECTED, "remote") is DirectedRemoteEngine

    def test_capability_flags(self):
        assert CAP_REMOTE in engine_capabilities(UNDIRECTED, "remote")
        assert "remote" in engines_with_capability(UNDIRECTED, CAP_REMOTE)
        assert "fast" not in engines_with_capability(UNDIRECTED, CAP_REMOTE)
        with pytest.raises(IndexBuildError):
            engine_capabilities(UNDIRECTED, "vroom")

    def test_engine_without_addresses_rejected(self, monkeypatch):
        monkeypatch.delenv(REMOTE_ADDRS_ENV, raising=False)
        with pytest.raises(IndexBuildError, match=REMOTE_ADDRS_ENV):
            RemoteEngine()

    def test_parse_addresses(self):
        assert parse_addresses("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_addresses([("h", 9)]) == [("h", 9)]
        assert parse_addresses(None) == []
        with pytest.raises(IndexBuildError):
            parse_addresses("no-port")
        with pytest.raises(IndexBuildError):
            parse_addresses("host:nan")


class TestRoundtrip:
    def test_remote_bit_identical_to_fast(self, server, expected):
        pairs, want = expected
        with RemoteEngine(addresses=_addr(server)) as engine:
            assert engine.distances(pairs) == want
            assert engine.distance(*pairs[7]) == want[7]
        assert any(math.isinf(d) for d in want)  # disconnected pairs covered

    def test_concurrent_first_queries_dial_the_fleet_once(self, server, expected):
        """Callers racing into an unfrozen engine share one freeze, so
        one channel serves them all and no extra fleet dial leaks."""
        pairs, want = expected
        before = set(threading.enumerate())
        engine = RemoteEngine(addresses=_addr(server))
        start = threading.Barrier(4)
        got = {}

        def query(lane):
            start.wait(timeout=10)
            got[lane] = engine.distances(pairs[lane::4])

        threads = [threading.Thread(target=query, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in threads)
            assert all(got[i] == want[i::4] for i in range(4))
            readers = [
                t for t in threading.enumerate()
                if t not in before and t.name == "repro-wire-reader"
            ]
            assert len(readers) == 1
        finally:
            engine.close()

    def test_remote_through_load_index_env_seam(
        self, server, shard_path, expected, monkeypatch
    ):
        host, port = server.address
        monkeypatch.setenv(REMOTE_ADDRS_ENV, f"{host}:{port}")
        index = load_index(shard_path, engine="remote")
        assert index.engine == "remote"
        pairs, want = expected
        assert index.distances(pairs) == want

    def test_bucket_size_one_policy(self, server, expected):
        pairs, want = expected
        engine = RemoteEngine(
            addresses=_addr(server), policy=SchedulerPolicy(max_batch=1)
        )
        try:
            assert engine.distances(pairs[:40]) == want[:40]
            assert engine.scheduler.dispatch_calls == 40
        finally:
            engine.close()

    def test_uncovered_vertex_raises_query_error(self, server, graph):
        with RemoteEngine(addresses=_addr(server)) as engine:
            with pytest.raises(QueryError, match="not covered"):
                engine.distance(10**9, sorted(graph.vertices())[0])

    def test_invalidate_redials(self, server, expected):
        pairs, want = expected
        engine = RemoteEngine(addresses=_addr(server))
        assert engine.distances(pairs[:5]) == want[:5]
        engine.invalidate()
        assert not engine.frozen
        assert engine.distances(pairs[:5]) == want[:5]
        engine.close()


class TestOwnershipRouting:
    def test_split_fleet_serves_and_routes_by_owner(self, shard_path, expected):
        pairs, want = expected
        slices = assign_shards(4, 2)
        servers = [
            ShardServer(load_serving_index(shard_path), owned=owned)
            for owned in slices
        ]
        for srv in servers:
            srv.start()
        try:
            engine = RemoteEngine(
                addresses=[srv.address for srv in servers]
            )
            assert engine.distances(pairs) == want
            engine.close()
            served = [srv.queries_served for srv in servers]
            assert all(n > 0 for n in served), served  # both owners used
        finally:
            for srv in servers:
                srv.shutdown()

    def test_fleet_layout_disagreement_rejected(self, graph, shard_path, tmp_path):
        other = ISLabelIndex.build(graph)
        other_path = tmp_path / "other.shards"
        save_snapshot(other, other_path, shards=2)  # different shard layout
        with ShardServer(load_serving_index(shard_path)) as a:
            with ShardServer(load_serving_index(str(other_path))) as b:
                with pytest.raises(StorageError, match="shard layout"):
                    RemoteEngine(addresses=[a.address, b.address]).freeze()

    def test_kind_mismatch_rejected(self, server):
        with pytest.raises(StorageError, match="orientation"):
            DirectedRemoteEngine(addresses=_addr(server)).freeze()

    def test_dead_worker_fails_loudly(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        free_port = sock.getsockname()[1]
        sock.close()
        with pytest.raises(StorageError, match="cannot connect"):
            RemoteEngine(addresses=[("127.0.0.1", free_port)]).freeze()

    def test_peer_hanging_up_on_hello_is_a_dead_worker(self, server, expected):
        """A peer that accepts TCP and then resets the handshake is one
        dead worker, not a failed freeze: the live worker serves alone."""
        pairs, want = expected
        with _hang_up_peer() as peer:
            with RemoteEngine(addresses=[peer] + _addr(server)) as engine:
                assert engine.distances(pairs) == want
                health = {w.address: w.health.state for w in engine._workers}
                assert health[peer] == DEAD


class TestDirectedRemote:
    def test_directed_roundtrip(self, tmp_path):
        import random

        rng = random.Random(3)
        dg = DiGraph()
        for v in range(40):
            dg.add_vertex(v)
        for _ in range(160):
            u, v = rng.sample(range(40), 2)
            dg.merge_edge(u, v, rng.randint(1, 4))
        index = DirectedISLabelIndex.build(dg)
        path = tmp_path / "d.shards"
        save_snapshot(index, path, shards=3)
        vertices = sorted(dg.vertices())[::3]
        pairs = [(s, t) for s in vertices for t in vertices]
        want = index.distances(pairs)
        with ShardServer(load_serving_index(str(path))) as srv:
            assert srv.kind == "directed"
            with DirectedRemoteEngine(addresses=_addr(srv)) as engine:
                assert engine.distances(pairs) == want


class TestServerLifecycle:
    def test_hello_reports_layout_and_ownership(self, server):
        sock = socket.create_connection(server.address)
        try:
            hello = wire.request(sock, {"op": "hello"})
            assert hello["kind"] == "undirected"
            assert hello["engine"] == "sharded"
            assert hello["num_shards"] == len(hello["shard_starts"]) >= 2
            assert hello["owned"] == list(range(hello["num_shards"]))
            assert wire.request(sock, {"op": "ping"}) == {"ok": True}
            stats = wire.request(sock, {"op": "stats"})
            assert stats["requests_served"] >= 2
            assert stats["kernel_backend"] == kernels.BACKEND
        finally:
            sock.close()

    def test_warm_worker_neither_validates_nor_registers(self, graph, shard_path, expected):
        """A spawned ``repro serve`` worker checks its ``G_k`` arrays and
        registers its label buffers while it warms up; 500 more single
        requests move neither counter."""
        pairs, want = expected
        pairs, want = (pairs * 2)[:500], (want * 2)[:500]
        worker = FleetWorker(shard_path, owned=range(4))
        worker.spawn()
        sock = socket.create_connection(worker.address, timeout=30.0)
        try:

            def singles():
                return [
                    wire.request(sock, {"op": "distances", "pairs": [pair]})["distances"][0]
                    for pair in pairs
                ]

            assert singles() == want  # warm-up: shards open, table rows fill
            before = wire.request(sock, {"op": "stats"})
            assert singles() == want
            after = wire.request(sock, {"op": "stats"})
            for field in ("kernel_validations", "kernel_registrations"):
                assert after[field] == before[field], field
            if kernels.BACKEND == "c":
                assert before["kernel_validations"] >= 1
                assert before["kernel_registrations"] >= 1
        finally:
            sock.close()
            worker.reap()

    def test_unknown_op_answered_not_fatal(self, server):
        sock = socket.create_connection(server.address)
        try:
            assert "error" in wire.request(sock, {"op": "frobnicate"})
            assert wire.request(sock, {"op": "ping"}) == {"ok": True}
        finally:
            sock.close()

    def test_malformed_distances_survive(self, server):
        sock = socket.create_connection(server.address)
        try:
            got = wire.request(sock, {"op": "distances", "pairs": [["x", 1]]})
            assert "error" in got
            assert wire.request(sock, {"op": "ping"}) == {"ok": True}
        finally:
            sock.close()

    def test_shutdown_op_stops_server_and_reaps_threads(self, shard_path):
        srv = ShardServer(load_serving_index(shard_path))
        srv.start()
        sock = socket.create_connection(srv.address)
        assert wire.request(sock, {"op": "shutdown"}).get("bye")
        sock.close()
        srv.shutdown()  # idempotent with the wire-initiated stop
        assert srv._accept_thread is None
        assert srv._handlers == []
        with pytest.raises(StorageError):
            srv.address  # socket is gone

    def test_owned_out_of_range_rejected(self, shard_path):
        with pytest.raises(StorageError, match="out of range"):
            ShardServer(load_serving_index(shard_path), owned=[99])


class TestReviewRegressions:
    def test_facade_single_query_path_works_remote(
        self, server, shard_path, expected, monkeypatch
    ):
        """ISLabelIndex.distance()/query() must work on the remote engine
        (the facade's packed-internals fast path cannot apply)."""
        host, port = server.address
        monkeypatch.setenv(REMOTE_ADDRS_ENV, f"{host}:{port}")
        index = load_index(shard_path, engine="remote")
        pairs, want = expected
        assert index.distance(*pairs[3]) == want[3]
        result = index.query(*pairs[3])
        assert result.distance == want[3]
        assert index.search_mode == "remote"

    def test_cli_query_engine_remote(self, server, shard_path, monkeypatch, capsys):
        from repro.cli import main

        host, port = server.address
        monkeypatch.setenv(REMOTE_ADDRS_ENV, f"{host}:{port}")
        index = load_index(shard_path, engine="fast")
        s = sorted(index.hierarchy.level_of)[0]
        t = sorted(index.hierarchy.level_of)[-1]
        assert main(["query", shard_path, str(s), str(t), "--engine", "remote"]) == 0
        out = capsys.readouterr().out
        assert f"dist({s}, {t}) = {index.distance(s, t)}" in out

    def test_shutdown_closes_idle_connections(self, shard_path):
        srv = ShardServer(load_serving_index(shard_path))
        srv.start()
        idle = socket.create_connection(srv.address)
        wire.request(idle, {"op": "ping"})  # handler thread now blocked in recv
        import time

        started = time.monotonic()
        srv.shutdown()
        assert time.monotonic() - started < 4.0  # not one join-timeout per conn
        assert srv._handlers == [] and srv._conns == []
        assert wire.recv_frame(idle) is None  # server side was closed
        idle.close()


class TestServerCacheTier:
    def test_cache_off_by_default(self, server):
        assert server.cache is None
        host, port = server.address
        with socket.create_connection((host, port)) as sock:
            stats = wire.request(sock, {"op": "stats"})
        assert stats["cache"] is None

    def test_cached_server_bit_identical_and_counted(self, shard_path, expected):
        pairs, want = expected
        with ShardServer(
            load_serving_index(shard_path, engine="sharded"),
            cache_entries=4096,
        ) as srv:
            engine = RemoteEngine(addresses=[srv.address])
            try:
                assert engine.distances(pairs) == want
                assert engine.distances(pairs) == want  # replay: cache hits
            finally:
                engine.close()
            assert srv.cache is not None
            host, port = srv.address
            with socket.create_connection((host, port)) as sock:
                stats = wire.request(sock, {"op": "stats"})
        cache = stats["cache"]
        assert cache["hits"] >= len(want)
        assert cache["entries"] >= 1

    def test_cached_remote_through_load_index(
        self, server, shard_path, expected, monkeypatch
    ):
        host, port = server.address
        monkeypatch.setenv(REMOTE_ADDRS_ENV, f"{host}:{port}")
        index = load_index(shard_path, engine="cached:remote")
        assert index.engine == "cached:remote"
        pairs, want = expected
        assert index.distances(pairs) == want
        assert index.distances(pairs) == want
        assert index._fast.cache.stats()["hits"] >= len(want)
        # No G_k in hand on the client: dirty invalidation must flush.
        index._fast.invalidate({1})
        assert len(index._fast.cache) == 0
