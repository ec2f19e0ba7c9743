"""Versioned membership, worker health, retries, and the staleness path."""

import random
import socket
import time

import pytest

from repro.core.index import ISLabelIndex
from repro.core.serialization import load_index, save_snapshot
from repro.errors import QueryError, StorageError
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.serving import wire
from repro.serving.membership import (
    DEAD,
    LIVE,
    SUSPECT,
    MembershipMap,
    RetryPolicy,
    WorkerHealth,
)
from repro.serving.remote import RemoteEngine
from repro.serving.scheduler import assign_shards
from repro.serving.server import ShardServer, load_serving_index


@pytest.fixture(scope="module")
def graph():
    return ensure_connected(erdos_renyi(60, 150, seed=21, max_weight=5), seed=21)


@pytest.fixture(scope="module")
def shard_path(graph, tmp_path_factory):
    index = ISLabelIndex.build(graph)
    path = tmp_path_factory.mktemp("membership") / "g.shards"
    save_snapshot(index, path, shards=4)
    return str(path)


@pytest.fixture(scope="module")
def expected(graph, shard_path):
    index = load_index(shard_path, engine="fast")
    vertices = sorted(graph.vertices())[::3]
    pairs = [(s, t) for s in vertices for t in vertices]
    return pairs, index.distances(pairs)


def _rpc(address, payload):
    sock = socket.create_connection(address, timeout=10.0)
    try:
        return wire.request(sock, payload)
    finally:
        sock.close()


class TestMembershipMap:
    def test_set_seeds_without_epoch_bump(self):
        m = MembershipMap(epoch=3)
        m.set("a:1", [2, 0, 2])
        assert m.epoch == 3
        assert m.owned_by("a:1") == [0, 2]  # sorted, deduped
        assert "a:1" in m and len(m) == 1

    def test_join_and_leave_bump_monotonically(self):
        m = MembershipMap()
        assert m.join("a:1", [0]) == 1
        assert m.join("b:2", [1]) == 2
        assert m.owners_of(0) == ["a:1"]
        assert m.leave("a:1") == 3
        assert "a:1" not in m
        # Unknown worker: the intent still versions the map.
        assert m.leave("ghost:9") == 4

    def test_wire_epoch_imposes_ordering(self):
        m = MembershipMap()
        assert m.join("a:1", [0], epoch=10) == 10
        # A replayed older message cannot move the fleet backwards.
        assert m.join("a:1", [0], epoch=4) == 11

    def test_merge_adopts_only_newer_views(self):
        old = MembershipMap(epoch=5, members={"a:1": [0]})
        new = MembershipMap(epoch=9, members={"b:2": [0, 1]})
        assert old.merge(new) is True
        assert old.epoch == 9 and old.workers() == ["b:2"]
        assert old.merge(MembershipMap(epoch=9, members={"c:3": [2]})) is False
        assert old.workers() == ["b:2"]

    def test_wire_roundtrip(self):
        m = MembershipMap(epoch=7, members={"a:1": [1, 0], "b:2": [2]})
        again = MembershipMap.from_wire(m.to_wire())
        assert again.epoch == 7
        assert again.members() == {"a:1": [0, 1], "b:2": [2]}

    def test_malformed_wire_payload_rejected(self):
        with pytest.raises(StorageError, match="membership"):
            MembershipMap.from_wire({"epoch": 3})

    def test_empty_worker_id_rejected(self):
        with pytest.raises(StorageError, match="non-empty"):
            MembershipMap().set("", [0])


class TestWorkerHealth:
    def test_suspect_then_dead_then_recovered(self):
        h = WorkerHealth(dead_after=2)
        assert h.state == LIVE and h.usable
        assert h.record_failure() == SUSPECT
        assert h.usable  # suspect still routable (deprioritized)
        assert h.record_failure() == DEAD
        assert not h.usable
        assert h.record_success() == LIVE
        assert h.failures == 0

    def test_fatal_failure_skips_suspect(self):
        h = WorkerHealth(dead_after=5)
        assert h.record_failure(fatal=True) == DEAD

    def test_bad_threshold_rejected(self):
        with pytest.raises(QueryError, match="dead_after"):
            WorkerHealth(dead_after=0)


class TestRetryPolicy:
    def test_defaults_validate(self):
        p = RetryPolicy().validate()
        assert p.max_attempts >= 2  # a retry policy that never retries is no policy

    def test_exponential_backoff_is_capped(self):
        p = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5, jitter=0.0)
        assert p.delay(0) == pytest.approx(0.1)
        assert p.delay(1) == pytest.approx(0.2)
        assert p.delay(10) == pytest.approx(0.5)  # capped

    def test_jitter_stays_in_band(self):
        p = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in range(4):
            full = min(0.1 * 2**attempt, 1.0)
            for _ in range(20):
                d = p.delay(attempt, rng)
                assert full * 0.5 <= d <= full

    def test_zero_base_means_no_sleep(self):
        assert RetryPolicy(base_delay_s=0.0).delay(3) == 0.0

    def test_bad_values_rejected(self):
        with pytest.raises(QueryError, match="max_attempts"):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(QueryError, match="delays"):
            RetryPolicy(base_delay_s=-1).validate()
        with pytest.raises(QueryError, match="jitter"):
            RetryPolicy(jitter=1.5).validate()


class TestServerMembershipOps:
    def test_hello_reports_epoch_and_ranges(self, shard_path):
        srv = ShardServer(load_serving_index(shard_path), owned=[0, 1], epoch=5)
        with srv:
            hello = _rpc(srv.address, {"op": "hello"})
        assert hello["epoch"] == 5
        assert hello["worker"] == srv.worker_id
        assert hello["draining"] is False
        ranges = hello["owned_ranges"]
        assert len(ranges) == 2
        assert ranges[0][0] == srv.shard_starts[0]
        assert ranges[0][1] == srv.shard_starts[1]  # exclusive hi

    def test_membership_op_publishes_the_self_view(self, shard_path):
        with ShardServer(load_serving_index(shard_path), owned=[2], epoch=3) as srv:
            view = _rpc(srv.address, {"op": "membership"})
            assert view["ok"] and view["epoch"] == 3
            assert view["members"] == {srv.worker_id: [2]}

    def test_join_records_peer_and_bumps_epoch(self, shard_path):
        with ShardServer(load_serving_index(shard_path), epoch=1) as srv:
            got = _rpc(
                srv.address,
                {"op": "join", "worker": "peer:999", "owned": [3], "epoch": 4},
            )
            assert got == {"ok": True, "epoch": 4}
            view = _rpc(srv.address, {"op": "membership"})
            assert view["members"]["peer:999"] == [3]
            # Self-join rewires this worker's own ownership.
            _rpc(
                srv.address,
                {"op": "join", "worker": srv.worker_id, "owned": [0], "epoch": 5},
            )
            hello = _rpc(srv.address, {"op": "hello"})
            assert hello["owned"] == [0] and hello["epoch"] == 5

    def test_leave_of_self_drains(self, shard_path, graph):
        v = sorted(graph.vertices())[0]
        with ShardServer(load_serving_index(shard_path)) as srv:
            # Sanity: answers before the drain.
            ok = _rpc(srv.address, {"op": "distances", "pairs": [[v, v]]})
            assert ok["distances"] == [0]
            got = _rpc(srv.address, {"op": "leave", "worker": srv.worker_id})
            assert got["draining"] is True
            hello = _rpc(srv.address, {"op": "hello"})
            assert hello["owned"] == [] and hello["draining"] is True
            # Every new bucket is now a staleness signal, even non-strict.
            rejected = _rpc(srv.address, {"op": "distances", "pairs": [[v, v]]})
            assert rejected["error_kind"] == "not_owner"
            assert rejected["draining"] is True

    def test_join_and_leave_need_a_worker_id(self, shard_path):
        with ShardServer(load_serving_index(shard_path)) as srv:
            for op in ("join", "leave"):
                got = _rpc(srv.address, {"op": op})
                assert got["error_kind"] == "query"


class TestStrictOwnership:
    def test_strict_rejects_foreign_buckets_structurally(self, shard_path):
        index = load_serving_index(shard_path)
        srv = ShardServer(index, owned=[0, 1], strict=True, epoch=2)
        with srv:
            owned_v = srv.shard_starts[0]
            foreign_v = srv.shard_starts[2]
            got = _rpc(
                srv.address,
                {"op": "distances", "pairs": [[foreign_v, foreign_v]]},
            )
            assert got["error_kind"] == "not_owner"
            assert got["epoch"] == 2 and got["owned"] == [0, 1]
            assert got["draining"] is False
            # A bucket touching an owned shard on either side is served.
            ok = _rpc(
                srv.address,
                {"op": "distances", "pairs": [[owned_v, foreign_v]]},
            )
            assert "error" not in ok

    def test_strict_fleet_serves_exactly(self, shard_path, expected):
        pairs, want = expected
        servers = [
            ShardServer(load_serving_index(shard_path), owned=owned, strict=True)
            for owned in assign_shards(4, 2)
        ]
        for srv in servers:
            srv.start()
        try:
            with RemoteEngine(
                addresses=[srv.address for srv in servers]
            ) as engine:
                assert engine.distances(pairs) == want
        finally:
            for srv in servers:
                srv.shutdown()

    def test_stale_client_refreshes_on_not_owner(self, shard_path, expected):
        """Shards [0, 1] move to a server the client has never met; the
        old owner drains.  Buckets living entirely in those shards are
        now rejected by every *known* worker, so the client must follow
        the not_owner staleness signal: refresh membership, discover the
        new worker, dial it, reroute — and the stream stays exact."""
        pairs, want = expected
        a = ShardServer(load_serving_index(shard_path), owned=[0, 1], strict=True)
        b = ShardServer(load_serving_index(shard_path), owned=[2, 3], strict=True)
        c = ShardServer(
            load_serving_index(shard_path), owned=[0, 1], strict=True, epoch=1
        )
        for srv in (a, b, c):
            srv.start()
        try:
            engine = RemoteEngine(addresses=[a.address, b.address])
            assert engine.distances(pairs) == want  # routed by the old map
            # Hand a's shards to c fleet-wide, then drain a (the same
            # choreography `repro rebalance` drives over the wire).
            for srv in (a, b):
                _rpc(
                    srv.address,
                    {"op": "join", "worker": c.worker_id, "owned": [0, 1],
                     "epoch": 1},
                )
                _rpc(
                    srv.address,
                    {"op": "leave", "worker": a.worker_id, "epoch": 2},
                )
            assert engine.distances(pairs) == want  # stale routes healed
            assert engine.membership.epoch >= 2
            assert engine.membership.owned_by(c.worker_id) == [0, 1]
            assert any(w.id == c.worker_id for w in engine._workers)
            engine.close()
        finally:
            for srv in (a, b, c):
                srv.shutdown()

    def test_discovered_worker_keeps_the_engine_window(
        self, shard_path, expected
    ):
        """A worker learned from a ``not_owner`` refresh is dialed with
        the engine's ``max_in_flight``, like the configured ones."""
        pairs, want = expected
        a = ShardServer(load_serving_index(shard_path), strict=True)
        c = ShardServer(load_serving_index(shard_path), strict=True, epoch=1)
        for srv in (a, c):
            srv.start()
        try:
            with RemoteEngine(addresses=[a.address], max_in_flight=3) as engine:
                everything = list(range(len(a.shard_starts)))
                _rpc(
                    a.address,
                    {"op": "join", "worker": c.worker_id, "owned": everything,
                     "epoch": 1},
                )
                _rpc(a.address, {"op": "leave", "worker": a.worker_id, "epoch": 2})
                assert engine.distances(pairs) == want
                found = [w for w in engine._workers if w.id == c.worker_id]
                assert len(found) == 1 and found[0].chan.max_in_flight == 3
        finally:
            for srv in (a, c):
                srv.shutdown()

    def test_slow_discovery_dial_keeps_concurrent_buckets_alive(
        self, shard_path, expected, monkeypatch
    ):
        """While one refresh is still dialing the replacement owner, the
        old owner already reads as draining; a concurrent bucket that
        finds nobody usable must re-learn the fleet, not give up."""
        from repro.serving import remote

        pairs, want = expected
        a = ShardServer(load_serving_index(shard_path), strict=True)
        c = ShardServer(load_serving_index(shard_path), strict=True, epoch=1)
        for srv in (a, c):
            srv.start()
        connect = remote._Worker.connect

        def slow_connect(worker):
            if worker.id == c.worker_id:
                time.sleep(0.3)  # widen the refresh's discovery window
            connect(worker)

        monkeypatch.setattr(remote._Worker, "connect", slow_connect)
        try:
            with RemoteEngine(addresses=[a.address]) as engine:
                everything = list(range(len(a.shard_starts)))
                _rpc(
                    a.address,
                    {"op": "join", "worker": c.worker_id, "owned": everything,
                     "epoch": 1},
                )
                _rpc(a.address, {"op": "leave", "worker": a.worker_id, "epoch": 2})
                assert engine.distances(pairs) == want
        finally:
            for srv in (a, c):
                srv.shutdown()


class TestHeartbeat:
    def test_heartbeat_marks_dead_and_revives(self, shard_path, expected):
        pairs, want = expected
        srv = ShardServer(load_serving_index(shard_path))
        host, port = srv.start()
        engine = RemoteEngine(addresses=[(host, port)], heartbeat_s=0.05)
        try:
            assert engine.distances(pairs[:4]) == want[:4]
            worker = engine._workers[0]
            srv.shutdown()
            deadline = time.monotonic() + 10.0
            while worker.health.state != DEAD and time.monotonic() < deadline:
                time.sleep(0.05)
            assert worker.health.state == DEAD
            # Same identity comes back; the heartbeat's revival probe
            # reconnects and the engine routes to it again.
            srv = ShardServer(load_serving_index(shard_path), port=port)
            srv.start()
            deadline = time.monotonic() + 10.0
            while worker.health.state != LIVE and time.monotonic() < deadline:
                time.sleep(0.05)
            assert worker.health.state == LIVE
            assert engine.distances(pairs[:4]) == want[:4]
        finally:
            engine.close()
            srv.shutdown()

    def test_bad_heartbeat_env_rejected(self, monkeypatch, shard_path):
        from repro.errors import IndexBuildError
        from repro.serving.remote import REMOTE_HEARTBEAT_ENV

        monkeypatch.setenv(REMOTE_HEARTBEAT_ENV, "soon")
        with pytest.raises(IndexBuildError, match=REMOTE_HEARTBEAT_ENV):
            RemoteEngine(addresses=[("127.0.0.1", 1)])
