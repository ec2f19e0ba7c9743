"""Async serving core: pipelined wire protocol + admission control.

Covers the protocol-v2 request-id machinery end to end: interleaved
request ids on one connection completing out of order, multi-client
pipelining fuzz, concurrent senders sharing one connection, prompt
close, the ``overloaded`` admission/backoff path, clean
cancellation on abrupt client disconnect (no thread or socket leak), the
shared env-knob parser, and a chaos case — SIGKILL a worker with
multiple requests in flight and stay bit-exact.
"""

import socket
import struct
import threading
import time

import pytest

from repro.core.index import ISLabelIndex
from repro.core.serialization import load_index, save_snapshot
from repro.envvars import read_env_float, read_env_int
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.serving import wire
from repro.serving.chaos import ChaosProxy, FaultInjector
from repro.serving.membership import LIVE, RetryPolicy
from repro.serving.remote import RemoteEngine
from repro.serving.scheduler import assign_shards
from repro.serving.server import ShardServer, load_serving_index

SHARDS = 6
FAST_RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.01, max_delay_s=0.05)


@pytest.fixture(scope="module")
def graph():
    return ensure_connected(erdos_renyi(60, 150, seed=23, max_weight=5), seed=23)


@pytest.fixture(scope="module")
def snap_path(graph, tmp_path_factory):
    index = ISLabelIndex.build(graph)
    path = tmp_path_factory.mktemp("async") / "g.shards"
    save_snapshot(index, path, shards=SHARDS)
    return str(path)


@pytest.fixture(scope="module")
def expected(graph, snap_path):
    index = load_index(snap_path, engine="fast")
    vertices = sorted(graph.vertices())[::3]
    pairs = [(s, t) for s in vertices for t in vertices]
    return pairs, index.distances(pairs)


@pytest.fixture()
def server(snap_path):
    with ShardServer(
        load_serving_index(snap_path, engine="sharded"), max_concurrency=2
    ) as srv:
        yield srv


def _connect(server, **kwargs):
    return wire.PipelinedConnection(
        socket.create_connection(server.address), **kwargs
    )


def _wire_threads(before):
    """Names of the live client-channel threads started since ``before``."""
    return [
        t.name
        for t in threading.enumerate()
        if t not in before and t.name.startswith("repro-wire")
    ]


class TestPipelinedConnection:
    def test_out_of_order_completion_by_request_id(self, server, expected):
        """Many requests in flight on one socket; answers come back right
        even though the admission executor may reorder completions."""
        pairs, want = expected
        chan = _connect(server)
        try:
            hello = chan.request({"op": "hello"})
            assert hello["version"] == wire.PROTOCOL_VERSION
            futures = [
                chan.submit({"op": "distances", "pairs": [[s, t]]})
                for s, t in pairs[:48]
            ]
            got = [f.result(timeout=30)["distances"][0] for f in futures]
            assert got == want[:48]
        finally:
            chan.close()

    def test_interleaved_control_ops_complete_inline(self, server):
        """Control traffic is answered by the reader thread while
        searches wait in the executor — a ping never queues behind work."""
        chan = _connect(server)
        try:
            search = chan.submit({"op": "distances", "pairs": [[0, 1]]})
            ping = chan.request({"op": "ping"})
            assert ping == {"ok": True}
            assert "distances" in search.result(timeout=30)
        finally:
            chan.close()

    def test_response_without_id_fails_every_pending_request(self):
        """Answers are matched by echoed ``id`` only: a peer that replies
        without one cannot be lined up with any request, so the channel
        fails that future and every other pending one instead of guessing
        by arrival order."""
        client, peer = socket.socketpair()
        chan = wire.PipelinedConnection(client)
        try:
            first = chan.submit({"op": "ping"})
            second = chan.submit({"op": "ping"})
            assert wire.recv_frame(peer)["id"] != wire.recv_frame(peer)["id"]
            wire.send_frame(peer, {"ok": True})  # no echoed id
            for future in (first, second):
                with pytest.raises(wire.WireError, match="request id"):
                    future.result(timeout=10)
            assert chan.closed and chan.in_flight == 0
            with pytest.raises(wire.WireError):
                chan.submit({"op": "ping"})
        finally:
            chan.close()
            peer.close()

    def test_submit_after_close_raises(self, server):
        chan = _connect(server)
        chan.close()
        with pytest.raises(wire.WireError):
            chan.submit({"op": "ping"})

    def test_multi_client_pipelining_fuzz(self, server, expected):
        """Several client threads, each with interleaved ids in flight,
        against one server: every answer lands on the right future."""
        pairs, want = expected
        errors = []

        def client(offset):
            try:
                chan = _connect(server, max_in_flight=16)
                try:
                    window = [
                        (pairs[(offset + i) % len(pairs)], i)
                        for i in range(64)
                    ]
                    futures = [
                        (chan.submit({"op": "distances", "pairs": [[s, t]]}), (s, t))
                        for (s, t), _ in window
                    ]
                    for future, (s, t) in futures:
                        got = future.result(timeout=30)["distances"][0]
                        assert got == want[pairs.index((s, t))]
                finally:
                    chan.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(o,)) for o in (0, 131, 977)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors

    def test_shared_connection_concurrent_senders(self, server, expected):
        """Several threads send on ONE connection at once (each on its own
        thread, under the send lock): frames never interleave and every
        future gets its own answer.  The connection owns one thread."""
        pairs, want = expected
        before = set(threading.enumerate())
        chan = _connect(server, max_in_flight=8)
        try:
            assert _wire_threads(before) == ["repro-wire-reader"]
            start = threading.Barrier(4)
            errors = []

            def sender(offset):
                try:
                    start.wait(timeout=10)
                    futures = []
                    for i in range(40):
                        lo = (offset + 7 * i) % (len(pairs) - 3)
                        hi = lo + 1 + i % 3  # one-, two- and three-pair frames
                        batch = [list(p) for p in pairs[lo:hi]]
                        futures.append(
                            (chan.submit({"op": "distances", "pairs": batch}), lo, hi)
                        )
                    for future, lo, hi in futures:
                        got = future.result(timeout=30)["distances"]
                        assert got == want[lo:hi], (lo, hi)
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=sender, args=(o,))
                for o in (0, 101, 233, 389)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert chan.in_flight == 0
        finally:
            chan.close()

    def test_close_of_an_idle_channel_is_prompt(self, server):
        """close() wakes the reader out of recv at once instead of waiting
        out its join timeout, and leaves no reader thread behind."""
        before = set(threading.enumerate())
        chan = _connect(server)
        assert chan.request({"op": "ping"}) == {"ok": True}
        assert _wire_threads(before) == ["repro-wire-reader"]
        began = time.monotonic()
        chan.close()
        assert time.monotonic() - began < 1.0
        assert _wire_threads(before) == []


class TestAdmissionControl:
    def test_overloaded_rejection_is_structured(self, snap_path):
        """A full admission queue answers overloaded immediately, with
        depth fields, and the connection survives."""
        with ShardServer(
            load_serving_index(snap_path, engine="sharded"),
            max_concurrency=1,
            max_queue=1,
        ) as srv:
            chan = _connect(srv, max_in_flight=32)
            try:
                futures = [
                    chan.submit({"op": "distances", "pairs": [[0, 1]]})
                    for _ in range(24)
                ]
                responses = [f.result(timeout=30) for f in futures]
                rejected = [r for r in responses if "error" in r]
                served = [r for r in responses if "distances" in r]
                assert served, "some searches must get through"
                assert rejected, "a 24-deep burst must overflow queue=1"
                for r in rejected:
                    assert r["error_kind"] == "overloaded"
                    assert r["max_queue"] == 1
                # The connection is still usable after rejections.
                assert chan.request({"op": "ping"})["ok"] is True
                depth = chan.request({"op": "stats"})["depth"]
                assert depth["rejected"] == len(rejected)
            finally:
                chan.close()

    def test_remote_engine_backs_off_and_retries_overloaded(self, snap_path):
        """The remote engine treats overloaded as backpressure: retry the
        same healthy fleet (nobody marked dead), eventually succeed."""
        with ShardServer(
            load_serving_index(snap_path, engine="sharded"),
            max_concurrency=1,
            max_queue=2,
        ) as srv:
            fast = load_index(snap_path, engine="fast")
            pairs = [(s, t) for s in range(0, 40) for t in range(0, 40, 7)]
            host, port = srv.address
            with RemoteEngine(
                addresses=[(host, port)],
                retry=RetryPolicy(
                    max_attempts=30, base_delay_s=0.01, max_delay_s=0.03
                ),
                max_in_flight=64,
            ) as engine:
                assert engine.distances(pairs) == fast.distances(pairs)
                # Backpressure is not a fault: nobody excluded or dead.
                assert engine._workers[0].health.state == LIVE
                assert engine.failovers == []

    def test_stats_reports_serving_depth(self, server):
        chan = _connect(server)
        try:
            stats = chan.request({"op": "stats"})
            depth = stats["depth"]
            for key in (
                "in_flight",
                "queued",
                "rejected",
                "cancelled",
                "executed",
                "max_concurrency",
                "max_queue",
            ):
                assert key in depth
            conns = stats["connections"]
            assert len(conns) == 1 and conns[0]["in_flight"] == 0
        finally:
            chan.close()


class TestDisconnectCleanup:
    def test_abrupt_disconnect_cancels_pending_work(self, snap_path, expected):
        """The bugfix: a client that vanishes mid-request must not leak
        its queued searches, its handler thread, or its socket."""
        pairs, _ = expected
        with ShardServer(
            load_serving_index(snap_path, engine="sharded"),
            max_concurrency=1,
            max_queue=64,
        ) as srv:
            sock = socket.create_connection(srv.address)
            for i, (s, t) in enumerate(pairs[:32]):
                wire.send_frame(
                    sock, {"op": "distances", "pairs": [[s, t]], "id": i}
                )
            # Vanish abruptly with most of those still queued.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),  # RST on close, not FIN
            )
            sock.close()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with srv._lock:
                    if not srv._handlers and not srv._conns and not srv._states:
                        break
                time.sleep(0.02)
            with srv._lock:
                assert srv._handlers == [], "handler thread leaked"
                assert srv._conns == [], "socket leaked"
                assert srv._states == [], "connection state leaked"
            # A fresh client still gets served; cancelled work is counted.
            chan = _connect(srv)
            try:
                assert "distances" in chan.request(
                    {"op": "distances", "pairs": [[0, 1]]}
                )
                # The executor decrements in_flight a beat after the
                # response is sent; poll for the drained state.
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    depth = chan.request({"op": "stats"})["depth"]
                    if depth["in_flight"] == 0 and depth["queued"] == 0:
                        break
                    time.sleep(0.02)
                assert depth["in_flight"] == 0 and depth["queued"] == 0
            finally:
                chan.close()

    def test_server_shutdown_reaps_executor_threads(self, snap_path):
        srv = ShardServer(load_serving_index(snap_path, engine="sharded"))
        srv.start()
        before = {t.name for t in threading.enumerate()}
        assert any(n.startswith("repro-search-") for n in before)
        srv.shutdown()
        time.sleep(0.1)
        after = {t.name for t in threading.enumerate() if t.is_alive()}
        assert not any(n.startswith("repro-search-") for n in after)


class TestEnvHelper:
    def test_unset_and_blank_are_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert read_env_float("REPRO_TEST_KNOB") is None
        monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
        assert read_env_float("REPRO_TEST_KNOB") is None

    def test_blank_can_be_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            read_env_float("REPRO_TEST_KNOB", blank_is_unset=False)

    def test_valid_values(self, monkeypatch):
        for raw, want in (("0", 0.0), ("2.5", 2.5), ("1e2", 100.0)):
            monkeypatch.setenv("REPRO_TEST_KNOB", raw)
            assert read_env_float("REPRO_TEST_KNOB") == want

    def test_invalid_values_name_variable_and_quantity(self, monkeypatch):
        for bad in ("soon", "-1", "inf", "-inf", "nan", "1j"):
            monkeypatch.setenv("REPRO_TEST_KNOB", bad)
            with pytest.raises(ValueError, match="REPRO_TEST_KNOB") as err:
                read_env_float("REPRO_TEST_KNOB", what="frob interval")
            assert "frob interval" in str(err.value), bad

    def test_raw_override_skips_environ(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert read_env_float("REPRO_TEST_KNOB", raw="3.5") == 3.5
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            read_env_float("REPRO_TEST_KNOB", raw="banana")

    def test_wire_timeout_uses_helper(self, monkeypatch):
        monkeypatch.setenv(wire.WIRE_TIMEOUT_ENV, "0.25")
        assert wire.configured_timeout() == 0.25
        monkeypatch.setenv(wire.WIRE_TIMEOUT_ENV, "")
        assert wire.configured_timeout() is None
        monkeypatch.setenv(wire.WIRE_TIMEOUT_ENV, "never")
        with pytest.raises(ValueError, match=wire.WIRE_TIMEOUT_ENV):
            wire.configured_timeout()


class TestEnvIntHelper:
    def test_unset_and_blank_are_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_COUNT", raising=False)
        assert read_env_int("REPRO_TEST_COUNT") is None
        monkeypatch.setenv("REPRO_TEST_COUNT", "   ")
        assert read_env_int("REPRO_TEST_COUNT") is None

    def test_valid_values(self, monkeypatch):
        for raw, want in (("0", 0), ("8", 8), ("  42 ", 42)):
            monkeypatch.setenv("REPRO_TEST_COUNT", raw)
            assert read_env_int("REPRO_TEST_COUNT") == want

    def test_fractional_and_garbage_name_variable(self, monkeypatch):
        for bad in ("2.5", "eight", "1e2", "inf", ""):
            with pytest.raises(ValueError, match="REPRO_TEST_COUNT") as err:
                read_env_int(
                    "REPRO_TEST_COUNT",
                    what="widget budget",
                    raw=bad,
                    blank_is_unset=False,
                )
            assert "widget budget" in str(err.value), bad

    def test_minimum_enforced_with_bound_in_message(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_COUNT", "0")
        with pytest.raises(ValueError, match=">= 1"):
            read_env_int("REPRO_TEST_COUNT", minimum=1)
        monkeypatch.setenv("REPRO_TEST_COUNT", "-3")
        with pytest.raises(ValueError, match="REPRO_TEST_COUNT"):
            read_env_int("REPRO_TEST_COUNT")

    def test_in_flight_window_reads_env(self, monkeypatch):
        from repro.serving import remote

        monkeypatch.setenv(remote.REMOTE_MAX_IN_FLIGHT_ENV, "7")
        assert remote._in_flight_window(None) == 7
        monkeypatch.delenv(remote.REMOTE_MAX_IN_FLIGHT_ENV, raising=False)
        assert remote._in_flight_window(None) == remote.DEFAULT_MAX_IN_FLIGHT
        assert remote._in_flight_window(5) == 5


class TestEnvBoolHelper:
    def test_unset_and_blank_are_none(self, monkeypatch):
        from repro.envvars import read_env_bool

        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert read_env_bool("REPRO_TEST_FLAG") is None
        monkeypatch.setenv("REPRO_TEST_FLAG", "  ")
        assert read_env_bool("REPRO_TEST_FLAG") is None

    def test_strict_vocabulary(self, monkeypatch):
        from repro.envvars import read_env_bool

        for raw, want in (
            ("true", True),
            ("TRUE", True),
            ("1", True),
            ("false", False),
            (" False ", False),
            ("0", False),
        ):
            monkeypatch.setenv("REPRO_TEST_FLAG", raw)
            assert read_env_bool("REPRO_TEST_FLAG") is want, raw
        # yes/on/no/off must fail loudly, naming variable and quantity.
        for bad in ("yes", "no", "on", "off", "2", "t"):
            monkeypatch.setenv("REPRO_TEST_FLAG", bad)
            with pytest.raises(ValueError, match="REPRO_TEST_FLAG") as err:
                read_env_bool("REPRO_TEST_FLAG", what="cache enable flag")
            assert "cache enable flag" in str(err.value), bad

    def test_cache_knobs_route_through_envvars(self, monkeypatch):
        from repro.caching.engine import (
            ENV_CACHE_ENTRIES,
            ENV_CACHE_TTL_S,
            cache_entries_from_env,
            cache_ttl_from_env,
        )
        from repro.errors import IndexBuildError

        monkeypatch.setenv(ENV_CACHE_ENTRIES, "4096")
        assert cache_entries_from_env() == 4096
        monkeypatch.setenv(ENV_CACHE_ENTRIES, "0")
        with pytest.raises(IndexBuildError, match=ENV_CACHE_ENTRIES):
            cache_entries_from_env()
        monkeypatch.setenv(ENV_CACHE_TTL_S, "2.5")
        assert cache_ttl_from_env() == 2.5
        monkeypatch.setenv(ENV_CACHE_TTL_S, "0")
        assert cache_ttl_from_env() is None  # 0 means "no TTL"
        monkeypatch.setenv(ENV_CACHE_TTL_S, "soon")
        with pytest.raises(IndexBuildError, match=ENV_CACHE_TTL_S):
            cache_ttl_from_env()


class TestLatencyLink:
    """ChaosProxy ``"latency"`` mode: a long but uncongested link."""

    def test_pipelining_hides_link_latency(self, server, expected):
        """N requests over an 80 ms-RTT link should take ~1 RTT, not N:
        the latency sender must not stack delays chunk-on-chunk."""
        pairs, want = expected
        proxy = ChaosProxy(server.address)
        proxy.latency_s = 0.08
        proxy.mode = "latency"
        chan = wire.PipelinedConnection(
            socket.create_connection(proxy.address)
        )
        try:
            chan.request({"op": "ping"})  # connection + first RTT warm
            started = time.monotonic()
            futures = [
                chan.submit({"op": "distances", "pairs": [[s, t]]})
                for s, t in pairs[:6]
            ]
            got = [f.result(timeout=30)["distances"][0] for f in futures]
            elapsed = time.monotonic() - started
            assert got == want[:6]
            # Serial would pay >= 6 x 80 ms = 480 ms; overlapped
            # in-flight requests share the propagation delay.
            assert elapsed < 0.4, f"link delays stacked: {elapsed:.3f}s"
        finally:
            chan.close()
            proxy.close()


class TestChaosPipelined:
    def test_sigkill_with_requests_in_flight_stays_exact(
        self, snap_path, expected
    ):
        """SIGKILL a worker while >= 2 pipelined requests are in flight;
        replica-aware retry keeps every answer bit-exact."""
        pairs, want = expected
        ownership = assign_shards(SHARDS, 3, replication=2)
        with FaultInjector() as fleet:
            fleet.spawn_fleet(
                snap_path,
                ownership,
                extra_env={"REPRO_WIRE_TIMEOUT_S": "2.0"},
            )
            engine = RemoteEngine(
                addresses=fleet.addresses, retry=FAST_RETRY, max_in_flight=16
            )
            try:
                engine.freeze()
                results = {}
                errors = []
                started = threading.Barrier(3)

                def drive(lane):
                    try:
                        started.wait(timeout=10)
                        lane_pairs = pairs[lane::3]
                        results[lane] = engine.distances(lane_pairs)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(lane,))
                    for lane in range(2)
                ]
                for t in threads:
                    t.start()
                # Kill a worker while both driver threads are mid-stream:
                # >= 2 requests in flight across the fleet.
                started.wait(timeout=10)
                time.sleep(0.05)
                fleet.workers[0].kill()
                for t in threads:
                    t.join(timeout=120)
                assert not errors, errors
                for lane in (0, 1):
                    assert results[lane] == want[lane::3], f"lane {lane}"
            finally:
                engine.close()
        assert all(
            w.proc is None or w.proc.poll() is not None for w in fleet.workers
        )
