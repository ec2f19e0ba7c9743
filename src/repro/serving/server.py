"""Localhost/network shard server: one worker of a remote serving fleet.

A :class:`ShardServer` wraps a loaded index (any engine; the sharded
snapshot engine is the point of the exercise) behind the length-prefixed
protocol of :mod:`repro.serving.wire`.  A fleet deployment runs one
server per worker over the *same* sharded snapshot directory, each
claiming a slice of the shard ownership map (``owned``): the sharded
engine maps shard files lazily, so a worker that is only routed its own
buckets faults in only its own shards — the fleet's combined page
working set covers an index no single worker could hold, while the small
replicated ``shared.snap`` (``G_k`` + all-pairs table) stays in the
shared page cache.

**Pipelining + admission control** (protocol v2): each connection's
reader thread answers control ops (``hello``, ``ping``, ``stats``,
membership) inline, but hands ``distances`` searches to a bounded
**admission executor** shared by every connection — ``max_concurrency``
worker threads over a queue capped at ``max_queue``.  Requests carry
ids, so one connection can have many searches in flight and receive the
answers out of order while control traffic stays responsive.  When the
queue is full the request is rejected immediately with the structured
``overloaded`` error kind — a client backs off and retries instead of
timing out blind.  A client that disconnects mid-request has its queued
searches cancelled and its in-flight answers discarded; nothing leaks.

Engine access stays serialized behind ``_query_lock`` (the packed
engines' search buffers are per thread, but the lazily materialized
label caches are plain dicts), so ``max_concurrency > 1`` overlaps the
request decode / response encode / socket I/O of one search with the
engine stage of another rather than racing the engine itself.  Fleet
parallelism comes from running more workers.

Ownership is by default a *routing contract*, not a hard wall: a
mis-routed pair is still answered correctly (the engine maps the foreign
shard on demand), it just costs locality.  ``strict=True`` turns the
contract into a wall — a bucket whose pairs touch none of this worker's
owned shards is rejected with the structured ``not_owner`` error kind,
which clients treat as a membership-staleness signal (refresh the
ownership map, reroute).  The ``hello`` handshake reports the shard
starts, owned indices and vertex-id ranges, the membership **epoch**,
and the protocol ``version`` so the client-side scheduler can honour
(and version) the contract and pipeline safely.

Membership is runtime state (:mod:`repro.serving.membership`): the
``join``/``leave`` ops update this worker's view of the fleet and bump
the epoch.  A worker told to *leave itself* **drains** — in-flight
requests complete, its ownership empties, and every new non-owned bucket
is answered ``not_owner`` (even outside strict mode) so clients move to
the new owner.  ``repro rebalance`` drives exactly that sequence.

Failure behavior: per-request errors (uncovered vertices, malformed
frames' payloads) are answered as ``{"error": ...}`` and the connection
survives; protocol violations (garbage framing) drop the connection;
an idle wire timeout (``REPRO_WIRE_TIMEOUT_S``) keeps the connection;
``shutdown`` stops the accept loop, closes the listening socket and
reaps the handler threads and the executor, so a supervisor sees a
clean exit.
"""

from __future__ import annotations

import socket
import threading
from bisect import bisect_right
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.analysis.lockcheck import create_lock
from repro.core import kernels
from repro.errors import QueryError, ReproError, StorageError
from repro.serving import wire
from repro.serving.membership import MembershipMap

__all__ = ["ShardServer", "load_serving_index"]


def load_serving_index(path: str, engine: str = "sharded"):
    """Load a snapshot with the right loader for its kind."""
    from repro.core.serialization import (
        is_directed_artifact,
        load_directed_index,
        load_index,
    )

    if is_directed_artifact(path):
        return load_directed_index(path, engine=engine)
    return load_index(path, engine=engine)


class _Conn:
    """Per-connection serving state: the socket, its send lock, depth."""

    __slots__ = ("sock", "send_lock", "closed", "in_flight", "peer")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.send_lock = create_lock("shard-server.conn-send")
        self.closed = False
        #: Admitted-but-unanswered ``distances`` requests (serving depth).
        self.in_flight = 0
        try:
            host, port = sock.getpeername()[:2]
            self.peer = f"{host}:{port}"
        except OSError:  # pragma: no cover - peer gone before we looked
            self.peer = "?"


class _AdmissionExecutor:
    """The admission-control stage: a bounded queue in front of searches.

    ``workers`` threads drain a deque capped at ``max_queue`` waiting
    entries.  :meth:`submit` never blocks — a full queue is an immediate
    ``False`` (the server answers ``overloaded``), which is the whole
    point: under overload clients get a structured signal *now* instead
    of a timeout later, and the queue depth bounds worst-case latency.
    :meth:`cancel` drops queued work for a connection that went away.
    """

    def __init__(self, workers: int, max_queue: int) -> None:
        if workers < 1:
            raise StorageError(
                f"admission executor needs >= 1 worker thread, got {workers}"
            )
        if max_queue < 1:
            raise StorageError(
                f"admission queue capacity must be >= 1, got {max_queue}"
            )
        self.workers = workers
        self.max_queue = max_queue
        self._tasks: Deque[Tuple[_Conn, Callable[[], None]]] = deque()
        self._cv = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._stop = False
        self.in_flight = 0
        self.rejected = 0
        self.cancelled = 0
        self.executed = 0

    def start(self) -> None:
        if self._threads:
            return
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._run, name=f"repro-search-{i}", daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def submit(self, state: _Conn, task: Callable[[], None]) -> bool:
        """Queue one search; False = at capacity (answer ``overloaded``)."""
        with self._cv:
            if self._stop:
                return False
            if len(self._tasks) >= self.max_queue:
                self.rejected += 1
                return False
            self._tasks.append((state, task))
            self._cv.notify()
            return True

    def cancel(self, state: _Conn) -> int:
        """Drop queued (not yet running) work for a dead connection."""
        with self._cv:
            kept = [(s, t) for s, t in self._tasks if s is not state]
            dropped = len(self._tasks) - len(kept)
            if dropped:
                self._tasks = deque(kept)
                self.cancelled += dropped
            return dropped

    def depth(self) -> dict:
        """The serving-depth counters the ``stats`` op publishes."""
        with self._cv:
            return {
                "in_flight": self.in_flight,
                "queued": len(self._tasks),
                "rejected": self.rejected,
                "cancelled": self.cancelled,
                "executed": self.executed,
                "max_concurrency": self.workers,
                "max_queue": self.max_queue,
            }

    def _run(self) -> None:
        while True:
            with self._cv:
                while not self._tasks and not self._stop:
                    self._cv.wait()
                if self._stop:
                    return
                _state, task = self._tasks.popleft()
                self.in_flight += 1
            try:
                task()
            finally:
                with self._cv:
                    self.in_flight -= 1
                    self.executed += 1
                    self._cv.notify()

    def shutdown(self) -> None:
        """Stop the worker threads; queued-but-unstarted work is dropped."""
        with self._cv:
            self._stop = True
            self.cancelled += len(self._tasks)
            self._tasks.clear()
            self._cv.notify_all()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        self._threads = []


class ShardServer:
    """Serves one index over the wire protocol, owning a shard slice.

    ``owned`` lists the shard indices this worker claims (``None`` =
    every shard — the single-worker deployment).  ``port=0`` lets the OS
    pick a free port; read :attr:`address` after :meth:`start`.
    ``strict`` enforces ownership (reject non-owned buckets with the
    ``not_owner`` error kind); ``epoch`` seeds the membership epoch a
    supervisor may have assigned this worker.  ``max_concurrency`` and
    ``max_queue`` shape the admission executor (see the module
    docstring): how many searches may run at once, and how many may wait
    before new ones are rejected ``overloaded``.

    Usable as a context manager; :meth:`start` spawns a daemon accept
    thread (tests, in-process fleets), :meth:`serve_forever` runs the
    accept loop in the calling thread (the ``repro serve`` CLI).
    """

    def __init__(
        self,
        index,
        host: str = "127.0.0.1",
        port: int = 0,
        owned: Optional[Sequence[int]] = None,
        strict: bool = False,
        epoch: int = 0,
        max_concurrency: int = 1,
        max_queue: int = 128,
        cache_entries: Optional[int] = None,
        cache_ttl_s: Optional[float] = None,
    ) -> None:
        from repro.core.directed import DirectedISLabelIndex
        from repro.serving.scheduler import shard_starts_of

        self.index = index
        self.kind = (
            "directed" if isinstance(index, DirectedISLabelIndex) else "undirected"
        )
        # Optional server-side hot-pair tier: a read-through
        # DistanceCache in front of the engine stage, so repeated pairs
        # skip both the query lock contention and the label merge.  The
        # snapshot an index serves is read-only, so staleness is purely
        # TTL-governed (cache_ttl_s); counters surface via the ``stats``
        # wire op.
        self.cache = None
        if cache_entries is not None or cache_ttl_s is not None:
            from repro.caching.cache import DistanceCache

            self.cache = DistanceCache(
                max_entries=cache_entries or 65536,
                ttl_s=cache_ttl_s,
                directed=(self.kind == "directed"),
            )
        self.shard_starts: List[int] = list(shard_starts_of(index))
        num_shards = max(len(self.shard_starts), 1)
        if owned is None:
            self.owned = list(range(num_shards))
        else:
            self.owned = sorted({int(i) for i in owned})
            bad = [i for i in self.owned if not 0 <= i < num_shards]
            if bad:
                raise StorageError(
                    f"owned shard indices {bad} out of range for "
                    f"{num_shards} shards"
                )
        self.strict = bool(strict)
        self.epoch = int(epoch)
        self.draining = False
        #: This worker's fleet identity and membership view; both exist
        #: once the listening address is known (after :meth:`bind`).
        self.worker_id: Optional[str] = None
        self.membership: Optional[MembershipMap] = None
        self._host = host
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._states: List[_Conn] = []
        self._lock = create_lock("shard-server.state")
        # The engine stage stays one-search-at-a-time: the packed
        # engines keep search buffers per thread, but the lazily
        # materialized label caches are plain dicts.  The
        # executor pipelines everything *around* the engine (decode,
        # encode, socket I/O); fleet parallelism comes from more workers.
        self._query_lock = create_lock("shard-server.query")
        self._executor = _AdmissionExecutor(max_concurrency, max_queue)
        self.max_concurrency = self._executor.workers
        self.max_queue = self._executor.max_queue
        self.queries_served = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._sock is None:
            raise StorageError("server is not started")
        return self._sock.getsockname()[:2]

    def bind(self) -> None:
        """Bind the listening socket without serving (address becomes readable)."""
        if self._sock is not None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self._host, self._port))
        sock.listen(64)
        sock.settimeout(0.2)  # lets the accept loop notice a shutdown
        self._sock = sock
        host, port = sock.getsockname()[:2]
        self.worker_id = f"{host}:{port}"
        self.membership = MembershipMap(epoch=self.epoch)
        self.membership.set(self.worker_id, self.owned)
        self._executor.start()

    def start(self) -> Tuple[str, int]:
        """Bind and serve from a background daemon thread; returns address."""
        self.bind()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-shard-server", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Bind (if needed) and run the accept loop in this thread."""
        self.bind()
        self._accept_loop()

    def shutdown(self) -> None:
        """Stop accepting, close every socket, join handlers and executor.

        Live client connections are closed too — an idle client blocked
        in a handler's ``recv`` would otherwise pin its thread (and the
        socket) until the process exits.
        """
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        if self._accept_thread is not None and self._accept_thread.is_alive():
            self._accept_thread.join(timeout=5.0)
        self._accept_thread = None
        with self._lock:
            conns = list(self._conns)
            handlers = list(self._handlers)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in handlers:
            thread.join(timeout=5.0)
        self._executor.shutdown()

    def __enter__(self) -> "ShardServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Accept / request loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            sock = self._sock
            if sock is None:
                break
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # socket closed under us by shutdown()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._lock:
                self._handlers.append(thread)
                self._conns.append(conn)
            thread.start()

    def _send_response(
        self, state: _Conn, response: dict, rid: Optional[int]
    ) -> bool:
        """Send one response frame, echoing the request id when present.

        Sends are serialized per connection (executor threads and the
        reader thread interleave their frames, never their bytes).  A
        failed send marks the connection closed; pending work for it is
        discarded rather than retried — the client is gone.
        """
        if rid is not None:
            response = dict(response, id=rid)
        with state.send_lock:
            if state.closed:
                return False
            try:
                # Deliberate: the send lock serializes exactly one frame
                # per holder so concurrent responses don't interleave.
                wire.send_frame(state.sock, response)  # repro-lint: disable=lock-discipline
                return True
            except (wire.WireError, OSError):
                state.closed = True
                return False

    def _serve_connection(self, conn: socket.socket) -> None:
        state = _Conn(conn)
        with self._lock:
            self._states.append(state)
        try:
            wire.apply_timeout(conn)
        except ValueError:
            pass  # a malformed env knob must not kill the handler
        try:
            while not self._stop.is_set():
                try:
                    payload = wire.recv_frame(conn)
                except wire.WireTimeout as exc:
                    if exc.partial:
                        break  # mid-frame: stream state unknown, drop
                    continue  # idle client; keep the connection
                except wire.WireError:
                    break  # corrupted stream: drop the connection
                if payload is None:
                    break  # client hung up cleanly
                rid = payload.get("id")
                if payload.get("op") == "distances":
                    response = self._admit_distances(state, rid, payload)
                    if response is None:
                        continue  # admitted; the executor answers it
                    stop = False
                else:
                    response, stop = self._handle(payload)
                if not self._send_response(state, response, rid):
                    break
                if stop:
                    self._stop.set()
                    # Unblock the accept loop promptly (it would otherwise
                    # only notice at the next accept timeout tick).
                    sock = self._sock
                    if sock is not None:
                        try:
                            sock.close()
                        except OSError:
                            pass
                        self._sock = None
                    break
        finally:
            # Disconnect cleanup: nothing this connection queued may
            # outlive it.  Queued searches are cancelled; an in-flight
            # search discards its answer at the closed-send check.
            state.closed = True
            self._executor.cancel(state)
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                me = threading.current_thread()
                if me in self._handlers:
                    self._handlers.remove(me)
                if conn in self._conns:
                    self._conns.remove(conn)
                if state in self._states:
                    self._states.remove(state)

    # ------------------------------------------------------------------
    # Ownership helpers
    # ------------------------------------------------------------------
    def _shard_of(self, v: int) -> int:
        if not self.shard_starts:
            return 0
        return max(bisect_right(self.shard_starts, v) - 1, 0)

    def owned_ranges(self, owned: Optional[Sequence[int]] = None) -> List[List]:
        """``[[lo, hi], ...]`` vertex-id ranges of the owned shards.

        ``hi`` is exclusive; the last shard's ``hi`` is ``None`` (open
        ended).  What ``hello`` publishes so a client can route without
        re-deriving the layout.
        """
        if not self.shard_starts:
            return []
        if owned is None:
            owned = self.owned
        starts = self.shard_starts
        out: List[List] = []
        for i in sorted(owned):
            hi = starts[i + 1] if i + 1 < len(starts) else None
            out.append([starts[i], hi])
        return out

    def update_owned(self, owned: Sequence[int], epoch: Optional[int] = None) -> None:
        """Replace this worker's owned slice (rebalancing); bumps the epoch."""
        with self._lock:
            self.owned = sorted({int(i) for i in owned})
            self.draining = False
            if self.membership is not None and self.worker_id is not None:
                self.epoch = self.membership.join(self.worker_id, self.owned, epoch)
            elif epoch is not None:
                self.epoch = max(self.epoch + 1, int(epoch))

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _reject_not_owner(self, pairs) -> Optional[dict]:
        """The ``not_owner`` rejection for a misrouted bucket, or None.

        A bucket is *owned* when any pair's source or target shard is in
        this worker's owned set (source- and target-side owners are both
        legitimate routing choices).  Applies in strict mode and while
        draining; unsharded snapshots have one implicit shard everyone
        owns.
        """
        with self._lock:
            strict = self.strict or self.draining
            owned = set(self.owned)
            epoch = self.epoch
        if not strict or not self.shard_starts or not pairs:
            return None
        if any(
            self._shard_of(s) in owned or self._shard_of(t) in owned
            for s, t in pairs
        ):
            return None
        buckets = sorted({(self._shard_of(s), self._shard_of(t)) for s, t in pairs})
        return {
            "error": (
                f"worker {self.worker_id} does not own bucket(s) "
                f"{buckets} (owned: {sorted(owned)}, epoch {epoch})"
            ),
            "error_kind": "not_owner",
            "epoch": epoch,
            "owned": sorted(owned),
            "draining": self.draining,
        }

    def _admit_distances(
        self, state: _Conn, rid: Optional[int], payload: dict
    ) -> Optional[dict]:
        """Validate, ownership-check and admit one ``distances`` request.

        Returns a response to send inline (malformed / ``not_owner`` /
        ``overloaded``), or ``None`` when the search was admitted — the
        executor sends its answer whenever it completes, possibly after
        later requests on the same connection (that is the pipelining).
        """
        with self._lock:
            self.requests_served += 1
        try:
            pairs = [(int(s), int(t)) for s, t in payload.get("pairs", [])]
        except (TypeError, ValueError) as exc:
            return {"error": f"malformed request: {exc}", "error_kind": "query"}
        rejection = self._reject_not_owner(pairs)
        if rejection is not None:
            return rejection
        with self._lock:
            state.in_flight += 1
        if not self._executor.submit(
            state, lambda: self._search_task(state, rid, pairs)
        ):
            with self._lock:
                state.in_flight -= 1
            depth = self._executor.depth()
            return {
                "error": (
                    f"worker {self.worker_id} is overloaded: "
                    f"{depth['queued']} queued (cap {depth['max_queue']}), "
                    f"{depth['in_flight']} in flight — back off and retry"
                ),
                "error_kind": "overloaded",
                "queued": depth["queued"],
                "max_queue": depth["max_queue"],
            }
        return None

    def _search_task(self, state: _Conn, rid: Optional[int], pairs) -> None:
        """One admitted search: engine stage, then the (possibly late) send."""
        try:
            if state.closed:
                return  # client left while we were queued: nothing to answer
            try:
                if self.cache is not None:
                    # Hot-pair tier: only the misses take the query lock
                    # and reach the engine; hits are answered lock-free.
                    def engine_stage(misses):
                        with self._query_lock:
                            return self.index.distances(misses)

                    answers = self.cache.read_through(
                        [(int(s), int(t)) for s, t in pairs], engine_stage
                    )
                else:
                    with self._query_lock:
                        answers = self.index.distances(pairs)
            except ReproError as exc:
                kind = "query" if isinstance(exc, QueryError) else "storage"
                response = {"error": str(exc), "error_kind": kind}
            except (TypeError, ValueError) as exc:
                response = {
                    "error": f"malformed request: {exc}",
                    "error_kind": "query",
                }
            else:
                response = {"ok": True, "distances": list(answers)}
                with self._lock:
                    self.queries_served += len(pairs)
            self._send_response(state, response, rid)
        finally:
            with self._lock:
                state.in_flight -= 1

    def _handle(self, payload: dict) -> Tuple[dict, bool]:
        op = payload.get("op")
        with self._lock:  # handler threads are concurrent; += is not atomic
            self.requests_served += 1
        try:
            if op == "hello":
                with self._lock:
                    owned = list(self.owned)
                    epoch = self.epoch
                    draining = self.draining
                return (
                    {
                        "ok": True,
                        "version": wire.PROTOCOL_VERSION,
                        "kind": self.kind,
                        "engine": self.index.engine,
                        "shard_starts": self.shard_starts,
                        "owned": owned,
                        "owned_ranges": self.owned_ranges(owned),
                        "num_shards": max(len(self.shard_starts), 1),
                        "epoch": epoch,
                        "draining": draining,
                        "worker": self.worker_id,
                    },
                    False,
                )
            if op == "membership":
                with self._lock:
                    if self.membership is None:
                        return (
                            {"error": "server is not bound", "error_kind": "storage"},
                            False,
                        )
                    body = self.membership.to_wire()
                return {"ok": True, **body}, False
            if op == "join":
                worker = str(payload.get("worker") or "")
                if not worker:
                    return (
                        {"error": "join needs a worker id", "error_kind": "query"},
                        False,
                    )
                owned = [int(i) for i in payload.get("owned", [])]
                wire_epoch = payload.get("epoch")
                with self._lock:
                    self.epoch = self.membership.join(worker, owned, wire_epoch)
                    if worker == self.worker_id:
                        self.owned = sorted(set(owned))
                        self.draining = False
                    epoch = self.epoch
                return {"ok": True, "epoch": epoch}, False
            if op == "leave":
                worker = str(payload.get("worker") or "")
                if not worker:
                    return (
                        {"error": "leave needs a worker id", "error_kind": "query"},
                        False,
                    )
                with self._lock:
                    self.epoch = self.membership.leave(
                        worker, payload.get("epoch")
                    )
                    draining_self = worker == self.worker_id
                    if draining_self:
                        # Drain: in-flight requests complete (handlers are
                        # already past the ownership check), new non-owned
                        # buckets get the not_owner staleness signal.
                        self.owned = []
                        self.draining = True
                    epoch = self.epoch
                return {"ok": True, "epoch": epoch, "draining": draining_self}, False
            if op == "stats":
                with self._lock:
                    per_conn = [
                        {"peer": s.peer, "in_flight": s.in_flight}
                        for s in self._states
                    ]
                return (
                    {
                        "ok": True,
                        "engine": self.index.engine,
                        "kernel_backend": kernels.BACKEND,
                        **{
                            f"kernel_{name}": count
                            for name, count in kernels.counters().items()
                        },
                        "owned": self.owned,
                        "epoch": self.epoch,
                        "draining": self.draining,
                        "queries_served": self.queries_served,
                        "requests_served": self.requests_served,
                        "depth": self._executor.depth(),
                        "connections": per_conn,
                        "cache": (
                            self.cache.stats() if self.cache is not None else None
                        ),
                    },
                    False,
                )
            if op == "ping":
                return {"ok": True}, False
            if op == "shutdown":
                return {"ok": True, "bye": True}, True
            return {"error": f"unknown op {op!r}", "error_kind": "query"}, False
        except ReproError as exc:
            # error_kind lets the client re-raise the right exception
            # class without parsing the human-readable message.
            kind = "query" if isinstance(exc, QueryError) else "storage"
            return {"error": str(exc), "error_kind": kind}, False
        except (TypeError, ValueError) as exc:
            return {"error": f"malformed request: {exc}", "error_kind": "query"}, False
