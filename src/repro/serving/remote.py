"""The ``"remote"`` query engine: distance queries over a worker fleet.

Registered for both orientations behind the standard
:func:`repro.core.engines.register_engine` seam, this engine implements
the :class:`~repro.core.engines.QueryEngine` protocol without holding a
single label: ``freeze`` dials the configured workers
(:class:`~repro.serving.server.ShardServer` processes), learns the shard
layout, each worker's owned slice and the membership **epoch** from the
``hello`` handshake, and builds a
:class:`~repro.serving.scheduler.ShardScheduler` whose dispatch sends
each shard-pair bucket as **one** ``distances`` frame to a worker owning
the bucket's source shard.  A fleet of workers each mapping only its
owned shard files can therefore serve an index larger than any single
worker's RAM, while the client amortizes framing and the server
amortizes its vectorized batch stages per bucket.

Worker addresses come from the ``addresses`` constructor argument or the
``REPRO_REMOTE_ADDRS`` environment variable (comma-separated
``host:port``), which is what lets the ordinary facade plumbing work
unchanged::

    os.environ["REPRO_REMOTE_ADDRS"] = "10.0.0.5:7071,10.0.0.6:7071"
    index = load_index("web.shards", engine="remote")   # no local labels
    index.distances(pairs)                              # scheduled over the fleet

**Failure behavior** (the fault-tolerance contract): dispatch is
*replica-aware*.  A connect failure, wire error or timeout marks the
worker dead and retries the bucket against the next live owner — failed
owners excluded, exponential backoff with jitter between attempts
(:class:`~repro.serving.membership.RetryPolicy`).  A strict server's
``not_owner`` answer is treated as a membership-staleness signal: the
engine refreshes its :class:`~repro.serving.membership.MembershipMap`
from the fleet (dialing any workers it learns about for the first time)
and reroutes.  When every candidate is exhausted the engine attempts to
*revive* dead workers (reconnect + re-handshake) before failing the
bucket loudly with :class:`~repro.errors.StorageError` — answers are
exact or the call errors, never silently wrong.  Each survived failover
is recorded in :attr:`RemoteEngineBase.failovers` (bucket, retries,
recovery seconds).

An optional background **heartbeat** thread (``heartbeat_s`` argument or
``REPRO_REMOTE_HEARTBEAT_S``; default off) rides the ``ping`` op to mark
workers suspect/dead between dispatches and to revive dead workers the
moment they answer again.

Per-query errors (``error_kind: "query"``) raise
:class:`~repro.errors.QueryError` immediately — a bad query is the
caller's bug and no amount of retrying fixes it.
``invalidate``/``close`` drop the connections; the next query redials.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.engines import (
    CAP_FAULT_TOLERANT,
    CAP_REMOTE,
    CAP_SHARDED,
    DIRECTED,
    UNDIRECTED,
    register_engine,
)
from repro.analysis.lockcheck import create_lock
from repro.envvars import read_env_float, read_env_int, read_env_str
from repro.errors import IndexBuildError, QueryError, StorageError
from repro.serving import wire
from repro.serving.membership import (
    DEAD,
    LIVE,
    MembershipMap,
    RetryPolicy,
    WorkerHealth,
)
from repro.serving.scheduler import SchedulerPolicy, ShardScheduler

__all__ = [
    "REMOTE_ADDRS_ENV",
    "REMOTE_HEARTBEAT_ENV",
    "REMOTE_MAX_IN_FLIGHT_ENV",
    "parse_addresses",
    "RemoteEngine",
    "DirectedRemoteEngine",
]

#: Environment fallback for the worker fleet: comma-separated
#: ``host:port`` entries, consulted when no ``addresses`` argument is
#: given (the registry factory path — ``load_index(..., engine="remote")``).
REMOTE_ADDRS_ENV = "REPRO_REMOTE_ADDRS"

#: Environment fallback for the heartbeat interval (seconds; unset/0 = off).
REMOTE_HEARTBEAT_ENV = "REPRO_REMOTE_HEARTBEAT_S"

#: Default pipelined in-flight window per worker channel when neither the
#: constructor argument nor the environment sets one.
REMOTE_MAX_IN_FLIGHT_ENV = "REPRO_REMOTE_MAX_IN_FLIGHT"
DEFAULT_MAX_IN_FLIGHT = 32

Address = Union[str, Tuple[str, int]]


def parse_addresses(spec: Union[str, Sequence[Address], None]) -> List[Tuple[str, int]]:
    """Normalize an address spec into ``[(host, port), ...]``.

    Accepts a comma-separated ``host:port`` string, a sequence of such
    strings, or a sequence of ``(host, port)`` tuples.
    """
    if spec is None:
        return []
    if isinstance(spec, str):
        items: Sequence[Address] = [s for s in spec.split(",") if s.strip()]
    else:
        items = spec
    out: List[Tuple[str, int]] = []
    for item in items:
        if isinstance(item, str):
            host, sep, port = item.strip().rpartition(":")
            if not sep or not host:
                raise IndexBuildError(
                    f"remote address {item!r} is not host:port"
                )
            try:
                out.append((host, int(port)))
            except ValueError:
                raise IndexBuildError(
                    f"remote address {item!r} has a non-numeric port"
                ) from None
        else:
            host, port = item
            out.append((str(host), int(port)))
    return out


class _Worker:
    """One fleet member: address, (re)connectable channel, handshake facts.

    The connection is a :class:`~repro.serving.wire.PipelinedConnection`:
    callers send on their own threads and one reader thread per worker
    resolves the answers, so every dispatch thread (and the heartbeat)
    can have requests in flight on the same socket concurrently — the
    channel matches responses to futures by request id.  ``lock`` only
    guards (re)connection, not round trips.
    """

    __slots__ = (
        "address",
        "timeout",
        "max_in_flight",
        "chan",
        "kind",
        "owned",
        "shard_starts",
        "epoch",
        "draining",
        "health",
        "lock",
    )

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float,
        *,
        max_in_flight: Optional[int] = None,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.timeout = timeout
        self.max_in_flight = (
            DEFAULT_MAX_IN_FLIGHT if max_in_flight is None else int(max_in_flight)
        )
        self.chan: Optional[wire.PipelinedConnection] = None
        self.kind: str = "undirected"
        self.owned: List[int] = []
        self.shard_starts: List[int] = []
        self.epoch = 0
        self.draining = False
        self.health = WorkerHealth()
        self.lock = create_lock("remote.worker-dial")

    @property
    def id(self) -> str:
        """The fleet identity (``host:port``) — also how the server names itself."""
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def connected(self) -> bool:
        """True while the channel exists and has not been poisoned."""
        return self.chan is not None and not self.chan.closed

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """(Re)dial and handshake; raises :class:`StorageError` on failure.

        Every failure is a :class:`StorageError` — a refused dial, a peer
        that hangs up or garbles the ``hello``, or a rejected handshake —
        so callers treat all of them alike as "this worker is down".
        """
        self.close()
        try:
            sock = socket.create_connection(self.address, timeout=self.timeout)
        except OSError as exc:
            raise StorageError(
                f"cannot connect to shard worker {self.id} ({exc})"
            ) from None
        # Small request frames must not wait out Nagle/delayed-ACK stalls.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            # A configured wire timeout overrides the dial timeout that
            # create_connection left armed on the socket.
            wire.apply_timeout(sock)
        except ValueError:
            pass
        try:
            # The handshake runs plain request/response: nothing else is
            # in flight yet, and the channel's reader starts after it.
            hello = wire.request(sock, {"op": "hello"})
        except BaseException as exc:
            try:
                sock.close()
            except OSError:
                pass
            if isinstance(exc, wire.WireError):
                raise StorageError(
                    f"handshake with shard worker {self.id} failed ({exc})"
                ) from None
            raise
        if "error" in hello:
            sock.close()
            raise StorageError(
                f"worker {self.id} rejected the handshake: {hello['error']}"
            )
        self.chan = wire.PipelinedConnection(
            sock, max_in_flight=self.max_in_flight
        )
        self.apply_hello(hello)

    def refresh(self) -> None:
        """Re-run ``hello`` on the live channel (membership staleness path)."""
        self.apply_hello(self.request({"op": "hello"}))

    def apply_hello(self, hello: dict) -> None:
        self.kind = hello.get("kind", "undirected")
        self.owned = [int(i) for i in hello.get("owned", [])]
        self.shard_starts = [int(s) for s in hello.get("shard_starts", [])]
        self.epoch = int(hello.get("epoch", 0))
        self.draining = bool(hello.get("draining", False))

    def _channel(self) -> wire.PipelinedConnection:
        """The live channel, dialing lazily; connection is the only
        serialized step — round trips themselves pipeline freely."""
        with self.lock:
            if not self.connected:
                # Deliberate: dialing is the one serialized step per
                # worker; the dial lock exists to bound it to one thread.
                self.connect()  # repro-lint: disable=lock-discipline
            return self.chan

    def request(self, payload: dict) -> dict:
        """One round trip over the pipelined channel (may complete out of
        order with other in-flight requests); connects lazily."""
        return self._channel().request(payload)

    def close(self) -> None:
        chan, self.chan = self.chan, None
        if chan is not None:
            chan.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Worker({self.id}, {self.health.state}, owned={self.owned})"


def _in_flight_window(value: Optional[int]) -> int:
    """Resolve the pipelined window (argument wins over env; min 1)."""
    if value is not None:
        if value < 1:
            raise IndexBuildError(f"max_in_flight must be >= 1, got {value}")
        return int(value)
    try:
        parsed = read_env_int(
            REMOTE_MAX_IN_FLIGHT_ENV,
            what="pipelined in-flight window",
            minimum=1,
        )
    except ValueError as exc:
        # Same convention as the heartbeat knob: construction surfaces
        # IndexBuildError, keeping the variable-naming message.
        raise IndexBuildError(str(exc)) from None
    return parsed if parsed is not None else DEFAULT_MAX_IN_FLIGHT


def _heartbeat_interval(value: Optional[float]) -> float:
    """Resolve the heartbeat interval (argument wins over env; 0 = off)."""
    if value is not None:
        return max(float(value), 0.0)
    try:
        parsed = read_env_float(
            REMOTE_HEARTBEAT_ENV, what="heartbeat interval in seconds"
        )
    except ValueError as exc:
        # Engine construction surfaces IndexBuildError; the message (with
        # the variable name in it) is the helper's.
        raise IndexBuildError(str(exc)) from None
    return parsed or 0.0


class RemoteEngineBase:
    """Shared client machinery of the two remote engine orientations."""

    name = "remote"
    kind = UNDIRECTED

    def __init__(
        self,
        addresses: Union[str, Sequence[Address], None],
        policy: Optional[SchedulerPolicy],
        timeout: float,
        retry: Optional[RetryPolicy] = None,
        heartbeat_s: Optional[float] = None,
        max_in_flight: Optional[int] = None,
    ) -> None:
        if addresses is None:
            addresses = read_env_str(REMOTE_ADDRS_ENV)
        self.addresses = parse_addresses(addresses)
        if not self.addresses:
            raise IndexBuildError(
                "the remote engine needs worker addresses: pass "
                f"addresses=[...] or set {REMOTE_ADDRS_ENV} "
                "(comma-separated host:port)"
            )
        self.policy = policy
        self.timeout = timeout
        self.retry = (retry or RetryPolicy()).validate()
        self.heartbeat_s = _heartbeat_interval(heartbeat_s)
        #: Per-worker channel window: how many requests one connection
        #: keeps in flight (``1`` is the strictly serial baseline).
        self.max_in_flight = _in_flight_window(max_in_flight)
        self.frozen = False
        self.scheduler: Optional[ShardScheduler] = None
        self.membership = MembershipMap()
        #: Survived failovers, for observability and the chaos tests:
        #: ``{"bucket": [s_shard, t_shard], "retries": n, "recovery_s": t}``.
        self.failovers: List[dict] = []
        self._workers: List[_Worker] = []
        self._owners: Dict[int, List[_Worker]] = {}
        self._rotation: Dict[int, int] = {}
        self._starts: List[int] = []
        self._route_lock = create_lock("remote.route")
        self._freeze_lock = create_lock("remote.freeze")
        self._rng = random.Random()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._hb_thread: Optional[threading.Thread] = None
        self._hb_stop = threading.Event()

    # ------------------------------------------------------------------
    # QueryEngine protocol
    # ------------------------------------------------------------------
    def freeze(self) -> "RemoteEngineBase":
        """Dial the fleet, handshake, and build the routing scheduler.

        Tolerates dead workers as long as at least one connects (the dead
        ones stay in the pool for revival); a fleet where *no* worker
        answers fails loudly.  Concurrent first queries dial the fleet
        once: the others wait for that dial instead of each dialing (and
        leaking) a fleet of their own.
        """
        if self.frozen:
            return self
        with self._freeze_lock:
            if not self.frozen:
                # Deliberate: the one fleet dial, bounded by the timeouts.
                self._dial_fleet()  # repro-lint: disable=lock-discipline
        return self

    def _dial_fleet(self) -> None:
        workers = [
            _Worker(addr, self.timeout, max_in_flight=self.max_in_flight)
            for addr in self.addresses
        ]
        errors: List[str] = []
        for worker in workers:
            try:
                worker.connect()
            except StorageError as exc:
                worker.health.record_failure(fatal=True)
                errors.append(str(exc))
        connected = [w for w in workers if w.connected]
        if not connected:
            for w in workers:
                w.close()
            raise StorageError(
                errors[0]
                if len(errors) == 1
                else "cannot connect to any shard worker: " + "; ".join(errors)
            )
        try:
            for worker in connected:
                self._validate(worker, reference=connected[0])
        except StorageError:
            for w in workers:
                w.close()
            raise
        self._starts = next(
            (w.shard_starts for w in connected if w.shard_starts), []
        )
        self._workers = workers
        self.membership = MembershipMap(
            epoch=max(w.epoch for w in connected)
        )
        for worker in connected:
            self.membership.set(worker.id, worker.owned)
        self._rebuild_routing()
        # One dispatch thread per potential in-flight bucket: every
        # worker can have a few buckets in flight, and each bucket
        # occupies one pool thread while it waits on its future.
        self._pool = ThreadPoolExecutor(
            max_workers=min(32, max(4, 4 * len(workers))),
            thread_name_prefix="repro-remote-dispatch",
        )
        self.scheduler = ShardScheduler(
            self._starts,
            self._dispatch,
            self.policy,
            dispatch_async=self._dispatch_async,
        )
        self.frozen = True
        self._start_heartbeat()

    def distance(self, source: int, target: int) -> float:
        return self.distances([(source, target)])[0]

    def distances(self, pairs) -> List[float]:
        if not self.frozen:
            self.freeze()
        return self.scheduler.schedule(pairs)

    def invalidate(self, dirty=None) -> None:
        """Drop the fleet connections; the next query redials.

        ``dirty`` is accepted for protocol compatibility but ignored —
        label state lives on the workers, so any invalidation means "ask
        the fleet again".
        """
        self.close()

    # ------------------------------------------------------------------
    # Validation / routing state
    # ------------------------------------------------------------------
    def _validate(self, worker: _Worker, reference: Optional[_Worker] = None) -> None:
        """Check a (re)connected worker against the fleet's contract."""
        if worker.kind != self.kind:
            raise StorageError(
                f"worker {worker.id} serves a different orientation "
                f"({worker.kind!r} vs client {self.kind!r})"
            )
        expected = self._starts or (
            reference.shard_starts if reference is not None else []
        )
        if worker.shard_starts and expected and worker.shard_starts != expected:
            raise StorageError(
                "workers disagree on the shard layout; are they "
                "serving the same snapshot?"
            )

    def _rebuild_routing(self) -> None:
        """Recompute shard → owners from worker state (callers hold no locks)."""
        owners: Dict[int, List[_Worker]] = {}
        for worker in self._workers:
            if not worker.connected and worker.health.state == DEAD:
                continue
            for shard in worker.owned:
                owners.setdefault(shard, []).append(worker)
        self._owners = owners

    def _usable(self, worker: _Worker, excluded: Set[str]) -> bool:
        return (
            worker.id not in excluded
            and worker.health.state != DEAD
            and not worker.draining
        )

    def _pick(
        self, bucket: Tuple[int, int], excluded: Set[str]
    ) -> Optional[_Worker]:
        """Best worker for a bucket: source-shard owners, then target-shard
        owners, then any usable worker; live preferred over suspect;
        round-robin within the chosen class."""
        with self._route_lock:
            ordered: List[_Worker] = []
            seen: Set[str] = set()
            for shard in bucket:
                for worker in self._owners.get(shard, []):
                    if worker.id not in seen:
                        seen.add(worker.id)
                        ordered.append(worker)
            for worker in self._workers:
                if worker.id not in seen:
                    seen.add(worker.id)
                    ordered.append(worker)
            pool = [w for w in ordered if self._usable(w, excluded)]
            if not pool:
                return None
            live = [w for w in pool if w.health.state == LIVE]
            if live:
                pool = live
            slot = self._rotation.get(bucket[0], 0)
            self._rotation[bucket[0]] = slot + 1
            return pool[slot % len(pool)]

    def _revive(self, excluded: Set[str]) -> bool:
        """Reconnect dead/excluded workers; True if any came back."""
        revived = False
        for worker in self._workers:
            if worker.health.state != DEAD and worker.id not in excluded:
                continue
            try:
                worker.connect()
                self._validate(worker)
            except (StorageError, wire.WireError, OSError):
                worker.close()
                continue
            worker.health.record_success()
            excluded.discard(worker.id)
            with self._route_lock:
                self.membership.set(worker.id, worker.owned)
            revived = True
        if revived:
            with self._route_lock:
                self._rebuild_routing()
        return revived

    def _refresh_membership(self) -> None:
        """Re-learn the fleet after a staleness signal (``not_owner``).

        Re-hellos every reachable worker, adopts the newest membership
        view any of them holds, dials workers the map names that this
        client has never met, and rebuilds routing.
        """
        best: Optional[MembershipMap] = None
        for worker in list(self._workers):
            try:
                worker.refresh()
                payload = worker.request({"op": "membership"})
            except (wire.WireError, OSError, StorageError):
                worker.health.record_failure(fatal=True)
                worker.close()
                continue
            worker.health.record_success()
            if payload.get("ok"):
                try:
                    view = MembershipMap.from_wire(payload)
                except StorageError:
                    continue
                if best is None or view.epoch > best.epoch:
                    best = view
        with self._route_lock:
            if best is not None:
                self.membership.merge(best)
            known = {w.id for w in self._workers}
            discovered = [
                w for w in self.membership.workers() if w not in known
            ]
        for worker_id in discovered:
            host, sep, port = worker_id.rpartition(":")
            if not sep or not port.isdigit():
                continue
            worker = _Worker(
                (host, int(port)), self.timeout, max_in_flight=self.max_in_flight
            )
            try:
                worker.connect()
                self._validate(worker)
            except (StorageError, OSError):
                worker.close()
                continue
            with self._route_lock:
                # Concurrent refreshes (one per rejected bucket) may all
                # discover the same worker; only the first dial joins.
                duplicate = any(w.id == worker.id for w in self._workers)
                if not duplicate:
                    self._workers.append(worker)
            if duplicate:
                worker.close()
        with self._route_lock:
            self._rebuild_routing()

    # ------------------------------------------------------------------
    # Replica-aware dispatch
    # ------------------------------------------------------------------
    def _dispatch_async(self, chunk, bucket) -> "Future[List[float]]":
        """Run one bucket dispatch on the pool: the scheduler fires all
        buckets of a batch through this and gathers, so every worker has
        requests in flight at once.  Each pooled dispatch keeps the full
        replica-aware retry loop of :meth:`_dispatch` — failover is per
        in-flight request, not per batch."""
        if self._pool is None:  # closed under a running batch
            fut: "Future[List[float]]" = Future()
            try:
                fut.set_result(self._dispatch(chunk, bucket))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                fut.set_exception(exc)
            return fut
        return self._pool.submit(self._dispatch, chunk, bucket)

    def _dispatch(self, chunk, bucket) -> List[float]:
        pairs = [[s, t] for s, t in chunk]
        excluded: Set[str] = set()
        attempt = 0
        failed_at: Optional[float] = None
        last_error: Optional[str] = None
        revive_budget = 1  # one full revive sweep per bucket
        refresh_budget = 1  # one membership refresh when nobody is usable
        while attempt < self.retry.max_attempts:
            worker = self._pick(bucket, excluded)
            if worker is None:
                if revive_budget > 0 and self._revive(excluded):
                    revive_budget -= 1
                    continue
                if refresh_budget > 0:
                    # A concurrent refresh may mark the old owners draining
                    # before it adds their replacements: re-learn the fleet.
                    refresh_budget -= 1
                    self._refresh_membership()
                    continue
                break
            if attempt > 0:
                time.sleep(self.retry.delay(attempt - 1, self._rng))
            try:
                response = worker.request({"op": "distances", "pairs": pairs})
            except (wire.WireError, OSError, StorageError) as exc:
                worker.health.record_failure(fatal=True)
                worker.close()
                excluded.add(worker.id)
                last_error = f"{worker.id}: {exc}"
                if failed_at is None:
                    failed_at = time.monotonic()
                attempt += 1
                continue
            if "error" in response:
                error_kind = response.get("error_kind")
                if error_kind == "overloaded":
                    # Admission rejection, not a fault: the worker is
                    # healthy but saturated.  Back off (the loop-top
                    # sleep) and retry — same fleet, nobody excluded,
                    # no health penalty, not counted as a failover.
                    last_error = f"{worker.id}: {response['error']}"
                    attempt += 1
                    continue
                if error_kind == "not_owner":
                    # Membership staleness, not a fault: refresh and
                    # reroute with this worker excluded for the bucket.
                    excluded.add(worker.id)
                    last_error = f"{worker.id}: {response['error']}"
                    if failed_at is None:
                        failed_at = time.monotonic()
                    self._refresh_membership()
                    attempt += 1
                    continue
                if error_kind == "query":
                    raise QueryError(response["error"])
                raise StorageError(
                    f"worker {worker.id} failed: {response['error']}"
                )
            worker.health.record_success()
            answers = response.get("distances")
            if not isinstance(answers, list) or len(answers) != len(chunk):
                raise StorageError(
                    f"worker {worker.id} returned "
                    f"{'no' if not isinstance(answers, list) else len(answers)} "
                    f"distances for {len(chunk)} queries"
                )
            if failed_at is not None:
                self.failovers.append(
                    {
                        "bucket": [int(bucket[0]), int(bucket[1])],
                        "retries": attempt,
                        "recovery_s": time.monotonic() - failed_at,
                    }
                )
            return [float(d) if not isinstance(d, int) else d for d in answers]
        raise StorageError(
            f"bucket {bucket} failed after {attempt} attempt(s) across the "
            f"fleet (excluded: {sorted(excluded) or 'none'}; last error: "
            f"{last_error or 'no usable worker'})"
        )

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def _start_heartbeat(self) -> None:
        if self.heartbeat_s <= 0 or self._hb_thread is not None:
            return
        self._hb_stop.clear()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-remote-heartbeat", daemon=True
        )
        self._hb_thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.heartbeat_s):
            changed = False
            for worker in list(self._workers):
                previous = worker.health.state
                try:
                    if not worker.connected:
                        # Revival probe.  Connection is the one step
                        # still serialized per worker; skip rather than
                        # block if a dispatch is already redialing.
                        if not worker.lock.acquire(blocking=False):
                            continue
                        try:
                            if not worker.connected:
                                # Deliberate: revival dial under the
                                # non-blockingly acquired dial lock.
                                worker.connect()  # repro-lint: disable=lock-discipline
                        finally:
                            worker.lock.release()
                        self._validate(worker)
                    else:
                        # Ping rides the pipelined channel alongside any
                        # in-flight dispatches — no socket stealing.
                        chan = worker.chan
                        if chan is None:  # closed under us: next tick probes
                            raise StorageError("connection lost")
                        if not chan.request({"op": "ping"}).get("ok"):
                            raise StorageError("ping declined")
                except (wire.WireError, OSError, StorageError):
                    worker.health.record_failure()
                    if worker.health.state == DEAD:
                        worker.close()
                else:
                    worker.health.record_success()
                if worker.health.state != previous:
                    changed = True
            if changed:
                with self._route_lock:
                    self._rebuild_routing()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._hb_stop.set()
        thread, self._hb_thread = self._hb_thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)
        for worker in self._workers:
            worker.close()
        self._workers = []
        self._owners = {}
        self._rotation = {}
        self._starts = []
        self.scheduler = None
        self.frozen = False

    def __enter__(self):
        return self.freeze()

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


class RemoteEngine(RemoteEngineBase):
    """Undirected ``"remote"`` engine.

    The registry factory signature matches the other undirected engines
    (``gk, entry_lists, arrays`` — all ignored: the labels live on the
    workers); ``addresses``/``policy``/``retry``/``heartbeat_s``
    configure the fleet client.
    """

    kind = UNDIRECTED

    def __init__(
        self,
        gk=None,
        entry_lists=None,
        arrays=None,
        apsp_budget_bytes=None,
        *,
        addresses: Union[str, Sequence[Address], None] = None,
        policy: Optional[SchedulerPolicy] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        heartbeat_s: Optional[float] = None,
        max_in_flight: Optional[int] = None,
    ) -> None:
        super().__init__(
            addresses, policy, timeout, retry, heartbeat_s,
            max_in_flight=max_in_flight,
        )


class DirectedRemoteEngine(RemoteEngineBase):
    """Directed ``"remote"`` engine (registry twin of :class:`RemoteEngine`)."""

    kind = DIRECTED

    def __init__(
        self,
        gk=None,
        out_lists=None,
        in_lists=None,
        apsp_budget_bytes=None,
        *,
        addresses: Union[str, Sequence[Address], None] = None,
        policy: Optional[SchedulerPolicy] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        heartbeat_s: Optional[float] = None,
        max_in_flight: Optional[int] = None,
    ) -> None:
        super().__init__(
            addresses, policy, timeout, retry, heartbeat_s,
            max_in_flight=max_in_flight,
        )


_REMOTE_CAPS = {CAP_REMOTE, CAP_SHARDED, CAP_FAULT_TOLERANT}
register_engine(UNDIRECTED, RemoteEngine.name, RemoteEngine, _REMOTE_CAPS)
register_engine(
    DIRECTED, DirectedRemoteEngine.name, DirectedRemoteEngine, _REMOTE_CAPS
)
