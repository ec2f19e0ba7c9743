"""Length-prefixed framing for the remote shard-serving protocol.

One frame = a 4-byte big-endian payload length followed by a UTF-8 JSON
object.  JSON keeps the protocol debuggable (``nc`` + eyeballs) and is
lossless for everything the distance API moves: vertex ids and distances
are Python ints, unreachable pairs are ``inf`` (serialized as JSON's
``Infinity`` extension, which the :mod:`json` module emits and parses by
default) — so remote answers stay bit-identical to local engine answers.

Requests are ``{"op": <name>, ...}``; responses either carry the op's
payload or ``{"error": <message>}``, which the client surfaces as
:class:`~repro.errors.StorageError`.  A request may carry an ``"id"``
that its response echoes, which is what lets :class:`PipelinedConnection`
keep many requests in flight on one connection and complete them out of
order.  The server still answers id-less frames in strict
request/response order, for one-shot callers of :func:`request` (the
``hello`` handshake, the ``shutdown`` of a CLI or chaos teardown).  Ops:

``hello``
    Handshake.  The server answers with its orientation (``kind``), the
    shard layout of the snapshot it serves (``shard_starts``) and the
    shard indices it *owns* (its slice of the deployment's ownership
    map) — everything the client-side scheduler needs to route buckets —
    plus the protocol ``version`` it speaks.
``distances``
    ``{"pairs": [[s, t], ...]}`` → ``{"distances": [...]}``, one batched
    engine call per frame.  This is the unit the shard scheduler
    amortizes: one frame per shard-pair bucket.
``stats``
    Lightweight introspection (queries served, engine name, owned shards).
``ping``
    Liveness probe; echoes ``{"ok": true}``.  The remote engine's
    heartbeat thread rides this op to mark workers suspect/dead/recovered.
``membership`` / ``join`` / ``leave``
    Cluster membership (:mod:`repro.serving.membership`): read a worker's
    versioned shard→owners map, announce a worker (re)joining with an
    ownership slice, or remove one (a worker told to leave *itself*
    drains: in-flight buckets complete, new non-owned buckets are
    rejected with the ``not_owner`` error kind).
``shutdown``
    Asks the server to stop accepting connections and exit its accept
    loop (used by tests, the CLI and the chaos harness for clean
    teardown).

Framing failures (oversized frames, EOF mid-frame) raise
:class:`WireError`; a clean EOF between frames returns ``None`` from
:func:`recv_frame` so servers can tell "client hung up" from "stream
corrupted".

**Timeouts**: with ``REPRO_WIRE_TIMEOUT_S`` set (seconds, fractional
allowed; unset/empty = off for compatibility), every send/recv on a
socket that :func:`apply_timeout` has configured raises
:class:`WireTimeout` instead of blocking forever — a hung or paused
worker cannot stall a client thread indefinitely, and the client treats
a timeout like a dead connection (fail over to the next replica).
:class:`WireTimeout.partial` distinguishes "timed out *mid-frame*"
(stream state unknown, drop the connection) from "timed out waiting for
a new frame" (idle; a server keeps the connection).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, Optional

from repro.analysis.lockcheck import create_lock

from repro.envvars import read_env_float
from repro.errors import ReproError

__all__ = [
    "WireError",
    "WireTimeout",
    "WIRE_TIMEOUT_ENV",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "configured_timeout",
    "apply_timeout",
    "send_frame",
    "recv_frame",
    "request",
    "PipelinedConnection",
]

#: Refuse to (de)serialize frames larger than this: a corrupt or hostile
#: length prefix must not make a worker allocate gigabytes.  64 MiB is
#: roomy — about two million query pairs per frame.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Protocol generation, announced in the server's ``hello`` answer.
#: Version 2 is the **request-id** protocol: a request may carry
#: ``"id": <int>`` and its response echoes the same ``id``, so multiple
#: requests can be in flight on one connection and complete out of
#: order.  :class:`PipelinedConnection` always tags its requests and
#: matches answers by ``id`` alone.
PROTOCOL_VERSION = 2

_LEN = struct.Struct("!I")


#: Environment knob for per-connection send/recv timeouts (seconds).
#: Unset or empty = no timeout (the pre-timeout blocking behavior).
WIRE_TIMEOUT_ENV = "REPRO_WIRE_TIMEOUT_S"


class WireError(ReproError):
    """The length-prefixed stream was violated (truncation, oversize)."""


class WireTimeout(WireError):
    """A send/recv exceeded the configured wire timeout.

    ``partial`` is True when the timeout hit *mid-frame* (or mid-send) —
    the stream state is unknown and the connection must be dropped; False
    means the peer simply had nothing to say yet (idle between frames).
    """

    def __init__(self, message: str, partial: bool = True) -> None:
        super().__init__(message)
        self.partial = partial


def configured_timeout() -> Optional[float]:
    """The :data:`WIRE_TIMEOUT_ENV` timeout, validated; None when off.

    Raises ``ValueError`` naming the variable on non-numeric, negative or
    non-finite values instead of silently disabling the timeout; ``0``
    explicitly disables it.
    """
    value = read_env_float(WIRE_TIMEOUT_ENV, what="wire timeout in seconds")
    return value if value else None


def apply_timeout(
    sock: socket.socket, timeout: Optional[float] = None
) -> Optional[float]:
    """Arm ``sock`` with the explicit or env-configured wire timeout.

    Returns the applied timeout (None = left blocking).  Call once per
    connection; every subsequent :func:`send_frame`/:func:`recv_frame`
    on the socket then raises :class:`WireTimeout` instead of hanging.
    """
    if timeout is None:
        timeout = configured_timeout()
    if timeout is not None:
        sock.settimeout(timeout)
    return timeout


def send_frame(sock: socket.socket, payload: dict) -> None:
    """Serialize ``payload`` and send it as one length-prefixed frame."""
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(blob) > MAX_FRAME_BYTES:
        raise WireError(
            f"refusing to send a {len(blob)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    try:
        sock.sendall(_LEN.pack(len(blob)) + blob)
    except socket.timeout:
        raise WireTimeout(
            f"send of a {len(blob)}-byte frame timed out", partial=True
        ) from None
    except OSError as exc:
        raise WireError(f"send failed: {exc}") from None


def _recv_exact(
    sock: socket.socket, size: int, mid_frame: bool = False
) -> Optional[bytes]:
    """``size`` bytes from ``sock``; None on clean EOF at a frame edge."""
    chunks = []
    got = 0
    while got < size:
        try:
            chunk = sock.recv(min(size - got, 1 << 20))
        except socket.timeout:
            raise WireTimeout(
                f"receive timed out ({got} of {size} bytes)",
                partial=mid_frame or got > 0,
            ) from None
        except OSError as exc:
            raise WireError(f"receive failed: {exc}") from None
        if not chunk:
            if got == 0:
                return None
            raise WireError(
                f"connection closed mid-frame ({got} of {size} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; returns its payload, or None on clean EOF."""
    prefix = _recv_exact(sock, _LEN.size)
    if prefix is None:
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    blob = _recv_exact(sock, length, mid_frame=True)
    if blob is None:
        raise WireError("connection closed before the announced frame")
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame payload ({exc})") from None
    if not isinstance(payload, dict):
        raise WireError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def request(sock: socket.socket, payload: dict) -> dict:
    """One round trip: send ``payload``, receive and return the response.

    Raises :class:`WireError` if the server hangs up instead of
    answering; server-reported ``{"error": ...}`` responses are returned
    as-is for the caller to interpret (the client engine raises them as
    :class:`~repro.errors.StorageError`).
    """
    send_frame(sock, payload)
    response = recv_frame(sock)
    if response is None:
        raise WireError(
            f"server closed the connection answering {payload.get('op')!r}"
        )
    return response


class PipelinedConnection:
    """Many requests in flight on one socket, completing out of order.

    The client transport: :meth:`submit` sends the frame on the
    caller's thread under a per-connection send lock, and one dedicated
    **reader** thread matches response frames back to their
    :class:`~concurrent.futures.Future` by the echoed request ``id``
    alone; a response without a known ``id`` poisons the connection.
    :meth:`submit` is the async seam — it returns once the frame is on
    the socket — and :meth:`request` is the blocking convenience over
    it, so many caller threads can share one connection without ever
    holding a lock across a round trip.

    **Backpressure** is a bounded in-flight window (``max_in_flight``):
    :meth:`submit` blocks while the window is full, so a slow or
    overloaded server propagates pressure to the callers instead of
    growing an unbounded client-side queue.  ``max_in_flight=1`` is the
    strict one-request-at-a-time baseline.

    **Failure** is fail-fast and total: any wire error, EOF, or an idle
    timeout *while requests are pending* poisons the connection — every
    in-flight and still-queued future fails with the same
    :class:`WireError`, and subsequent submits raise immediately.  (An
    idle timeout with *nothing* pending is just a quiet peer; the reader
    keeps waiting.)  The owner reconnects by building a fresh instance.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_in_flight: int = 32,
    ) -> None:
        if max_in_flight < 1:
            raise WireError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self._sock = sock
        self.max_in_flight = max_in_flight
        self._window = threading.Semaphore(self.max_in_flight)
        self._pending: Dict[int, Future] = {}
        self._next_id = 0
        self._lock = create_lock("wire.pipeline")
        self._send_lock = create_lock("wire.send")
        self._closed = threading.Event()
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-wire-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def in_flight(self) -> int:
        """Requests submitted but not yet completed."""
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> Future:
        """Send one request; the returned future completes with the
        response payload (the echoed ``id`` stripped) or a
        :class:`WireError` — a failed send poisons the connection and
        fails the future too.  Blocks while the in-flight window is full.
        """
        while not self._window.acquire(timeout=0.1):
            if self._closed.is_set():
                raise WireError("connection is closed")
        future: Future = Future()
        with self._lock:
            # The closed check shares the lock with _fail_all's pending
            # sweep, so a submission either lands before the sweep (and
            # is failed by it) or observes closed here — never neither.
            if self._closed.is_set():
                self._window.release()
                raise WireError("connection is closed")
            rid = self._next_id
            self._next_id += 1
            self._pending[rid] = future
        with self._send_lock:
            try:
                # Deliberate: the send lock serializes exactly one frame
                # per holder so concurrent callers don't interleave bytes.
                send_frame(self._sock, dict(payload, id=rid))  # repro-lint: disable=lock-discipline
            except WireError as exc:  # send_frame wraps every OSError
                self._fail_all(exc)
        return future

    def request(self, payload: dict, timeout: Optional[float] = None) -> dict:
        """Blocking round trip through the pipeline.

        A ``timeout`` (seconds) bounds the wait; expiring poisons the
        connection (the response stream can no longer be trusted to
        line up) and raises :class:`WireTimeout`.
        """
        future = self.submit(payload)
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            self._fail_all(
                WireTimeout(
                    f"request {payload.get('op')!r} timed out", partial=True
                )
            )
            raise WireTimeout(
                f"request {payload.get('op')!r} timed out", partial=True
            ) from None

    # ------------------------------------------------------------------
    # Reader
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            while not self._closed.is_set():
                # Sampled before blocking in recv: an idle timeout is only
                # fatal when a response was already owed when the wait
                # started (a request registered *during* the wait has not
                # yet been owed a full timeout window).
                owed = bool(self._pending)
                try:
                    frame = recv_frame(self._sock)
                except WireTimeout as exc:
                    if not exc.partial and not owed:
                        continue  # idle with nothing owed: keep waiting
                    self._fail_all(exc)
                    return
                except WireError as exc:  # recv_frame wraps every OSError
                    self._fail_all(exc)
                    return
                if frame is None:
                    self._fail_all(
                        WireError("peer closed the pipelined connection")
                    )
                    return
                rid = frame.pop("id", None)
                with self._lock:
                    future = self._pending.pop(rid, None)
                if future is None:
                    self._fail_all(
                        WireError(
                            f"peer answered unknown request id {rid!r}"
                        )
                    )
                    return
                self._window.release()
                future.set_result(frame)
        finally:
            if not self._closed.is_set():
                self._fail_all(WireError("pipelined reader exited"))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _fail_all(self, exc: WireError) -> None:
        """Poison the connection: fail every outstanding future with ``exc``."""
        if self._closed.is_set():
            return
        self._closed.set()
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(exc)
            self._window.release()
        try:
            # shutdown wakes a reader blocked in recv at once; close alone
            # leaves it waiting for the peer or the wire timeout.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Fail outstanding requests and release the socket and reader."""
        self._fail_all(WireError("connection closed locally"))
        if self._reader is not threading.current_thread():
            self._reader.join(timeout=5.0)
