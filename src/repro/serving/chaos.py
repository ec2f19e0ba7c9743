"""Failure injection for shard fleets: process faults and wire faults.

The chaos property suite (``tests/serving/test_chaos.py``), the
pipelining tests and the load generator's fleet target all need the same
two instruments, so they live here as a reusable subsystem:

* :class:`FleetWorker` / :class:`FaultInjector` — real ``repro serve``
  subprocesses under a supervisor that can SIGKILL, SIGSTOP/SIGCONT and
  restart them (a restart rebinds the *same* port, so a client holding
  the old address can reconnect), plus teardown with reap assertions so
  no test run leaves orphaned serving processes behind.
* :class:`ChaosProxy` — a wire-level TCP proxy in front of one worker
  that can drop connections mid-frame, delay traffic, or truncate frames
  — the failure modes a real network injects below the protocol layer.

Everything here is transport-level: no test hooks inside the server or
the engine.  The system under chaos is exactly the production code path.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.lockcheck import create_lock
from repro.errors import StorageError
from repro.serving import wire

__all__ = ["FleetWorker", "FaultInjector", "ChaosProxy"]

#: How long a worker may take to announce ``SERVING host:port``.
STARTUP_TIMEOUT_S = 60.0
#: How long teardown waits for a politely shut-down worker to exit.
REAP_TIMEOUT_S = 10.0


def _repo_pythonpath() -> str:
    """PYTHONPATH entry that makes ``python -m repro`` importable."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


class FleetWorker:
    """One ``repro serve`` subprocess under fault-injection control.

    The first :meth:`spawn` records the OS-assigned port; :meth:`restart`
    reuses it, so the worker's fleet identity (``host:port``) is stable
    across a kill/restart cycle — which is what lets a client treat
    "recovered" as the same membership entry coming back.
    """

    def __init__(
        self,
        snapshot: str,
        owned: Sequence[int],
        engine: str = "sharded",
        host: str = "127.0.0.1",
        strict: bool = False,
        extra_env: Optional[Dict[str, str]] = None,
        serve_args: Optional[Sequence[str]] = None,
    ) -> None:
        self.snapshot = os.fspath(snapshot)
        self.owned = sorted(int(i) for i in owned)
        self.engine = engine
        self.host = host
        self.strict = strict
        self.extra_env = dict(extra_env or {})
        #: Extra ``repro serve`` CLI flags, verbatim (admission knobs:
        #: ``--max-concurrency``, ``--max-queue``).
        self.serve_args = list(serve_args or [])
        self.port = 0  # pinned by the first spawn
        self.proc: Optional[subprocess.Popen] = None
        self.paused = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if not self.port:
            raise StorageError("worker was never spawned")
        return (self.host, self.port)

    @property
    def worker_id(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def spawn(self, epoch: int = 0) -> "FleetWorker":
        """Start (or restart) the serve subprocess and await its announce."""
        if self.alive:
            raise StorageError(f"worker {self.worker_id} is already running")
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            self.snapshot,
            "--engine",
            self.engine,
            "--host",
            self.host,
            "--port",
            str(self.port),
            "--owned",
            ",".join(map(str, self.owned)),
            "--epoch",
            str(epoch),
        ]
        if self.strict:
            cmd.append("--strict")
        cmd.extend(self.serve_args)
        # Deliberate whole-environment copy: worker subprocesses inherit
        # the test run's REPRO_* knobs (REPRO_LOCKCHECK included).
        env = dict(os.environ, PYTHONPATH=_repo_pythonpath())  # repro-lint: disable=env-discipline
        env.update(self.extra_env)
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=env
        )
        self.paused = False
        line = self._await_serving_line()
        host, _, port = line.split()[1].rpartition(":")
        self.host = host
        self.port = int(port)
        return self

    def _await_serving_line(self) -> str:
        """The ``SERVING host:port ...`` announce, under a real deadline.

        ``readline()`` has no timeout of its own; reading from a joined
        side thread keeps a wedged worker from hanging the harness.
        """
        proc = self.proc
        box: List[str] = []

        def read() -> None:
            for raw in proc.stdout:
                raw = raw.strip()
                if raw.startswith("SERVING "):
                    box.append(raw)
                    return

        thread = threading.Thread(target=read, daemon=True)
        thread.start()
        thread.join(timeout=STARTUP_TIMEOUT_S)
        if not box:
            if proc.poll() is not None:
                raise StorageError(
                    f"worker exited with {proc.returncode} before serving"
                )
            raise StorageError("worker did not announce its address in time")
        return box[0]

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """SIGKILL — death with no goodbye (connections break mid-frame)."""
        if self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.paused = False

    def pause(self) -> None:
        """SIGSTOP — the worker hangs: connections stay open, nothing answers."""
        if self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGSTOP)
            self.paused = True

    def resume(self) -> None:
        """SIGCONT a paused worker."""
        if self.paused and self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGCONT)
        self.paused = False

    def restart(self, epoch: int = 0) -> "FleetWorker":
        """Kill (if needed) and respawn on the recorded port."""
        self.kill()
        return self.spawn(epoch=epoch)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def reap(self) -> bool:
        """Stop the worker; True iff it exited within the polite window.

        Polite wire shutdown first, then a bounded wait, then
        terminate/kill escalation.  A paused worker is resumed first —
        SIGSTOP would otherwise defeat every politeness below.
        """
        proc = self.proc
        if proc is None:
            return True
        self.resume()
        polite = True
        if proc.poll() is None:
            try:
                sock = socket.create_connection(self.address, timeout=5.0)
                try:
                    wire.request(sock, {"op": "shutdown"})
                finally:
                    sock.close()
            except OSError:
                pass  # already dead or unreachable; the wait decides
            try:
                proc.wait(timeout=REAP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                polite = False
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        return polite


class FaultInjector:
    """A fleet of :class:`FleetWorker` processes plus the fault verbs.

    Construct, :meth:`spawn_fleet`, point a remote engine at
    :attr:`addresses`, then kill/pause/restart workers mid-stream.
    Always :meth:`teardown` (it asserts every child is reaped).
    """

    def __init__(self) -> None:
        self.workers: List[FleetWorker] = []

    def spawn_fleet(
        self,
        snapshot: str,
        ownership: Sequence[Sequence[int]],
        engine: str = "sharded",
        strict: bool = False,
        extra_env: Optional[Dict[str, str]] = None,
        serve_args: Optional[Sequence[str]] = None,
    ) -> List[FleetWorker]:
        """One worker per non-empty ownership slice; spawns them all."""
        try:
            for owned in ownership:
                if not owned:
                    continue
                worker = FleetWorker(
                    snapshot,
                    owned,
                    engine=engine,
                    strict=strict,
                    extra_env=extra_env,
                    serve_args=serve_args,
                )
                self.workers.append(worker)
                worker.spawn()
        except BaseException:
            self.teardown()
            raise
        return list(self.workers)

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [w.address for w in self.workers]

    def teardown(self) -> bool:
        """Reap every worker; True iff all exited politely.

        Asserts (hard) that no child survives — an orphaned serving
        process would outlive the test run and squat on its port.
        """
        polite = all([w.reap() for w in self.workers])
        for worker in self.workers:
            assert (
                worker.proc is None or worker.proc.poll() is not None
            ), f"unreaped chaos worker {worker.worker_id}"
        return polite

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc) -> None:
        self.teardown()


class _LatencySender:
    """Forwards chunks to ``dst`` a fixed delay after they arrived.

    A plain ``sleep`` in the pump stacks delays chunk-on-chunk, turning
    propagation delay into congestion; queueing ``(due, chunk)`` pairs
    and sending from a side thread lets in-flight chunks overlap the
    way a long real link does.  FIFO order is due order because the
    delay is constant per sender.
    """

    def __init__(self, dst: socket.socket, latency_s: float) -> None:
        self.dst = dst
        self.latency_s = latency_s
        self._queue: "queue.Queue[Optional[Tuple[float, bytes]]]" = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def send(self, chunk: bytes) -> None:
        self._queue.put((time.monotonic() + self.latency_s, chunk))

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            due, chunk = item
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                self.dst.sendall(chunk)
            except OSError:
                return  # the link died; queued bytes die with it

    def close(self) -> None:
        """Flush everything already queued, then stop the thread."""
        self._queue.put(None)
        self._thread.join(timeout=5.0)


class ChaosProxy:
    """A byte-level TCP proxy injecting wire faults in front of a worker.

    Clients dial :attr:`address`; traffic is pumped to ``upstream``.
    :attr:`mode` selects the fault, applied to *upstream→client* bytes
    (the response path — where a client's framing layer must cope):

    ``None``
        Transparent pass-through.
    ``"drop"``
        Close both sides after :attr:`fault_after_bytes` response bytes —
        a connection cut mid-frame.
    ``"delay"``
        Sleep :attr:`delay_s` before forwarding each response chunk — a
        congested or wedged path (drives the wire-timeout machinery).
        The pump blocks, so delays stack chunk-on-chunk.
    ``"latency"``
        Forward each response chunk :attr:`latency_s` after it arrived
        *without* holding up later chunks — a long but uncongested link
        (propagation delay).  In-flight responses overlap the way they
        do over a real network, which is exactly the cost pipelining is
        designed to hide (``tests/serving/test_async_serving.py`` checks
        that it does).  Don't toggle it off mid-connection: once a
        connection has queued delayed chunks, later chunks keep routing
        through the queue to preserve byte order.
    ``"truncate"``
        Forward only :attr:`fault_after_bytes` bytes of the next response
        chunk, then close — a torn frame with a valid length prefix.

    ``mode`` is mutable at runtime; each accepted connection reads it
    live, so one proxy can serve healthy and faulty phases of a test.
    """

    def __init__(self, upstream: Tuple[str, int], host: str = "127.0.0.1") -> None:
        self.upstream = (str(upstream[0]), int(upstream[1]))
        self.mode: Optional[str] = None
        self.delay_s = 0.05
        self.latency_s = 0.002
        self.fault_after_bytes = 6  # mid-frame: past the 4-byte prefix
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, 0))
        self._sock.listen(16)
        self._sock.settimeout(0.2)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._lock = create_lock("chaos.proxy")
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self._sock.getsockname()[:2]

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                server = socket.create_connection(self.upstream, timeout=10.0)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._conns.extend((client, server))
            for src, dst, faulty in ((client, server, False), (server, client, True)):
                thread = threading.Thread(
                    target=self._pump, args=(src, dst, faulty), daemon=True
                )
                thread.start()
                with self._lock:
                    self._threads.append(thread)

    def _pump(self, src: socket.socket, dst: socket.socket, faulty: bool) -> None:
        forwarded = 0
        sender: Optional[_LatencySender] = None
        try:
            while not self._stop.is_set():
                try:
                    chunk = src.recv(1 << 16)
                except OSError:
                    break
                if not chunk:
                    break
                mode = self.mode if faulty else None
                if mode == "latency" or sender is not None:
                    if sender is None:
                        sender = _LatencySender(dst, self.latency_s)
                    sender.send(chunk)
                    forwarded += len(chunk)
                    continue
                if mode == "delay":
                    time.sleep(self.delay_s)
                elif mode == "drop":
                    if forwarded + len(chunk) > self.fault_after_bytes:
                        keep = max(self.fault_after_bytes - forwarded, 0)
                        if keep:
                            dst.sendall(chunk[:keep])
                        break  # cut the connection mid-frame
                elif mode == "truncate":
                    dst.sendall(chunk[: self.fault_after_bytes])
                    break
                try:
                    dst.sendall(chunk)
                except OSError:
                    break
                forwarded += len(chunk)
        finally:
            if sender is not None:
                sender.close()  # flushes queued chunks before the sockets go
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept.is_alive():
            self._accept.join(timeout=5.0)
        with self._lock:
            conns = list(self._conns)
            threads = list(self._threads)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
