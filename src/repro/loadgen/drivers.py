"""Closed- and open-loop runners that execute a :class:`Scenario`.

One driver pair serves ``repro loadgen`` (the benchmark suite in
``benchmarks/suite/`` has its own):

* :func:`run_closed_loop` — issue operations back-to-back, one
  outstanding at a time; per-operation latency is service time.
* :func:`run_open_loop` — arrivals are pre-scheduled on the wall clock
  (Poisson or bursts) and never wait for completions; latency is
  measured from the *scheduled* arrival, so a backlog shows up as
  queueing delay in the tail percentiles.

:func:`run_scenario` is the entry point the CLI and the tests use:
it materializes the scenario's graph, builds a ``"fast"`` oracle for
expected answers, stands up the target — any registered local engine, or
a live ``"remote"`` fleet spawned through
:class:`repro.serving.chaos.FaultInjector` (one fleet, one snapshot per
tenant) — runs the seeded operation stream, checks every read answer
bit-exactly against the oracle, and returns (optionally writes) a JSON
artifact embedding the spec, the summaries and the scheduler's batching
stats.

Writes replay §8.3 as **pendant update waves**: each write inserts a
fresh degree-1 vertex anchored at a ``G_k`` vertex (or deletes one it
inserted earlier).  Such updates patch no existing label and can never
shorten a base-pair distance, so read answers stay bit-exact *while the
index is being mutated* — which is what lets a mixed read/write run keep
the oracle check. Writes are applied to a local ingest twin
(:class:`repro.core.updates.DynamicISLabelIndex`); against a remote
fleet this models the snapshot-publish architecture, where the fleet
serves the last published snapshot while the writer ingests the next
wave.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.index import ISLabelIndex
from repro.core.serialization import load_index, save_snapshot
from repro.core.updates import DynamicISLabelIndex
from repro.errors import QueryError
from repro.loadgen.generators import READ
from repro.loadgen.scenario import Scenario
from repro.loadgen.summary import LatencySummary
from repro.serving.chaos import FaultInjector
from repro.serving.remote import RemoteEngine
from repro.serving.scheduler import SchedulerPolicy, assign_shards

__all__ = [
    "Operation",
    "run_closed_loop",
    "run_open_loop",
    "run_scenario",
]

#: Admission knobs for fleet workers spawned by :func:`run_scenario` —
#: the benchmark suite's web-fleet workers use the same (2 executor
#: slots, bounded queue).
FLEET_SERVE_ARGS = ("--max-concurrency", "2", "--max-queue", "256")

#: Thread pool width for open-loop firing (bounds client-side overlap,
#: not the offered rate — arrivals are wall-clock scheduled).
OPEN_LOOP_WORKERS = 32


class Operation(NamedTuple):
    """One slot of the seeded stream: a read of ``pair`` or a write."""

    tenant: int
    kind: str  # READ or WRITE
    slot: int  # index into the tenant's pair/expected lists
    pair: Tuple[int, int]


class _PendantWriter:
    """Applies §8.3 pendant waves to one tenant's ingest twin.

    Alternates inserting a fresh degree-1 vertex (anchored at a rotating
    ``G_k`` vertex, weight 1) with deleting the most recent live pendant.
    Deterministic given the operation stream, bounded in graph growth,
    and — because a ``G_k``-anchored pendant touches no other vertex's
    label — provably answer-preserving for every base-graph pair.
    """

    def __init__(self, twin: DynamicISLabelIndex) -> None:
        self.twin = twin
        anchors = sorted(twin.index.hierarchy.gk.vertices())
        if not anchors:
            anchors = sorted(twin.graph.vertices())
        self.anchors = anchors
        self.next_id = max(twin.graph.vertices()) + 1
        self.live: List[int] = []
        self.applied = 0
        self.lock = threading.Lock()

    def apply(self) -> None:
        with self.lock:
            if self.live and self.applied % 2 == 1:
                self.twin.delete_vertex(self.live.pop())
            else:
                anchor = self.anchors[self.applied % len(self.anchors)]
                self.twin.insert_vertex(self.next_id, {anchor: 1})
                self.live.append(self.next_id)
                self.next_id += 1
            self.applied += 1


class _RunState:
    """Shared bookkeeping for one driver pass (thread-safe)."""

    def __init__(self) -> None:
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        self.mismatches: List[str] = []
        self.errors: List[BaseException] = []
        self.lock = threading.Lock()

    def record(self, kind: str, latency_s: float) -> None:
        with self.lock:
            if kind == READ:
                self.read_latencies.append(latency_s)
            else:
                self.write_latencies.append(latency_s)


def _execute(
    op: Operation,
    readers: Sequence[Callable[[int, int], float]],
    writers: Sequence[Optional[_PendantWriter]],
    expected: Sequence[Sequence[float]],
    state: _RunState,
    started: float,
) -> None:
    """Run one operation, record latency from ``started``, verify reads."""
    try:
        if op.kind == READ:
            got = readers[op.tenant](*op.pair)
            latency = time.perf_counter() - started
            want = expected[op.tenant][op.slot]
            if got != want:
                with state.lock:
                    state.mismatches.append(
                        f"tenant {op.tenant} pair {op.pair}: got {got}, "
                        f"expected {want}"
                    )
        else:
            writer = writers[op.tenant]
            assert writer is not None, "write op without a writer"
            writer.apply()
            latency = time.perf_counter() - started
        state.record(op.kind, latency)
    except BaseException as exc:  # noqa: BLE001 - re-raised after the run
        with state.lock:
            state.errors.append(exc)


def _finish(state: _RunState, wall: float) -> Dict[str, object]:
    if state.errors:
        raise state.errors[0]
    return {
        "reads": LatencySummary.from_latencies(
            state.read_latencies, wall
        ).to_dict(),
        "writes": (
            LatencySummary.from_latencies(state.write_latencies, wall).to_dict()
            if state.write_latencies
            else None
        ),
        "operations": len(state.read_latencies) + len(state.write_latencies),
        "wall_seconds": wall,
        "bit_identical": not state.mismatches,
        "mismatches": state.mismatches[:10],
    }


def run_closed_loop(
    ops: Sequence[Operation],
    readers: Sequence[Callable[[int, int], float]],
    writers: Sequence[Optional[_PendantWriter]],
    expected: Sequence[Sequence[float]],
    duration_s: float = 0.0,
) -> Dict[str, object]:
    """One outstanding operation at a time; latency is service time.

    ``duration_s = 0`` runs the stream exactly once; ``> 0`` cycles the
    same seeded stream until the wall clock expires (soak mode).
    """
    state = _RunState()
    base = time.perf_counter()
    while True:
        for op in ops:
            started = time.perf_counter()
            _execute(op, readers, writers, expected, state, started)
            if duration_s and time.perf_counter() - base >= duration_s:
                return _finish(state, time.perf_counter() - base)
        if not duration_s or time.perf_counter() - base >= duration_s:
            break
    return _finish(state, time.perf_counter() - base)


def run_open_loop(
    ops: Sequence[Operation],
    offsets: Sequence[float],
    readers: Sequence[Callable[[int, int], float]],
    writers: Sequence[Optional[_PendantWriter]],
    expected: Sequence[Sequence[float]],
    duration_s: float = 0.0,
) -> Dict[str, object]:
    """Wall-clock-scheduled arrivals that never wait for completions.

    Latency is measured from each operation's *scheduled* arrival, so a
    late start (client or server backlog) counts against the server —
    the honest open-loop convention.  With ``duration_s > 0`` the seeded
    (op, offset) schedule repeats, shifted by the previous cycle's span.
    """
    if len(offsets) != len(ops):
        raise QueryError(
            f"need one arrival offset per operation "
            f"(got {len(offsets)} offsets for {len(ops)} ops)"
        )
    state = _RunState()
    base = time.perf_counter()
    cycle_span = offsets[-1] if offsets else 0.0
    with ThreadPoolExecutor(max_workers=OPEN_LOOP_WORKERS) as pool:
        cycle = 0
        fired = False
        while not fired or (
            duration_s and time.perf_counter() - base < duration_s
        ):
            shift = cycle * cycle_span
            for op, offset in zip(ops, offsets):
                scheduled = base + shift + offset
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                pool.submit(
                    _execute, op, readers, writers, expected, state, scheduled
                )
                if duration_s and time.perf_counter() - base >= duration_s:
                    break
            fired = True
            cycle += 1
            if not duration_s:
                break
    return _finish(state, time.perf_counter() - base)


def build_operations(scenario: Scenario, graph) -> Tuple[
    List[Operation], List[List[Tuple[int, int]]]
]:
    """The scenario's full seeded stream, tenants interleaved round-robin.

    Returns ``(ops, pairs_per_tenant)`` — pairs are returned too so the
    caller can compute expected answers without re-drawing.
    """
    pairs = [
        scenario.query_pairs(graph, tenant)
        for tenant in range(scenario.tenants)
    ]
    mixes = [
        scenario.operations(scenario.num_queries, tenant)
        for tenant in range(scenario.tenants)
    ]
    ops: List[Operation] = []
    for slot in range(scenario.num_queries):
        for tenant in range(scenario.tenants):
            ops.append(
                Operation(tenant, mixes[tenant][slot], slot, pairs[tenant][slot])
            )
    return ops, pairs


def _base_engine(engine: str) -> str:
    """The engine name behind an optional ``cached:`` decorator."""
    return engine.split(":", 1)[1] if engine.startswith("cached:") else engine


def _local_reader(
    scenario: Scenario,
    graph,
    oracle: ISLabelIndex,
    tmp: str,
    tenant: int,
    writer: Optional[_PendantWriter],
) -> Tuple[Callable[[int, int], float], Optional[object]]:
    """``(distance(s, t) callable, cache-or-None)`` for one local tenant."""
    engine = scenario.engine
    base = _base_engine(engine)
    if base in ("mmap", "sharded"):
        # Snapshot-served engines: publish the oracle's frozen state and
        # serve it zero-copy (mmap wants one file, sharded a directory).
        # A cached: prefix survives — load_index wraps the snapshot
        # engine in the read-through tier.
        snap = os.path.join(tmp, f"tenant{tenant}.snap")
        shards = 1 if base == "mmap" else scenario.shards
        save_snapshot(oracle, snap, shards=shards)
        served = load_index(snap, engine=engine)
        return served.distance, getattr(served._fast, "cache", None)
    if writer is not None and engine.startswith("cached:"):
        # Mixed read/write on a cached engine: read from the *ingest
        # twin's* index so the §8.3 pendant waves drive real dirty-label
        # invalidations through the cache mid-run (the whole point of
        # the zipf-hot-cached scenario).  Pendant waves are
        # answer-preserving, so the oracle check stays bit-exact.
        index = writer.twin.index
        index.attach_fast_engine(engine)
        return index.distance, index._fast.cache
    served = (
        oracle
        if engine == oracle.engine and tenant == 0
        else ISLabelIndex.build(graph, engine=engine)
    )
    return served.distance, getattr(served._fast, "cache", None)


def run_scenario(
    scenario: Scenario,
    artifact_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Execute ``scenario`` end to end and return the artifact dict.

    Reads are verified bit-exactly against a ``"fast"`` oracle built on
    the scenario's base graph; a mismatch fails the run's
    ``bit_identical`` field (the first few mismatches are listed).  With
    ``engine="remote"`` a fleet is spawned (one snapshot per tenant, all
    workers under one :class:`FaultInjector`) and torn down with the
    reap assertion; ``workers_reaped`` lands in the artifact.
    """
    note = progress or (lambda _msg: None)
    note(f"scenario {scenario.name!r}: building graph ({scenario.dataset})")
    graph = scenario.build_graph()
    oracle = ISLabelIndex.build(graph, engine="fast")
    ops, pairs = build_operations(scenario, graph)
    expected = [oracle.distances(tenant_pairs) for tenant_pairs in pairs]

    writers: List[Optional[_PendantWriter]] = [None] * scenario.tenants
    if scenario.write_fraction > 0:
        # One ingest twin per tenant, adopting the oracle's index: pendant
        # waves are answer-preserving, so the oracle check stays valid.
        writers = [
            _PendantWriter(
                DynamicISLabelIndex.from_parts(
                    graph.copy(),
                    oracle
                    if tenant == 0
                    else ISLabelIndex.build(graph, engine="fast"),
                )
            )
            for tenant in range(scenario.tenants)
        ]

    offsets = scenario.arrival_offsets(len(ops))
    base_engine = _base_engine(scenario.engine)
    is_cached = scenario.engine.startswith("cached:")
    result: Dict[str, object] = {
        "scenario": scenario.to_dict(),
        "target": "remote" if base_engine == "remote" else "local",
    }

    injector: Optional[FaultInjector] = None
    engines: List[RemoteEngine] = []
    caches: List[Optional[object]] = []
    try:
        with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
            if base_engine == "remote":
                note(
                    f"spawning fleet: {scenario.tenants} tenant(s) x "
                    f"{scenario.workers} worker(s), {scenario.shards} shards"
                )
                injector = FaultInjector()
                ownership = assign_shards(
                    scenario.shards, scenario.workers, scenario.replication
                )
                readers = []
                for tenant in range(scenario.tenants):
                    snap = os.path.join(tmp, f"tenant{tenant}.snap")
                    save_snapshot(oracle, snap, shards=scenario.shards)
                    before = len(injector.workers)
                    injector.spawn_fleet(
                        snap, ownership, serve_args=list(FLEET_SERVE_ARGS)
                    )
                    addresses = injector.addresses[before:]
                    engine = RemoteEngine(
                        addresses=addresses,
                        policy=SchedulerPolicy(max_batch=256),
                    )
                    engines.append(engine)
                    if is_cached:
                        # Client-side hot-pair tier: hits never touch
                        # the wire; the raw engine stays on the close/
                        # stats path below.
                        from repro.caching.engine import CachedEngine

                        wrapped = CachedEngine(engine)
                        caches.append(wrapped.cache)
                        readers.append(wrapped.distance)
                    else:
                        caches.append(None)
                        readers.append(engine.distance)
            else:
                readers = []
                for tenant in range(scenario.tenants):
                    reader, cache = _local_reader(
                        scenario, graph, oracle, tmp, tenant, writers[tenant]
                    )
                    readers.append(reader)
                    caches.append(cache)

            note(
                f"running {scenario.arrival} loop: {len(ops)} ops"
                + (f" for {scenario.duration_s:.0f}s" if scenario.duration_s else "")
            )
            if offsets is None:
                run = run_closed_loop(
                    ops, readers, writers, expected, scenario.duration_s
                )
            else:
                run = run_open_loop(
                    ops, offsets, readers, writers, expected, scenario.duration_s
                )
            result.update(run)

            if engines:
                result["scheduler"] = [
                    engine.scheduler.stats() if engine.scheduler else None
                    for engine in engines
                ]
                result["failovers"] = sum(
                    len(engine.failovers) for engine in engines
                )
            if any(cache is not None for cache in caches):
                result["cache"] = [
                    cache.stats() if cache is not None else None
                    for cache in caches
                ]
    finally:
        for engine in engines:
            engine.close()
        if injector is not None:
            result["workers_reaped"] = injector.teardown()

    if writers[0] is not None:
        result["updates_applied"] = [
            {"inserts": w.twin.inserts_applied, "deletes": w.twin.deletes_applied}
            for w in writers
            if w is not None
        ]

    if artifact_path:
        with open(artifact_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        note(f"artifact written to {artifact_path}")
    return result
