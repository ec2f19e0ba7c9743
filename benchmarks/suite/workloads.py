"""The four workloads: set-up, timed phases and answer checks.

Each bench drives the program through its public API only.  The runner in
``run.py`` times ``setup`` and ``warmup``, calls ``phase`` once per phase
and round with a time slice, then ``end_round`` and, after the last round,
``finish``.  Answers are collected inside the timed windows and compared
outside them; every mismatch lands in :attr:`Record.mismatches`.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import socket
import threading
from collections import defaultdict
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence

import repro
from repro import DynamicISLabelIndex, ISLabelIndex
from repro.baselines.dijkstra import bidirectional_dijkstra
from repro.loadgen.drivers import FLEET_SERVE_ARGS
from repro.loadgen.generators import derive_seed, poisson_arrivals, uniform_pairs
from repro.loadgen.scenario import Scenario
from repro.loadgen.summary import percentile
from repro.serving import wire
from repro.serving.chaos import FaultInjector
from repro.serving.remote import RemoteEngine
from repro.serving.scheduler import SchedulerPolicy, assign_shards

import spec

#: Open-loop sender threads; the load generator stays within two.
OPEN_SENDERS = 2


class Record:
    """Everything one workload run measured, counted and checked."""

    def __init__(self) -> None:
        #: metric -> one value per round (or per set-up).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.mismatch_count = 0
        self.mismatches: List[str] = []
        #: Index shape and server counters the trace reports.
        self.facts: Dict[str, float] = {}
        #: Tail metric -> ``(fraction, latencies of every round in us, the
        #: index in that list where each round ends)``.
        self.pooled: Dict[str, tuple] = {}
        #: Operations and wall time of each phase's latest run.
        self.ops: Dict[str, int] = {}
        self.walls: Dict[str, float] = {}
        self.traced_warmups = 0
        #: Every host-speed probe of the run, in seconds.
        self.probes: List[float] = []

    def mismatch(self, message: str) -> None:
        self.mismatch_count += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(message)

    def counts(self) -> Dict[str, int]:
        """How many samples each metric holds now, for :meth:`rescale`."""
        held = {name: len(values) for name, values in self.samples.items()}
        held.update((f"pooled {name}", len(v)) for name, (_, v, _) in self.pooled.items())
        return held

    def rescale(self, since: Dict[str, int], factor: float) -> None:
        """Scale the timings recorded after ``since`` to the reference host
        speed: a metric named ``*_s``, ``*_ms`` or ``*_us`` is a time and is
        multiplied by ``factor``, one named ``*_qps`` is a rate and is
        divided by it."""
        lists = [(name, name, values) for name, values in self.samples.items()]
        lists += [(name, f"pooled {name}", v) for name, (_, v, _) in self.pooled.items()]
        for name, key, values in lists:
            if name.endswith(("_s", "_ms", "_us")):
                scale = factor
            elif name.endswith("_qps"):
                scale = 1.0 / factor
            else:
                continue
            start = since.get(key, 0)
            values[start:] = [v * scale for v in values[start:]]

    def latencies(self, prefix: str, values: Sequence[float], high: float) -> None:
        """Record one round of latencies, in us: the median now, the
        ``high`` percentile later by :meth:`tail_samples`."""
        self.samples[f"{prefix}_p50_us"].append(percentile(sorted(values), 0.50) * 1e6)
        tail = f"{prefix}_p{round(high * 100)}_us"
        _, pooled, ends = self.pooled.setdefault(tail, (high, [], []))
        pooled.extend(v * 1e6 for v in values)
        ends.append(len(pooled))

    def tail_samples(self, name: str) -> List[float]:
        """The tail percentile of each group of consecutive rounds.

        A round of a slow workload has too few samples for ten of them to
        lie beyond its 99th percentile, so rounds are grouped until a group
        has that many (a short last group joins the one before); the
        median over the groups absorbs a burst that one group met.
        """
        fraction, pooled, ends = self.pooled[name]
        need = round(10 / (1 - fraction))
        groups: List[tuple] = []
        start = 0
        for end in ends:
            if end - start >= need:
                groups.append((start, end))
                start = end
        if start < len(pooled):
            groups[-1:] = [(groups[-1][0] if groups else 0, len(pooled))]
        return [percentile(sorted(pooled[a:b]), fraction) for a, b in groups]


def closed_loop(tracer, call, items, start: int, slice_s: float):
    """``call(*item)`` back to back over ``items`` (cyclically from
    ``start``) until ``slice_s`` has passed.

    Returns ``(latencies_s, answers, wall_s)``.  Each iteration is one
    ``loop`` span, so the loop's own cost shows in the trace.
    """
    n = len(items)
    begin, end = tracer.begin, tracer.end
    latencies: List[float] = []
    answers: list = []
    i = start
    started = perf_counter()
    deadline = started + slice_s
    while True:
        frame = begin("loop")
        item = items[i % n]
        t0 = perf_counter()
        answer = call(*item)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        answers.append(answer)
        i += 1
        end(frame)
        if t1 >= deadline:
            break
    return latencies, answers, perf_counter() - started


def open_loop(call, pairs, offsets: Sequence[float], slice_s: float):
    """Poisson arrivals from :data:`OPEN_SENDERS` threads for ``slice_s``.

    Arrival ``i`` belongs to sender ``i % OPEN_SENDERS``; a sender that is
    still busy sends late, and latency counts from the due time, so a
    stall shows as latency of the requests queued behind it.  Returns
    ``(rows, errors)`` with rows ``(position, answer, latency_s, lag_s)``.
    """
    base = perf_counter() + 0.005
    due = [off for off in offsets if off <= slice_s]
    rows: List[list] = [[] for _ in range(OPEN_SENDERS)]
    errors: List[BaseException] = []

    def send(k: int) -> None:
        out = rows[k]
        for i in range(k, len(due), OPEN_SENDERS):
            at = base + due[i]
            delay = at - perf_counter()
            if delay > 0:
                sleep(delay)
            sent = perf_counter()
            try:
                answer = call(*pairs[i % len(pairs)])
            except Exception as exc:  # counted as failed, run continues
                errors.append(exc)
                continue
            out.append((i, answer, perf_counter() - at, sent - at))

    senders = [
        threading.Thread(target=send, args=(k,), name=f"bench-open-{k}", daemon=True)
        for k in range(OPEN_SENDERS)
    ]
    for thread in senders:
        thread.start()
    for thread in senders:
        thread.join(timeout=slice_s + 120.0)
        if thread.is_alive():
            raise RuntimeError("open-loop sender did not finish")
    return [row for part in rows for row in part], errors


class StreamBench:
    """A fixed seeded pair stream over one graph, answered by ``target``.

    ``web-local`` and ``road-local`` use it directly; ``web-fleet`` swaps
    the target for a remote fleet.  The first warm-up pass fixes the
    reference answers; every later answer must equal them.
    """

    #: Whether the work runs on every CPU (worker processes), so that the
    #: host-speed probe must cover every CPU; local work stays on one.
    EVERY_CPU = False

    def __init__(self, workload, sizes, seed: int, work_dir: str, worker_env) -> None:
        self.name = workload.name
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir
        self.worker_env = worker_env
        self.graph = Scenario(
            name=workload.name, dataset=sizes.dataset, scale=sizes.scale
        ).build_graph()
        self.pairs = uniform_pairs(
            sorted(self.graph.vertices()),
            sizes.stream,
            derive_seed(seed, self.name, "pairs"),
        )
        self.batches = [
            (self.pairs[i : i + sizes.batch],)
            for i in range(0, len(self.pairs), sizes.batch)
        ]
        self.ref: Optional[List[float]] = None
        self.cursor = {"single": 0, "batch": 0}

    # -- set-up ----------------------------------------------------------
    def setup(self):
        index = ISLabelIndex.build(self.graph, engine="fast")
        index._fast.freeze()
        return index

    def prepare(self, target) -> None:
        """Untimed work between set-up and warm-up (none here)."""

    def answerer(self, target):
        """What answers the single queries."""
        return target

    def batcher(self, target):
        """What answers the warm-up and the batches."""
        return target

    def warmup(self, target, part: int, parts: int) -> List[float]:
        """Answers of the ``part``-th of ``parts`` consecutive runs of
        batches; the parts in order make one pass over the stream."""
        n = len(self.batches)
        distances = self.batcher(target).distances
        answers: List[float] = []
        for (batch,) in self.batches[part * n // parts : (part + 1) * n // parts]:
            answers.extend(distances(batch))
        return answers

    def check_warmup(self, answers: List[float], rec: Record) -> None:
        rec.attempted += len(answers)
        if self.ref is None:
            self.ref = answers
            return
        self._check(answers, 0, rec, "warm-up")

    def _check(self, answers, start: int, rec: Record, what: str) -> None:
        n = len(self.pairs)
        for k, got in enumerate(answers):
            pos = (start + k) % n
            if got != self.ref[pos]:
                rec.mismatch(f"{what}: pair {self.pairs[pos]} got {got}, expected {self.ref[pos]}")

    # -- timed phases ----------------------------------------------------
    def phase(self, kind: str, target, slice_s: float, tracer, rec: Record) -> None:
        getattr(self, f"_{kind}")(target, slice_s, tracer, rec)

    def _single(self, target, slice_s, tracer, rec) -> None:
        start = self.cursor["single"]
        latencies, answers, wall = closed_loop(
            tracer, self.answerer(target).distance, self.pairs, start, slice_s
        )
        self.cursor["single"] = start + len(answers)
        rec.latencies("query", latencies, 0.99)
        rec.samples["query_qps"].append(len(answers) / wall)
        rec.samples["query_mean_us"].append(sum(latencies) / len(latencies) * 1e6)
        rec.ops["single"], rec.walls["single"] = len(answers), wall
        rec.attempted += len(answers)
        self._check(answers, start, rec, "single")

    def _batch(self, target, slice_s, tracer, rec) -> None:
        start = self.cursor["batch"]
        _, answers, wall = closed_loop(
            tracer, self.batcher(target).distances, self.batches, start, slice_s
        )
        self.cursor["batch"] = start + len(answers)
        pairs = sum(len(a) for a in answers)
        rec.samples["batch_qps"].append(pairs / wall)
        rec.ops["batch"], rec.walls["batch"] = len(answers), wall
        rec.attempted += pairs
        nb = len(self.batches)
        for k, got in enumerate(answers):
            b = (start + k) % nb
            self._check(got, b * self.sizes.batch, rec, "batch")

    def end_round(self, target, rec: Record) -> None:
        """Checks after each round (none here: every answer is checked
        against the reference right after its phase)."""

    # -- after the last round --------------------------------------------
    def finish(self, target, rec: Record) -> None:
        self._index_facts(target, rec)
        rng = random.Random(derive_seed(self.seed, self.name, "oracle"))
        n = len(self.pairs)
        sample = rng.sample(range(n), min(self.sizes.dict_sample, n))
        oracle = ISLabelIndex.build(self.graph, engine="dict")
        for pos, want in zip(sample, oracle.distances([self.pairs[p] for p in sample])):
            if self.ref[pos] != want:
                rec.mismatch(f"dict engine: pair {self.pairs[pos]} {want} != fast {self.ref[pos]}")
        for pos in sample[: self.sizes.dijkstra_sample]:
            want = bidirectional_dijkstra(self.graph, *self.pairs[pos])
            if self.ref[pos] != want:
                rec.mismatch(f"bi-Dijkstra: pair {self.pairs[pos]} {want} != {self.ref[pos]}")

    def _index_facts(self, index, rec: Record) -> None:
        rec.samples["index_mb"].append(index._fast.nbytes() / 1e6)
        rec.facts["hierarchy.k"] = index.k
        rec.facts["hierarchy.gk_vertices"] = index.gk.num_vertices
        rec.facts["labeling.entries"] = index.stats.label_entries

    def release(self, target, rec: Record) -> None:
        """Drop the target (nothing to stop for a local index)."""


class Fleet:
    """A spawned fleet: the index it serves, its workers and two clients.

    ``single`` carries the single queries, the stall probe and the open
    loop; ``batch`` carries the warm-up and the batch phases.  Each client
    holds one connection per worker, with a reader and a writer thread.
    """

    def __init__(self, index: ISLabelIndex, injector: FaultInjector, snapshot: str) -> None:
        self.index = index
        self.injector = injector
        self.snapshot = snapshot
        self.engines: List[RemoteEngine] = []

    @property
    def single(self) -> RemoteEngine:
        return self.engines[0]

    @property
    def batch(self) -> RemoteEngine:
        return self.engines[1]

    def dial(self) -> None:
        for _ in range(2):
            engine = RemoteEngine(
                addresses=self.injector.addresses, policy=SchedulerPolicy(max_batch=256)
            )
            self.engines.append(engine)
            engine.freeze()

    def stop(self) -> List[str]:
        """Stop workers, then clients; returns the workers left running.

        Workers go first: their exit closes the client connections and
        ends the clients' reader threads at once, where closing a client
        first waits up to 5 s per connection for a reader blocked in recv.
        """
        try:
            self.injector.teardown()
            return [
                w.worker_id
                for w in self.injector.workers
                if w.proc is not None and w.proc.poll() is None
            ]
        finally:
            for engine in self.engines:
                engine.close()
            shutil.rmtree(self.snapshot, ignore_errors=True)


class FleetBench(StreamBench):
    """The web-local stream served by a sharded ``repro serve`` fleet."""

    EVERY_CPU = True

    #: Batches sent on the single phase's connections before each batch phase.
    STALL_PROBE = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.spawned = 0
        self.cursor["open"] = 0

    def setup(self) -> Fleet:
        index = super().setup()
        snapshot = os.path.join(self.work_dir, f"fleet-{self.spawned}.snap")
        self.spawned += 1
        repro.save_snapshot(index, snapshot, shards=spec.FLEET_SHARDS)
        fleet = Fleet(index, FaultInjector(), snapshot)
        try:
            fleet.injector.spawn_fleet(
                snapshot,
                assign_shards(spec.FLEET_SHARDS, spec.FLEET_WORKERS),
                serve_args=list(FLEET_SERVE_ARGS),
                extra_env=self.worker_env,
            )
            fleet.dial()
        except BaseException:
            fleet.stop()
            raise
        return fleet

    def prepare(self, fleet: Fleet) -> None:
        if self.ref is None:
            self.ref = fleet.index.distances(self.pairs)

    def answerer(self, fleet: Fleet):
        return fleet.single

    def batcher(self, fleet: Fleet):
        return fleet.batch

    def _batch(self, fleet: Fleet, slice_s, tracer, rec) -> None:
        # After a run of single queries, pipelined responses on the same
        # connections sometimes wait out the peer's delayed ACK (~40 ms per
        # batch; nothing in the program sets TCP_NODELAY).  Whether they do
        # is bimodal from round to round, so a few batches on the singles'
        # connections record it as a diagnostic and the timed phase runs on
        # the connections that only ever carry batches.
        stalls = []
        for b, (batch,) in enumerate(self.batches[: self.STALL_PROBE]):
            t0 = perf_counter()
            answers = fleet.single.distances(batch)
            stalls.append(perf_counter() - t0)
            self._check(answers, b * self.sizes.batch, rec, "stall probe")
        rec.samples["batch_after_singles_ms"].append(sorted(stalls)[len(stalls) // 2] * 1e3)
        scheduler = fleet.batch.scheduler
        before = scheduler.stats()
        super()._batch(fleet, slice_s, tracer, rec)
        after = scheduler.stats()
        for key in ("dispatch_calls", "queries_scheduled"):
            rec.facts[f"batch.{key}"] = after[key] - before[key]

    def _open(self, fleet: Fleet, slice_s, tracer, rec) -> None:
        start = self.cursor["open"]
        count = int(self.sizes.rate_qps * slice_s * 2) + 10
        offsets = poisson_arrivals(
            self.sizes.rate_qps, count, derive_seed(self.seed, self.name, "arrivals", start)
        )
        pairs = self.pairs[start:] + self.pairs[:start]
        rows, errors = open_loop(fleet.single.distance, pairs, offsets, slice_s)
        self.cursor["open"] = (start + len(rows) + len(errors)) % len(self.pairs)
        rec.attempted += len(rows) + len(errors)
        rec.failed += len(errors)
        for exc in errors[:3]:
            rec.mismatch(f"open loop: {type(exc).__name__}: {exc}")
        if not rows:
            return
        rec.latencies("open", [row[2] for row in rows], 0.99)
        rec.samples["open_lag_p99_us"].append(
            percentile(sorted(row[3] for row in rows), 0.99) * 1e6
        )
        for i, answer, _, _ in rows:
            self._check([answer], start + i, rec, "open loop")

    def finish(self, fleet: Fleet, rec: Record) -> None:
        self._index_facts(fleet.index, rec)
        requests = rejected = 0
        for address in fleet.injector.addresses:
            with socket.create_connection(address, timeout=10.0) as sock:
                stats = wire.request(sock, {"op": "stats"})
            requests += stats["requests_served"]
            rejected += stats["depth"]["rejected"]
        rec.facts["server.requests"] = requests
        rec.facts["server.rejected"] = rejected
        rec.refused += rejected
        rec.samples["snapshot_mb"].append(_tree_bytes(fleet.snapshot) / 1e6)

    def release(self, fleet: Fleet, rec: Record) -> None:
        for worker_id in fleet.stop():
            rec.mismatch(f"worker {worker_id} was not reaped")


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path)
        for f in files
    )


class ChurnBench(StreamBench):
    """A seeded read/write script on one ``DynamicISLabelIndex``.

    Each round continues the script where the previous one stopped; a
    ``dict``-engine twin replays every round's ops afterwards and must give
    the same answers.  The batch phase re-reads the checked prefix of the
    stream on the updated index.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        vertices = sorted(self.graph.vertices())
        rng = random.Random(derive_seed(self.seed, self.name, "writes"))
        # One write at a seeded position in every block of 1/write_fraction
        # ops.  A Bernoulli mix (loadgen's operation_mix) moves the number
        # of re-freezes in a one-second round, and so every metric of the
        # round, by about 16% from seed to seed.
        every = round(1 / self.sizes.write_fraction)
        write_at = {b + rng.randrange(every) for b in range(0, len(self.pairs), every)}
        fresh = vertices[-1] + 1
        self.script: list = []
        writes = 0
        for i, pair in enumerate(self.pairs):
            if i not in write_at:
                self.script.append(("read", pair))
                continue
            if writes % 2:
                # Every second write deletes the previous insert, so G_k
                # stays the size it was built with.
                self.script.append(("delete", fresh - 1))
            else:
                neighbours = rng.sample(vertices, rng.randint(1, 3))
                adjacency = {v: rng.randint(1, 4) for v in neighbours}
                self.script.append(("insert", fresh, adjacency))
                fresh += 1
            writes += 1
        self.rereads = self.batches[: math.ceil(self.sizes.dict_sample / self.sizes.batch)]
        self.twin: Optional[DynamicISLabelIndex] = None
        self.done = 0  # script ops executed so far
        self.segment = (0, 0)
        self.script_answers: List[float] = []
        self.batch_answers: List[List[float]] = []

    def setup(self) -> DynamicISLabelIndex:
        dyn = DynamicISLabelIndex(self.graph, engine="fast")
        dyn.index._fast.freeze()
        return dyn

    def _script(self, dyn, slice_s, tracer, rec) -> None:
        begin, end = tracer.begin, tracer.end
        start = self.done
        if start >= len(self.script):
            raise RuntimeError("the churn script ran out; lengthen Sizes.stream")
        reads: List[float] = []
        updates: List[float] = []
        answers: List[float] = []
        started = perf_counter()
        deadline = started + slice_s
        for op in self.script[start:]:
            frame = begin("loop")
            t0 = perf_counter()
            if op[0] == "read":
                answers.append(dyn.distance(*op[1]))
                t1 = perf_counter()
                reads.append(t1 - t0)
            else:
                if op[0] == "insert":
                    dyn.insert_vertex(op[1], op[2])
                else:
                    dyn.delete_vertex(op[1])
                t1 = perf_counter()
                updates.append(t1 - t0)
            self.done += 1
            end(frame)
            if t1 >= deadline:
                break
        wall = perf_counter() - started
        ops = self.done - start
        self.segment = (start, self.done)
        self.script_answers = answers
        rec.latencies("query", reads, 0.99)
        rec.samples["query_mean_us"].append(sum(reads) / len(reads) * 1e6)
        rec.samples["query_qps"].append(ops / wall)
        if updates:
            rec.latencies("update", updates, 0.90)
        rec.ops["script"], rec.walls["script"] = ops, wall
        rec.attempted += ops

    def _batch(self, dyn, slice_s, tracer, rec) -> None:
        _, answers, wall = closed_loop(tracer, dyn.distances, self.rereads, 0, slice_s)
        pairs = sum(len(a) for a in answers)
        rec.samples["batch_qps"].append(pairs / wall)
        rec.ops["batch"], rec.walls["batch"] = len(answers), wall
        rec.attempted += pairs
        self.batch_answers = answers

    def end_round(self, dyn, rec: Record) -> None:
        if self.twin is None:
            # The twin starts from the same graph as the served index;
            # check the warm-up answers against it before any write.
            self.twin = DynamicISLabelIndex(self.graph, engine="dict")
            rng = random.Random(derive_seed(self.seed, self.name, "oracle"))
            n = len(self.pairs)
            sample = rng.sample(range(n), min(self.sizes.dict_sample, n))
            wants = self.twin.distances([self.pairs[p] for p in sample])
            for pos, want in zip(sample, wants):
                if self.ref[pos] != want:
                    rec.mismatch(f"warm-up vs dict twin: pair {self.pairs[pos]}")
        twin = self.twin
        answers = iter(self.script_answers)
        for op in self.script[self.segment[0] : self.segment[1]]:
            if op[0] == "read":
                got, want = next(answers), twin.distance(*op[1])
                if got != want:
                    rec.mismatch(f"script read {op[1]}: fast {got}, dict twin {want}")
            elif op[0] == "insert":
                twin.insert_vertex(op[1], op[2])
            else:
                twin.delete_vertex(op[1])
        nb = len(self.rereads)
        wants = [twin.distances(batch) for (batch,) in self.rereads]
        for k, got in enumerate(self.batch_answers):
            if got != wants[k % nb]:
                rec.mismatch(f"batch {k % nb} after the script differs from the dict twin")

    def finish(self, dyn, rec: Record) -> None:
        self._index_facts(dyn.index, rec)


BENCHES = {
    "web-local": StreamBench,
    "road-local": StreamBench,
    "web-fleet": FleetBench,
    "google-churn": ChurnBench,
}
