"""Shard-aware query scheduling: bucket ``(s, t)`` batches by shard pair.

IS-LABEL queries are pairs of independent label lookups (Equation 1 plus
a small shared search stage), which makes a query stream embarrassingly
batchable — *if* the batches are shaped to the storage layout.  The
sharded serving engine (:mod:`repro.core.snapshot`) splits the label
arrays into contiguous vertex-id-range shard files; a batch whose pairs
all land in one ``(source shard, target shard)`` bucket touches exactly
two shard files, reuses the same lazily-mapped pages, fills adjacent
all-pairs table rows, and amortizes the engine's one compiled batch
call (or its vectorized ``batch_eq1`` pass) over the whole bucket.  A
naive per-query loop pays every one of those costs per call.

:class:`ShardScheduler` is that routing layer.  It consumes ``(s, t)``
pairs one batch at a time (:meth:`schedule`), buckets them by owning
shard pair via the snapshot's ownership map (shard *starts*: vertex
``v`` belongs to the shard with the rightmost start ``<= v``), and
dispatches each bucket as **one** batched ``distances()`` call.
Dispatch is a callable, so the same scheduler drives a local sharded
engine, an index facade, or the remote engine's per-worker connections
(:mod:`repro.serving.remote` — a bucket becomes one wire frame to the
worker owning the source shard).

:class:`SchedulerPolicy` has one knob: ``max_batch`` caps how many
queries one dispatch may carry (1 degenerates to per-query dispatch —
the property suite's bit-identity baseline).

Scheduling never changes answers: results are scattered back to input
positions, so :meth:`schedule` is bit-identical to calling
``distance(s, t)`` per pair on any engine — which is exactly what the
property tests assert against the dict oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from concurrent.futures import Future
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import QueryError

__all__ = [
    "SchedulerPolicy",
    "ShardScheduler",
    "assign_shards",
    "shard_starts_of",
]


def shard_starts_of(obj) -> List[int]:
    """Shard starts of an engine or index facade ([] when unsharded).

    Accepts either a packed engine or an index facade (whose ``_fast``
    engine is probed).  Freezes the engine if needed — the sharded label
    table (and with it the shard layout) only exists frozen.
    """
    probe = getattr(obj, "_fast", None)
    if probe is None:
        probe = obj
    freeze = getattr(probe, "freeze", None)
    if callable(freeze):
        freeze()
    for attr in ("table", "out_table"):
        table = getattr(probe, attr, None)
        got = getattr(table, "starts", None)
        if got:
            return list(got)
    return []

#: A dispatch target: called with one bucket's pairs (in arrival order)
#: and the bucket key ``(source shard, target shard)``; must return one
#: distance per pair, in order.
Dispatch = Callable[[List[Tuple[int, int]], Tuple[int, int]], Sequence[float]]

#: The pipelined dispatch seam: same arguments, but returns a
#: :class:`concurrent.futures.Future` resolving to the answers, so the
#: scheduler can put *every* bucket of a batch in flight before waiting
#: on any of them.  The remote engine always provides it (a thread-pool
#: submit over its replica-aware dispatch).  Local engines
#: (:meth:`ShardScheduler.for_engine`) have none: their buckets run one
#: after another on the caller's thread, where there is no round trip to
#: overlap.
DispatchAsync = Callable[
    [List[Tuple[int, int]], Tuple[int, int]], "Future[Sequence[float]]"
]


class SchedulerPolicy(NamedTuple):
    """Batching knob of the scheduler.

    ``max_batch``
        Largest number of queries one dispatch call may carry:
        :meth:`ShardScheduler.schedule` merges same-source buckets up to
        it and chunks oversized buckets by it.  ``1`` disables batching
        entirely (every query dispatched alone — the degenerate
        baseline).
    """

    max_batch: int = 1024


class ShardScheduler:
    """Routes and batches point-to-point queries per owning shard pair.

    ``starts`` is the sharded snapshot's ownership map — the sorted first
    vertex id of every shard (:attr:`repro.core.snapshot.Snapshot.shard_starts`).
    An empty list means "one implicit shard" (unsharded engines): the
    scheduler still batches, it just has a single bucket.
    """

    __slots__ = (
        "starts",
        "dispatch",
        "dispatch_async",
        "policy",
        "dispatch_calls",
        "queries_scheduled",
        "buckets_coalesced",
    )

    def __init__(
        self,
        starts: Sequence[int],
        dispatch: Dispatch,
        policy: Optional[SchedulerPolicy] = None,
        dispatch_async: Optional[DispatchAsync] = None,
    ) -> None:
        self.starts = sorted(int(s) for s in starts)
        self.dispatch = dispatch
        self.dispatch_async = dispatch_async
        self.policy = policy or SchedulerPolicy()
        if self.policy.max_batch < 1:
            raise QueryError(
                f"SchedulerPolicy.max_batch must be >= 1, "
                f"got {self.policy.max_batch}"
            )
        #: How many dispatch calls / queries this scheduler has issued —
        #: the amortization ratio the benchmark reports.
        self.dispatch_calls = 0
        self.queries_scheduled = 0
        self.buckets_coalesced = 0

    @classmethod
    def for_engine(cls, engine, policy: Optional[SchedulerPolicy] = None):
        """Scheduler over a frozen local engine (or index facade).

        Sniffs the shard starts from the engine's label table when it is
        sharded (``table`` undirected / ``out_table`` directed); falls
        back to the single implicit bucket otherwise.  Dispatch goes
        through ``engine.distances``, so facades keep their coverage
        checks and I/O accounting.
        """
        starts = shard_starts_of(engine)
        return cls(starts, lambda pairs, bucket: engine.distances(pairs), policy)

    # ------------------------------------------------------------------
    # Shard mapping
    # ------------------------------------------------------------------
    def shard_of(self, v: int) -> int:
        """Owning shard index of vertex ``v`` (0 when unsharded)."""
        if not self.starts:
            return 0
        return max(bisect_right(self.starts, v) - 1, 0)

    def bucket_of(self, s: int, t: int) -> Tuple[int, int]:
        """The shard-pair bucket a query belongs to."""
        return self.shard_of(s), self.shard_of(t)

    @property
    def num_shards(self) -> int:
        return max(len(self.starts), 1)

    # ------------------------------------------------------------------
    # Batch scheduling
    # ------------------------------------------------------------------
    def schedule(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        """Answer a whole batch, bucketed per shard pair.

        Groups the batch by bucket, dispatches each bucket (chunked at
        ``policy.max_batch``, and merged with same-source neighbours) as
        one batched call, and scatters the answers back to input order.
        Buckets dispatch in ascending shard-pair order so consecutive
        calls touch neighbouring shard files and all-pairs table rows.
        """
        pairs = [(int(s), int(t)) for s, t in pairs]
        out: List[float] = [0.0] * len(pairs)
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for i, (s, t) in enumerate(pairs):
            buckets.setdefault(self.bucket_of(s, t), []).append(i)
        cap = self.policy.max_batch
        # Dispatch groups: one per bucket, except that adjacent buckets
        # sharing a source shard coalesce (their owner is the same
        # worker) while they fit the batch cap.  Routing is unaffected,
        # and small per-pair buckets regain the engine's full batch
        # amortization.
        groups: List[Tuple[Tuple[int, int], List[int]]] = []
        for bucket in sorted(buckets):
            positions = buckets[bucket]
            if (
                groups
                and groups[-1][0][0] == bucket[0]
                and len(groups[-1][1]) + len(positions) <= cap
            ):
                groups[-1] = (groups[-1][0], groups[-1][1] + positions)
                self.buckets_coalesced += 1
            else:
                groups.append((bucket, list(positions)))
        jobs: List[Tuple[Tuple[int, int], List[int]]] = []
        for bucket, positions in groups:
            for lo in range(0, len(positions), cap):
                jobs.append((bucket, positions[lo : lo + cap]))
        if self.dispatch_async is not None and len(jobs) > 1:
            # Pipelined batch: every chunk goes in flight before any is
            # awaited, so a fleet dispatch keeps all workers busy at
            # once.  Gathering in job order keeps the accounting and the
            # raise-first-error behavior deterministic.
            futures: List["Future[Sequence[float]]"] = [
                self.dispatch_async([pairs[i] for i in chunk], bucket)
                for bucket, chunk in jobs
            ]
            first_error: Optional[BaseException] = None
            for (bucket, chunk), future in zip(jobs, futures):
                try:
                    answers = self._record(
                        [pairs[i] for i in chunk], bucket, future.result()
                    )
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = exc
                    continue
                for i, d in zip(chunk, answers):
                    out[i] = d
            if first_error is not None:
                raise first_error
            return out
        for bucket, chunk in jobs:
            answers = self._dispatch([pairs[i] for i in chunk], bucket)
            for i, d in zip(chunk, answers):
                out[i] = d
        return out

    def _record(
        self,
        chunk: List[Tuple[int, int]],
        bucket: Tuple[int, int],
        answers: Sequence[float],
    ) -> Sequence[float]:
        """Validate and account one completed dispatch (either seam)."""
        if len(answers) != len(chunk):
            raise QueryError(
                f"scheduler dispatch for bucket {bucket} returned "
                f"{len(answers)} answers for {len(chunk)} queries"
            )
        self.dispatch_calls += 1
        self.queries_scheduled += len(chunk)
        return answers

    def _dispatch(
        self, chunk: List[Tuple[int, int]], bucket: Tuple[int, int]
    ) -> Sequence[float]:
        return self._record(chunk, bucket, self.dispatch(chunk, bucket))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Batching-efficiency counters as one snapshot dict.

        ``dispatch_calls`` / ``queries_scheduled`` give the amortization
        ratio (``avg_batch``) and ``buckets_coalesced`` counts same-source
        bucket merges.  This is the observability surface the load
        harness and the ``stats`` wire op report — callers should read it
        instead of monkey-patching ``_dispatch``.
        """
        return {
            "dispatch_calls": self.dispatch_calls,
            "queries_scheduled": self.queries_scheduled,
            "buckets_coalesced": self.buckets_coalesced,
            "avg_batch": (
                self.queries_scheduled / self.dispatch_calls
                if self.dispatch_calls
                else 0.0
            ),
        }


def assign_shards(
    num_shards: int, workers: int, replication: int = 1
) -> List[List[int]]:
    """Partition shard indices into ``workers`` contiguous ownership slices.

    The deployment-side half of the ownership map: contiguous ranges keep
    each worker's mapped files adjacent (and its page working set dense).
    Workers beyond the shard count receive empty slices rather than
    erroring, so over-provisioned fleets degrade gracefully.

    ``replication`` > 1 gives every shard that many owners: worker ``w``
    additionally owns the primary slices of the next ``replication - 1``
    workers (ring order).  With ``replication=2`` any *single* worker's
    death leaves every shard with a surviving owner — the fault-tolerance
    floor the chaos suite asserts.
    """
    if workers < 1:
        raise QueryError(f"assign_shards needs >= 1 worker, got {workers}")
    if not 1 <= replication <= workers:
        raise QueryError(
            f"assign_shards replication must be in [1, {workers} workers], "
            f"got {replication}"
        )
    primary: List[List[int]] = [[] for _ in range(workers)]
    base, extra = divmod(num_shards, workers)
    cursor = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        primary[w] = list(range(cursor, cursor + size))
        cursor += size
    if replication == 1:
        return primary
    out: List[List[int]] = []
    for w in range(workers):
        owned = set()
        for r in range(replication):
            owned.update(primary[(w + r) % workers])
        out.append(sorted(owned))
    return out
