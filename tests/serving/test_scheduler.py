"""The shard-aware query scheduler (repro.serving.scheduler)."""

import math

import pytest

from repro.core.directed import DirectedISLabelIndex
from repro.core.index import ISLabelIndex
from repro.core.serialization import load_directed_index, load_index, save_snapshot
from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.graph.graph import Graph
from repro.serving.scheduler import (
    SchedulerPolicy,
    ShardScheduler,
    assign_shards,
    shard_starts_of,
)


@pytest.fixture(scope="module")
def graph():
    g = ensure_connected(erdos_renyi(80, 200, seed=5, max_weight=6), seed=5)
    g.add_vertex(999)  # isolated: disconnected pairs stay inf
    return g


@pytest.fixture(scope="module")
def sharded_index(graph, tmp_path_factory):
    index = ISLabelIndex.build(graph)
    path = tmp_path_factory.mktemp("sched") / "g.shards"
    save_snapshot(index, path, shards=4)
    return load_index(path, engine="sharded")


def _pairs(graph):
    vertices = sorted(graph.vertices())
    picks = vertices[::7] + [vertices[0], vertices[-1], 999]
    return [(s, t) for s in picks for t in picks]


class TestRouting:
    def test_shard_of_bisects_starts(self):
        sched = ShardScheduler([0, 10, 20], lambda p, b: [0.0] * len(p))
        assert sched.shard_of(0) == 0
        assert sched.shard_of(9) == 0
        assert sched.shard_of(10) == 1
        assert sched.shard_of(25) == 2
        assert sched.shard_of(-5) == 0  # below every start routes to 0
        assert sched.bucket_of(9, 25) == (0, 2)
        assert sched.num_shards == 3

    def test_unsharded_is_single_bucket(self):
        sched = ShardScheduler([], lambda p, b: [0.0] * len(p))
        assert sched.shard_of(12345) == 0
        assert sched.num_shards == 1

    def test_shard_starts_of_probes_engine_and_facade(self, graph, sharded_index):
        starts = shard_starts_of(sharded_index)
        assert starts == shard_starts_of(sharded_index._fast)
        assert len(starts) >= 2
        fast = ISLabelIndex.build(graph)
        assert shard_starts_of(fast) == []
        assert shard_starts_of(ISLabelIndex.build(graph, engine="dict")) == []


class TestSchedule:
    def test_scheduled_matches_per_query_oracle(self, graph, sharded_index):
        """Bit identity incl. cross-shard and disconnected pairs."""
        oracle = ISLabelIndex.build(graph, engine="dict")
        pairs = _pairs(graph)
        expected = [oracle.distance(s, t) for s, t in pairs]
        sched = ShardScheduler.for_engine(sharded_index)
        assert sched.schedule(pairs) == expected
        # Cross-shard pairs really exist in this workload.
        assert len({sched.bucket_of(s, t) for s, t in pairs}) > sched.num_shards
        assert any(math.isinf(d) for d in expected)

    def test_bucket_size_one_policy_degenerates_to_per_query(
        self, graph, sharded_index
    ):
        pairs = _pairs(graph)
        expected = sharded_index.distances(pairs)
        sched = ShardScheduler.for_engine(
            sharded_index, policy=SchedulerPolicy(max_batch=1)
        )
        assert sched.schedule(pairs) == expected
        assert sched.dispatch_calls == len(pairs)
        assert sched.queries_scheduled == len(pairs)

    def test_dispatch_amortizes_buckets(self, graph, sharded_index):
        pairs = _pairs(graph)
        sched = ShardScheduler.for_engine(sharded_index)
        sched.schedule(pairs)
        assert sched.dispatch_calls <= sched.num_shards * sched.num_shards
        assert sched.dispatch_calls < len(pairs)

    def test_coalescing_respects_max_batch(self):
        calls = []

        def dispatch(chunk, bucket):
            calls.append((bucket, len(chunk)))
            return [0.0] * len(chunk)

        sched = ShardScheduler([0, 10], dispatch, SchedulerPolicy(max_batch=3))
        # 4 queries from source shard 0 across two target shards: the cap
        # of 3 forbids full coalescing.
        sched.schedule([(1, 1), (2, 12), (3, 2), (4, 13)])
        assert sum(n for _, n in calls) == 4
        assert all(n <= 3 for _, n in calls)

    def test_no_coalescing_keeps_per_pair_buckets(self):
        """A cap of one leaves no room to merge: every shard pair
        dispatches as its own bucket."""
        buckets = []
        dispatch = lambda chunk, bucket: (buckets.append(bucket), [0.0] * len(chunk))[1]
        sched = ShardScheduler([0, 10], dispatch, SchedulerPolicy(max_batch=1))
        sched.schedule([(1, 1), (2, 12), (12, 1), (13, 13)])
        assert sorted(buckets) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_coalescing_merges_same_source_buckets_only(self):
        buckets = []
        dispatch = lambda chunk, bucket: (buckets.append(bucket), [0.0] * len(chunk))[1]
        sched = ShardScheduler([0, 10], dispatch)
        sched.schedule([(1, 1), (2, 12), (12, 1), (13, 13)])
        # One dispatch per source shard, keyed by its first bucket.
        assert buckets == [(0, 0), (1, 0)]

    def test_dispatch_length_mismatch_rejected(self):
        sched = ShardScheduler([], lambda p, b: [0.0])
        with pytest.raises(QueryError, match="answers"):
            sched.schedule([(1, 2), (3, 4)])

    def test_bad_policy_rejected(self):
        with pytest.raises(QueryError, match="max_batch"):
            ShardScheduler([], lambda p, b: [], SchedulerPolicy(max_batch=0))


class TestDirected:
    def test_directed_scheduled_matches_oracle(self, tmp_path):
        import random

        rng = random.Random(11)
        dg = DiGraph()
        for v in range(60):
            dg.add_vertex(v)
        for _ in range(240):
            u, v = rng.sample(range(60), 2)
            dg.merge_edge(u, v, rng.randint(1, 5))
        index = DirectedISLabelIndex.build(dg)
        path = tmp_path / "d.shards"
        save_snapshot(index, path, shards=3)
        served = load_directed_index(path, engine="sharded")
        oracle = DirectedISLabelIndex.build(dg, engine="dict")
        vertices = sorted(dg.vertices())[::5]
        pairs = [(s, t) for s in vertices for t in vertices]
        expected = [oracle.distance(s, t) for s, t in pairs]
        sched = ShardScheduler.for_engine(served)
        assert len(sched.starts) >= 2
        assert sched.schedule(pairs) == expected
        degenerate = ShardScheduler.for_engine(
            served, policy=SchedulerPolicy(max_batch=1)
        )
        assert degenerate.schedule(pairs) == expected


class TestAssignShards:
    def test_contiguous_cover(self):
        slices = assign_shards(8, 3)
        assert [i for s in slices for i in s] == list(range(8))
        assert all(s == list(range(s[0], s[-1] + 1)) for s in slices if s)
        sizes = [len(s) for s in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_more_workers_than_shards(self):
        slices = assign_shards(2, 5)
        assert [i for s in slices for i in s] == [0, 1]
        assert len(slices) == 5

    def test_bad_worker_count(self):
        with pytest.raises(QueryError):
            assign_shards(4, 0)

    def test_replication_gives_every_shard_multiple_owners(self):
        slices = assign_shards(6, 3, replication=2)
        for shard in range(6):
            owners = [w for w, s in enumerate(slices) if shard in s]
            assert len(owners) == 2, (shard, slices)
        # Killing any single worker leaves every shard owned.
        for dead in range(3):
            survivors = {
                i for w, s in enumerate(slices) if w != dead for i in s
            }
            assert survivors == set(range(6))

    def test_replication_one_is_the_plain_partition(self):
        assert assign_shards(8, 3, replication=1) == assign_shards(8, 3)

    def test_full_replication_everyone_owns_everything(self):
        assert assign_shards(4, 2, replication=2) == [[0, 1, 2, 3]] * 2

    def test_bad_replication_rejected(self):
        with pytest.raises(QueryError, match="replication"):
            assign_shards(4, 2, replication=3)
        with pytest.raises(QueryError, match="replication"):
            assign_shards(4, 2, replication=0)


class TestStats:
    def test_fresh_scheduler_reports_zeros(self):
        sched = ShardScheduler([0, 10], lambda p, b: [0.0] * len(p))
        assert sched.stats() == {
            "dispatch_calls": 0,
            "queries_scheduled": 0,
            "buckets_coalesced": 0,
            "avg_batch": 0.0,
        }

    def test_counters_track_batching(self, graph, sharded_index):
        sched = ShardScheduler.for_engine(sharded_index)
        pairs = _pairs(graph)
        sched.schedule(pairs)
        stats = sched.stats()
        assert stats["queries_scheduled"] == len(pairs)
        assert stats["dispatch_calls"] == sched.dispatch_calls
        assert stats["avg_batch"] == pytest.approx(
            len(pairs) / sched.dispatch_calls
        )

    def test_coalescing_counter_increments_per_merge(self):
        sched = ShardScheduler([0, 10], lambda p, b: [0.0] * len(p))
        # Source shard 0 hits both target shards: one merge per pass.
        sched.schedule([(1, 1), (2, 12)])
        assert sched.stats()["buckets_coalesced"] == 1
        sched.schedule([(1, 1), (2, 12)])
        assert sched.stats()["buckets_coalesced"] == 2

    def test_no_coalescing_means_zero_merges(self):
        """Buckets that would overflow the cap stay apart and count no
        merge."""
        sched = ShardScheduler(
            [0, 10], lambda p, b: [0.0] * len(p), SchedulerPolicy(max_batch=1)
        )
        sched.schedule([(1, 1), (2, 12), (12, 1)])
        assert sched.stats()["buckets_coalesced"] == 0
        assert sched.stats()["dispatch_calls"] == 3
