"""Scheduler/remote property tests: scheduled answers == dict oracle.

The shard-aware scheduler must never change answers, only their
batching: for arbitrary random (possibly disconnected) graphs in both
orientations, bucketed/coalesced/degenerate scheduling over the sharded
engine — and the remote engine over a localhost shard server — must be
bit-identical to per-query ``distance()`` on the dict reference.
"""

import math
import random

import pytest
from hypothesis import given, settings

from repro.core.directed import DirectedISLabelIndex
from repro.core.index import ISLabelIndex
from repro.serving.remote import RemoteEngine
from repro.serving.scheduler import SchedulerPolicy, ShardScheduler
from repro.serving.server import ShardServer
from tests.properties.strategies import digraphs, graphs

#: The degenerate and adversarial policies every example is checked under.
POLICIES = (
    None,  # default: coalesced shard-pair buckets
    SchedulerPolicy(max_batch=1),  # per-query dispatch
    SchedulerPolicy(max_batch=3),  # tiny buckets, chunked and capped merges
)


def _all_pairs(graph):
    vertices = sorted(graph.vertices())
    return [(s, t) for s in vertices for t in vertices]


@settings(max_examples=25, deadline=None)
@given(graphs())
def test_scheduled_matches_dict_oracle_undirected(g):
    oracle = ISLabelIndex.build(g, engine="dict")
    served = ISLabelIndex.build(g, engine="sharded")  # spill-and-adopt shards
    pairs = _all_pairs(g)
    expected = [oracle.distance(s, t) for s, t in pairs]
    for policy in POLICIES:
        scheduler = ShardScheduler.for_engine(served, policy=policy)
        assert scheduler.schedule(pairs) == expected


@settings(max_examples=15, deadline=None)
@given(digraphs())
def test_scheduled_matches_dict_oracle_directed(dg):
    oracle = DirectedISLabelIndex.build(dg, engine="dict")
    served = DirectedISLabelIndex.build(dg, engine="sharded")
    pairs = _all_pairs(dg)
    expected = [oracle.distance(s, t) for s, t in pairs]
    for policy in POLICIES:
        scheduler = ShardScheduler.for_engine(served, policy=policy)
        assert scheduler.schedule(pairs) == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_remote_roundtrip_matches_dict_oracle(seed, tmp_path):
    """Localhost server roundtrip: remote == dict, incl. disconnected."""
    from repro.core.serialization import load_index, save_snapshot
    from repro.serving.server import load_serving_index

    rng = random.Random(seed)
    from repro.graph.graph import Graph

    g = Graph()
    n = rng.randint(12, 40)
    for v in range(n):
        g.add_vertex(v)
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        g.merge_edge(u, v, rng.randint(1, 9))
    oracle = ISLabelIndex.build(g, engine="dict")
    path = tmp_path / f"g{seed}.shards"
    save_snapshot(oracle, path, shards=3)
    pairs = _all_pairs(g)
    expected = [oracle.distance(s, t) for s, t in pairs]
    with ShardServer(load_serving_index(str(path))) as server:
        host, port = server.address
        with RemoteEngine(addresses=[(host, port)]) as engine:
            assert engine.distances(pairs) == expected
            degenerate = RemoteEngine(
                addresses=[(host, port)], policy=SchedulerPolicy(max_batch=1)
            )
            sample = pairs[:: max(len(pairs) // 25, 1)]
            want = [expected[pairs.index(p)] for p in sample]
            assert degenerate.distances(sample) == want
            degenerate.close()
    if any(math.isinf(d) for d in expected):
        assert True  # disconnected pairs exercised over the wire
