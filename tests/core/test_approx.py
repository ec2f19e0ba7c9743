"""Unit tests for the landmark-based approximate mode (§3.2 remark)."""

import math

import pytest

from repro.baselines.dijkstra import dijkstra, dijkstra_distance
from repro.core.approx import ApproximateDistanceOracle
from repro.core.index import ISLabelIndex
from repro.errors import IndexBuildError, QueryError
from repro.graph.generators import ensure_connected, erdos_renyi
from repro.graph.graph import Graph
from repro.workloads.datasets import load_dataset

from tests.conftest import random_pairs


@pytest.fixture(scope="module")
def graph():
    return ensure_connected(erdos_renyi(160, 400, seed=121, max_weight=5), seed=121)


@pytest.fixture(scope="module")
def oracle(graph):
    return ApproximateDistanceOracle(ISLabelIndex.build(graph), num_landmarks=12)


class TestUpperBoundProperty:
    def test_never_underestimates(self, graph, oracle):
        for s, t in random_pairs(graph, 200, seed=1):
            estimate = oracle.distance_upper_bound(s, t)
            assert estimate >= dijkstra_distance(graph, s, t)

    def test_self_distance(self, oracle):
        assert oracle.distance_upper_bound(5, 5) == 0

    def test_disconnected_stays_inf(self):
        g = Graph([(0, 1), (5, 6)])
        oracle = ApproximateDistanceOracle(ISLabelIndex.build(g), num_landmarks=2)
        assert math.isinf(oracle.distance_upper_bound(0, 6))

    def test_unknown_vertex_raises(self, oracle):
        with pytest.raises(QueryError):
            oracle.distance_upper_bound(0, 10**9)


class TestMultiVertexGk:
    """On a real ``G_k`` the bound must come from the landmarks, not from
    label intersections alone: a tier built only on Eq. 1 over truncated
    labels answers ``inf`` for most connected pairs there."""

    def test_finite_upper_bound_for_every_connected_pair(self):
        graph = load_dataset("skitter", 0.3)
        index = ISLabelIndex.build(graph)
        assert index.gk.num_vertices > 1
        oracle = ApproximateDistanceOracle(index)
        vertices = sorted(graph.vertices())
        checked = 0
        for source in vertices[:: len(vertices) // 4][:4]:
            for target, exact in dijkstra(graph, source).items():
                estimate = oracle.distance_upper_bound(source, target)
                assert not math.isinf(estimate), (source, target)
                assert estimate >= exact, (source, target)
                checked += 1
        assert checked > 4 * 0.9 * len(vertices)


class TestQuality:
    def test_mostly_accurate_with_hub_landmarks(self, graph, oracle):
        errors = [
            oracle.relative_error(s, t) for s, t in random_pairs(graph, 150, seed=2)
        ]
        assert sum(1 for e in errors if e == 0.0) >= 0.5 * len(errors)
        assert sum(errors) / len(errors) < 0.35

    def test_more_landmarks_never_hurt(self, graph):
        index = ISLabelIndex.build(graph)
        small = ApproximateDistanceOracle(index, num_landmarks=2)
        large = ApproximateDistanceOracle(index, num_landmarks=24)
        for s, t in random_pairs(graph, 80, seed=3):
            assert large.distance_upper_bound(s, t) <= small.distance_upper_bound(
                s, t
            )

    def test_landmark_pair_is_exact_through_landmark(self, graph, oracle):
        # Queries whose shortest path passes a landmark are exact; at a
        # minimum, landmark-to-landmark gateway distances are covered.
        l = oracle.landmarks[0]
        for t in oracle.landmarks[1:4]:
            estimate = oracle.distance_upper_bound(l, t)
            # Exact when l and t connect within G_k.
            if not math.isinf(estimate):
                assert estimate >= dijkstra_distance(graph, l, t)


class TestConfiguration:
    def test_explicit_landmarks(self, graph):
        index = ISLabelIndex.build(graph)
        gk = sorted(index.gk.vertices())[:3]
        oracle = ApproximateDistanceOracle(index, landmarks=gk)
        assert oracle.landmarks == gk

    def test_landmark_outside_gk_rejected(self, graph):
        index = ISLabelIndex.build(graph)
        below = next(
            v for v in graph.vertices() if not index.hierarchy.in_gk(v)
        )
        with pytest.raises(IndexBuildError):
            ApproximateDistanceOracle(index, landmarks=[below])

    def test_zero_landmarks_rejected(self, graph):
        with pytest.raises(IndexBuildError):
            ApproximateDistanceOracle(ISLabelIndex.build(graph), num_landmarks=0)

    def test_preprocessing_entries_counted(self, oracle):
        assert oracle.preprocessing_entries > 0


class TestBatchAndReachability:
    def test_index_batch_distances(self, graph):
        index = ISLabelIndex.build(graph)
        pairs = random_pairs(graph, 30, seed=4)
        batch = index.distances(pairs)
        assert batch == [index.distance(s, t) for s, t in pairs]

    def test_index_reachable(self):
        g = Graph([(0, 1), (5, 6)])
        index = ISLabelIndex.build(g)
        assert index.reachable(0, 1)
        assert not index.reachable(0, 5)
