"""Unit tests for the label-based bidirectional Dijkstra (Algorithm 1)."""

import math

import pytest

from repro.core.query import label_bidijkstra
from repro.graph.generators import path_graph
from repro.graph.graph import Graph


def _adj(graph):
    return lambda v: graph.neighbors(v).items()


class TestBasicSearch:
    def test_simple_meeting(self):
        g = path_graph(5)  # 0-1-2-3-4
        result = label_bidijkstra(_adj(g), _adj(g), [(0, 0)], [(4, 0)])
        assert result.distance == 4
        assert result.meet_vertex is not None

    def test_seeded_offsets(self):
        g = path_graph(3)
        # Seeds carry label distances: s is 5 away from vertex 0,
        # t is 7 away from vertex 2.
        result = label_bidijkstra(_adj(g), _adj(g), [(0, 5)], [(2, 7)])
        assert result.distance == 5 + 2 + 7

    def test_multiple_seeds_take_best(self):
        g = path_graph(10)
        result = label_bidijkstra(
            _adj(g), _adj(g), [(0, 100), (5, 1)], [(9, 0)]
        )
        assert result.distance == 1 + 4

    def test_disconnected_is_inf(self):
        g = Graph([(0, 1), (5, 6)])
        result = label_bidijkstra(_adj(g), _adj(g), [(0, 0)], [(6, 0)])
        assert math.isinf(result.distance)

    def test_initial_mu_can_win(self):
        g = path_graph(5)
        result = label_bidijkstra(
            _adj(g), _adj(g), [(0, 0)], [(4, 0)], initial_mu=2
        )
        # The label bound (2) beats any path through the graph (4).
        assert result.distance == 2
        assert result.meet_vertex is None

    def test_same_seed_both_sides(self):
        g = path_graph(3)
        result = label_bidijkstra(_adj(g), _adj(g), [(1, 3)], [(1, 4)])
        assert result.distance == 7


class TestPruning:
    def test_mu_prunes_settled_work(self):
        g = path_graph(200)
        unpruned = label_bidijkstra(_adj(g), _adj(g), [(0, 0)], [(199, 0)])
        pruned = label_bidijkstra(
            _adj(g), _adj(g), [(0, 0)], [(199, 0)], initial_mu=5
        )
        assert pruned.stats.settled_total < unpruned.stats.settled_total
        assert pruned.distance == 5

    def test_stats_are_populated(self):
        g = path_graph(20)
        result = label_bidijkstra(_adj(g), _adj(g), [(0, 0)], [(19, 0)])
        s = result.stats
        assert s.settled_forward > 0 and s.settled_reverse > 0
        assert s.relaxed_edges >= s.settled_total - 2
        assert s.heap_pushes > 0


class TestSeedMeetingRegression:
    def test_meeting_at_reverse_seed(self):
        """Regression for the stop-condition gap (docs/ARCHITECTURE.md).

        The meeting vertex is a reverse label seed the forward search
        reaches exactly when ``min_f + min_r`` crosses the stale µ; the
        published pseudocode returns 9 here, the correct answer is 8.
        """
        g = Graph(
            [
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 1),  # forward chain 0-1-2-3, reaching seed 3 at 4
                (0, 9, 3),
                (9, 8, 4),  # decoy meeting at 9/8 with larger total
            ]
        )
        result = label_bidijkstra(
            _adj(g),
            _adj(g),
            [(0, 0)],
            [(3, 4), (8, 2)],
        )
        assert result.distance == 8

    def test_parents_walk_back_to_seeds(self):
        g = path_graph(6)
        result = label_bidijkstra(
            _adj(g), _adj(g), [(0, 0)], [(5, 0)], keep_parents=True
        )
        meet = result.meet_vertex
        cursor = meet
        while result.parents_forward[cursor] is not None:
            cursor = result.parents_forward[cursor]
        assert cursor == 0
        cursor = meet
        while result.parents_reverse[cursor] is not None:
            cursor = result.parents_reverse[cursor]
        assert cursor == 5


class TestDirectedAdjacency:
    def test_asymmetric_expansion(self):
        forward = {0: [(1, 1)], 1: [(2, 1)], 2: []}
        reverse = {2: [(1, 1)], 1: [(0, 1)], 0: []}
        result = label_bidijkstra(
            lambda v: forward[v], lambda v: reverse[v], [(0, 0)], [(2, 0)]
        )
        assert result.distance == 2
