"""Integration tests: full pipelines over the dataset stand-ins."""

import math

import pytest

from repro.baselines.dijkstra import bidirectional_dijkstra, dijkstra_distance
from repro.baselines.pruned_landmark import PrunedLandmarkIndex
from repro.baselines.vc_index import VCIndex
from repro.core.index import ISLabelIndex
from repro.core.paths import PathReconstructor, path_length
from repro.core.serialization import load_index, save_snapshot
from repro.workloads.datasets import DATASET_NAMES, load_dataset
from repro.workloads.queries import random_query_pairs

SCALE = 0.06
QUERIES = 40


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_all_systems_agree_on_every_dataset(name):
    """IS-LABEL (both storages), VC-Index, PLL and both Dijkstras agree."""
    graph = load_dataset(name, SCALE)
    pairs = random_query_pairs(graph, QUERIES, seed=5)
    disk = ISLabelIndex.build(graph, storage="disk")
    mem = ISLabelIndex.build(graph, storage="memory")
    vc = VCIndex.build(graph)
    pll = PrunedLandmarkIndex.build(graph)
    for s, t in pairs:
        truth = dijkstra_distance(graph, s, t)
        assert disk.distance(s, t) == truth
        assert mem.distance(s, t) == truth
        assert vc.distance(s, t) == truth
        assert pll.distance(s, t) == truth
        assert bidirectional_dijkstra(graph, s, t) == truth


@pytest.mark.parametrize("name", ("google", "wikitalk"))
def test_build_query_save_load_cycle(name, tmp_path):
    graph = load_dataset(name, SCALE)
    index = ISLabelIndex.build(graph, with_paths=True)
    file_path = tmp_path / f"{name}.snap"
    save_snapshot(index, file_path)
    loaded = load_index(file_path)

    reconstructor = PathReconstructor(loaded)
    for s, t in random_query_pairs(graph, 25, seed=7):
        truth = dijkstra_distance(graph, s, t)
        assert loaded.distance(s, t) == truth
        dist, path = reconstructor.shortest_path(s, t)
        assert dist == truth
        if path is not None:
            assert path_length(graph, path) == truth


@pytest.mark.parametrize("name", ("google", "skitter"))
def test_sigma_sweep_consistency(name):
    """Different σ values give different indexes, identical answers."""
    graph = load_dataset(name, SCALE)
    pairs = random_query_pairs(graph, 25, seed=9)
    indexes = [ISLabelIndex.build(graph, sigma=s) for s in (0.99, 0.95, 0.90, 0.5)]
    for s, t in pairs:
        answers = {ix.distance(s, t) for ix in indexes}
        assert len(answers) == 1


def test_k_sweep_consistency():
    graph = load_dataset("google", SCALE)
    auto = ISLabelIndex.build(graph)
    pairs = random_query_pairs(graph, 25, seed=11)
    for k in range(2, auto.k + 2):
        index = ISLabelIndex.build(graph, k=k)
        for s, t in pairs:
            assert index.distance(s, t) == auto.distance(s, t)


def test_query_report_totals_consistent():
    graph = load_dataset("wikitalk", SCALE)
    index = ISLabelIndex.build(graph, storage="disk")
    summary_ios = 0
    for s, t in random_query_pairs(graph, 30, seed=13):
        report = index.query(s, t)
        summary_ios += report.label_ios
        assert report.distance >= 0 or math.isinf(report.distance)
    assert index.io_stats.block_reads == summary_ios
