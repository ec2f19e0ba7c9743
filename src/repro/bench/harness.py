"""Experiment driver shared by all benchmarks.

Builds indexes per dataset (cached per process — several tables reuse the
σ = 0.95 build), runs query workloads, and aggregates the per-query cost
split (Time (a) = simulated label I/O at the paper's 10 ms/IO benchmark;
Time (b) = measured search CPU) exactly as Tables 4, 5 and 8 report it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.dijkstra import bidirectional_dijkstra
from repro.baselines.vc_index import VCIndex
from repro.core.index import ISLabelIndex
from repro.graph.graph import Graph
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import random_query_pairs

__all__ = [
    "WorkloadSummary",
    "built_index",
    "built_vc_index",
    "run_query_workload",
    "time_im_dij",
    "process_rss_kib",
    "DEFAULT_QUERY_COUNT",
]

DEFAULT_QUERY_COUNT = 1000


def process_rss_kib() -> Tuple[Optional[int], Optional[int]]:
    """``(VmRSS, RssAnon)`` of this process in KiB (Linux), else Nones.

    The measurement behind ``repro serve-bench``.  ``RssAnon`` is the honest
    per-worker cost of a served index: mmap-backed label pages are
    file-backed and shared through the page cache, so they inflate
    ``VmRSS`` without costing extra memory, while a stream-loaded index
    is all private anonymous heap.
    """
    vm = anon = None
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    vm = int(line.split()[1])
                elif line.startswith("RssAnon:"):
                    anon = int(line.split()[1])
    except OSError:
        pass
    return vm, anon


@dataclass(frozen=True)
class WorkloadSummary:
    """Aggregate of one query workload (all times in milliseconds)."""

    queries: int
    avg_total_ms: float
    avg_time_a_ms: float
    avg_time_b_ms: float
    avg_label_ios: float
    type_counts: Tuple[int, int, int]

    @staticmethod
    def aggregate(results) -> "WorkloadSummary":
        n = len(results)
        type_counts = [0, 0, 0]
        for r in results:
            type_counts[r.query_type - 1] += 1
        return WorkloadSummary(
            queries=n,
            avg_total_ms=1000.0 * sum(r.total_time_s for r in results) / n,
            avg_time_a_ms=1000.0 * sum(r.time_label_s for r in results) / n,
            avg_time_b_ms=1000.0 * sum(r.time_search_s for r in results) / n,
            avg_label_ios=sum(r.label_ios for r in results) / n,
            type_counts=tuple(type_counts),
        )


@lru_cache(maxsize=64)
def built_index(
    dataset: str,
    sigma: Optional[float] = 0.95,
    k: Optional[int] = None,
    storage: str = "disk",
    scale: float = 1.0,
    engine: str = "fast",
) -> ISLabelIndex:
    """Build (once per process) an IS-LABEL index for a dataset stand-in."""
    graph = load_dataset(dataset, scale)
    return ISLabelIndex.build(graph, sigma=sigma, k=k, storage=storage, engine=engine)


@lru_cache(maxsize=16)
def built_vc_index(dataset: str, sigma: float = 0.95, scale: float = 1.0) -> VCIndex:
    """Build (once per process) the VC-Index comparator."""
    return VCIndex.build(load_dataset(dataset, scale), sigma=sigma)


def run_query_workload(
    index: ISLabelIndex,
    pairs: Sequence[Tuple[int, int]],
) -> WorkloadSummary:
    """Run all query pairs through :meth:`ISLabelIndex.query` and aggregate."""
    results = [index.query(s, t) for s, t in pairs]
    return WorkloadSummary.aggregate(results)


def time_im_dij(graph: Graph, pairs: Sequence[Tuple[int, int]]) -> float:
    """Average IM-DIJ (bidirectional Dijkstra) query time in ms."""
    started = time.perf_counter()
    for s, t in pairs:
        bidirectional_dijkstra(graph, s, t)
    return 1000.0 * (time.perf_counter() - started) / len(pairs)
