"""What the IS-LABEL benchmark suite measures: workloads, sizes, metrics, layers.

Every performance claim names one end-to-end metric and one workload from
this module.  ``BENCHMARK.json`` at the repository root repeats the gated
end-to-end metrics and the per-layer names for tools that read the
benchmark from outside; the suite itself (``run.py``, ``compare.py``)
reads the definitions and bounds below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Timed rounds per run.  Each phase runs once per round and a metric is
#: the median over the rounds (a tail percentile over groups of rounds
#: that each hold ten samples beyond it).  Short phases are each scaled by their own
#: host-speed probes (below), so many short rounds beat a few long ones.
ROUNDS = 20
#: The smoke mode keeps the code path and shrinks the repetitions.
SMOKE_ROUNDS = 2

#: Host-speed probe.  The 2-core host switches between two CPU speeds
#: about 1.4x apart, in states lasting from a fraction of a second to
#: minutes, so a whole run can fall in either.  A fixed pure-Python loop
#: of PROBE_LOOP iterations is timed PROBE_REPEATS times (the median
#: counts) right before and right after every set-up, every timed phase
#: and every warm-up part, on the run's CPU or, for a workload with worker
#: processes, on each CPU in turn (the mean counts, see
#: ``workloads.StreamBench.EVERY_CPU``).  Each timing recorded in between
#: is scaled by ``REFERENCE_PROBE_S / mean(before, after)``, times
#: multiplied and rates divided.  Timings therefore read as on a host where
#: the probe takes REFERENCE_PROBE_S: the faster state of the 2.1 GHz
#: Xeon VM the baseline was measured on.  The program never runs the probe's code, so
#: a change to the program moves the scaled timings as it moves the raw
#: ones; the artifact keeps every probe.
PROBE_LOOP = 20_000
PROBE_REPEATS = 5
REFERENCE_PROBE_S = 1.2e-3
#: The warm-up pass is timed in this many consecutive parts, each between
#: its own probes; ``warmup_s`` is the sum of the scaled parts.
WARMUP_PARTS = 8

#: Shards in the fleet snapshot and ``repro serve`` workers serving them.
FLEET_SHARDS = 4
FLEET_WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload (a full and a smoke variant exist)."""

    dataset: str  # a ``repro.loadgen.Scenario`` dataset spec
    scale: float
    stream: int  # pairs in the seeded read stream
    batch: int  # pairs per ``distances()`` call
    rate_qps: float = 0.0  # open-loop offered rate (web-fleet)
    write_fraction: float = 0.0  # share of script ops that write (google-churn)
    dict_sample: int = 1000  # stream pairs checked against the dict engine
    dijkstra_sample: int = 20  # stream pairs checked against bi-Dijkstra
    #: Set-ups per run; ``setup_s`` and ``warmup_s`` are their medians.
    setups: int = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    phases: Tuple[str, ...]
    full: Sizes
    smoke: Sizes


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "web-local",
            "Table stage, Eq. 1 and the facade do the work and CSR search "
            "does none; the largest build, so it carries setup_s.",
            ("single", "batch"),
            Sizes("web", 2.0, 20_000, 256),
            Sizes("web", 0.25, 400, 32, dict_sample=100, dijkstra_sample=5, setups=2),
        ),
        Workload(
            "road-local",
            "Search-stage twin of web-local: G_k is above the 2,048 table "
            "ceiling, so CSR bi-Dijkstra does ~99% of the work and the "
            "table stage none.",
            ("single", "batch"),
            Sizes("grid:80x80", 1.0, 1_000, 32),
            # Smaller grids fall under the table ceiling; keep the CSR path.
            Sizes("grid:80x80", 1.0, 40, 8, dict_sample=40, dijkstra_sample=5, setups=2),
        ),
        Workload(
            "web-fleet",
            "Scheduler, wire, server and thread hops do most of the work; "
            "same graph as web-local, so the remote/local gap is a direct "
            "ratio.",
            ("single", "batch", "open"),
            Sizes("web", 2.0, 20_000, 64, rate_qps=800.0),
            Sizes("web", 0.25, 400, 16, rate_qps=200.0, setups=2),
        ),
        Workload(
            "google-churn",
            "Section 8.3 writes beside reads drive pack, freeze and table "
            "code another way: a read gain that costs updates (an eager "
            "table, say) shows here.",
            ("script", "batch"),
            # 3% writes: at 5% about half the reads refill table rows after
            # a refreeze, which leaves the median on the edge of two modes.
            # A set-up with warm-up takes ~0.2 s, so it repeats more.
            Sizes("google", 1.0, 12_000, 64, write_fraction=0.03, setups=9),
            Sizes(
                "google", 0.1, 2_000, 16, write_fraction=0.1, dict_sample=100, setups=2
            ),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # share of the baseline median it may worsen by
    workloads: Tuple[str, ...]
    definition: str


ALL = tuple(WORKLOADS)

#: Gated metrics every workload reports; ``BENCHMARK.json`` lists these.
#: Timing bounds are the 25% maximum: even with host-speed scaling, the
#: ten-seed spread of some timings reaches 0.1-0.2 of the median
#: (README.md).
END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", 0.25, ALL,
        "in-memory graph to first answer: build plus first freeze; for "
        "web-fleet also snapshot save, worker spawn and handshake "
        "(median of the run's set-ups)",
    ),
    Metric(
        "warmup_s", "s", "lower", 0.25, ALL,
        "one batched pass of the workload's pair stream right after set-up: "
        "lazy G_k table rows, first touch of the snapshot pages (median of "
        "the run's set-ups)",
    ),
    Metric(
        "query_p50_us", "us", "lower", 0.25, ALL,
        "closed-loop single-query latency, median of the rounds' medians; "
        "reads under writes for google-churn",
    ),
    Metric(
        "query_p99_us", "us", "lower", 0.25, ALL,
        "closed-loop single-query latency, 99th percentile: consecutive rounds "
        "are grouped until each group holds 1,000 latencies, and the value is "
        "the median of the groups' 99th percentiles; reads under writes for "
        "google-churn",
    ),
    Metric(
        "query_qps", "1/s", "higher", 0.25, ALL,
        "closed-loop single-client operations per second; for google-churn "
        "the script's reads and writes together",
    ),
    Metric(
        "batch_qps", "pairs/s", "higher", 0.25, ALL,
        "pairs per second through batched distances() calls (web-fleet: on "
        "the client that carries only batches)",
    ),
    Metric(
        "index_mb", "MB", "lower", 0.01, ALL,
        "index._fast.nbytes() of the built index after the run (for "
        "web-fleet, the index the snapshot was saved from)",
    ),
)

#: Metrics only some workloads have.  They are printed, stored in the
#: artifact and compared by compare.py, but not listed in BENCHMARK.json,
#: whose metrics every workload must report.
DIAGNOSTICS: Tuple[Metric, ...] = (
    Metric(
        "open_p50_us", "us", "lower", 0.25, ("web-fleet",),
        "open-loop latency at the offered rate, timed from each request's "
        "due time, median",
    ),
    Metric(
        "open_p99_us", "us", "lower", 0.25, ("web-fleet",),
        "open-loop latency at the offered rate, 99th percentile",
    ),
    Metric(
        "open_lag_p99_us", "us", "lower", 0.25, ("web-fleet",),
        "how late the open-loop generator sent, 99th percentile",
    ),
    Metric(
        "batch_after_singles_ms", "ms", "lower", 0.25, ("web-fleet",),
        "median latency of the first batches sent on the connections the "
        "single phase used; ~40 ms when pipelined responses wait out a "
        "delayed ACK, which happens in some rounds and not others",
    ),
    Metric(
        "snapshot_mb", "MB", "lower", 0.01, ("web-fleet",),
        "on-disk bytes of the fleet's sharded snapshot",
    ),
    Metric(
        "update_p50_us", "us", "lower", 0.25, ("google-churn",),
        "section 8.3 insert_vertex/delete_vertex latency, median",
    ),
    Metric(
        "update_p90_us", "us", "lower", 0.25, ("google-churn",),
        "section 8.3 insert_vertex/delete_vertex latency, 90th percentile",
    ),
    Metric(
        "error_rate", "fraction", "lower", 0.0, ALL,
        "failed or refused operations over attempted ones (any increase "
        "is a regression)",
    ),
)

@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    module: str
    source: str  # the wrapped function or counter the number comes from
    moves: str  # the end-to-end metric and workload it should move


#: Per-layer metrics of a ``--trace`` run.  Times ending in ``_us`` are
#: self time per operation of the timed single-query phase (the script
#: phase on google-churn); ``_ms`` are per batch call or per refreeze;
#: ``_s`` are per call.  A layer a workload never reaches reads 0.
LAYERS: Tuple[Layer, ...] = (
    Layer("graph.gen_s", "s", "lower", "graph", "Scenario.build_graph",
          "none: inputs are excluded from setup_s"),
    Layer("hierarchy.build_s", "s", "lower", "core.hierarchy",
          "index.build_hierarchy", "setup_s @ web-local"),
    Layer("hierarchy.k", "count", "lower", "core.hierarchy",
          "index.k of the built index", "setup_s @ web-local"),
    Layer("hierarchy.gk_vertices", "count", "lower", "core.hierarchy",
          "|V(G_k)| of the built index", "setup_s @ web-local"),
    Layer("labeling.top_down_s", "s", "lower", "core.fastlabels",
          "index.fast_top_down_labels", "setup_s, index_mb @ web-local"),
    Layer("labeling.entries", "count", "lower", "core.fastlabels",
          "label entries of the built index", "setup_s, index_mb @ web-local"),
    Layer("engine.freeze_s", "s", "lower", "core.fastlabels",
          "FastEngine.freeze during set-up", "setup_s @ web-local"),
    Layer("engine.freeze_calls", "count", "lower", "core.fastlabels",
          "FastEngine.freeze calls that did work, whole traced run",
          "query_p99_us, query_qps @ google-churn"),
    Layer("facade.self_us", "us", "lower", "core.index",
          "ISLabelIndex.distance minus its children", "query_p50_us @ web-local"),
    Layer("query.eq1_us", "us", "lower", "core.fastlabels",
          "FastEngine.eq1", "query_p50_us @ web-local"),
    Layer("query.seeds_us", "us", "lower", "core.fastlabels",
          "FastEngine.seeds / seeds_np", "query_p50_us @ web-local"),
    Layer("query.batch_eq1_ms", "ms", "lower", "core.fastlabels",
          "fastlabels.batch_eq1, per batch call", "batch_qps @ web-local"),
    Layer("query.table_us", "us", "lower", "core.fastlabels",
          "PackedEngineBase.search_distance", "query_p50_us @ web-local"),
    Layer("query.table_calls", "count", "lower", "core.fastlabels",
          "search_distance + batch_table_stage calls in timed phases",
          "0 on road-local"),
    Layer("query.batch_table_ms", "ms", "lower", "core.fastlabels",
          "fastlabels.batch_table_stage, per batch call", "batch_qps @ web-local"),
    Layer("warmup.table_s", "s", "lower", "core.fastlabels",
          "table-stage spans during one warm-up pass", "warmup_s @ web-local"),
    Layer("query.csr_us", "us", "lower", "core.query",
          "csr_label_bidijkstra (index and fastlabels namespaces)",
          "query_p50_us, query_p99_us, batch_qps @ road-local"),
    Layer("query.csr_calls", "count", "lower", "core.query",
          "csr_label_bidijkstra calls in timed phases", "0 on web-local"),
    Layer("query.csr_settled", "count", "lower", "core.query",
          "SearchStats.settled_total per csr_label_bidijkstra call",
          "query_p50_us @ road-local"),
    Layer("updates.insert_self_us", "us", "lower", "core.updates",
          "DynamicISLabelIndex.insert_vertex minus its children, per call",
          "update_p50_us, query_qps @ google-churn"),
    Layer("updates.delete_self_us", "us", "lower", "core.updates",
          "DynamicISLabelIndex.delete_vertex minus its children, per call",
          "update_p50_us, query_qps @ google-churn"),
    Layer("updates.invalidate_us", "us", "lower", "core.fastlabels",
          "PackedEngineBase.invalidate, per call",
          "update_p90_us, query_qps @ google-churn"),
    Layer("updates.refreeze_ms", "ms", "lower", "core.fastlabels",
          "FastEngine.freeze reached from reads in the script phase, per call",
          "query_p99_us, query_qps @ google-churn"),
    Layer("snapshot.save_s", "s", "lower", "core.snapshot",
          "repro.save_snapshot, per call", "setup_s @ web-fleet"),
    Layer("fleet.spawn_s", "s", "lower", "serving.chaos",
          "FaultInjector.spawn_fleet, per call", "setup_s @ web-fleet"),
    Layer("scheduler.self_us", "us", "lower", "serving.scheduler",
          "ShardScheduler.schedule minus its round trips",
          "query_p50_us @ web-fleet"),
    Layer("scheduler.dispatches", "count", "lower", "serving.scheduler",
          "ShardScheduler.stats() dispatch_calls per batch call",
          "batch_qps @ web-fleet"),
    Layer("scheduler.avg_batch", "count", "higher", "serving.scheduler",
          "ShardScheduler.stats() avg_batch in the batch phase",
          "batch_qps @ web-fleet"),
    Layer("wire.client_send_us", "us", "lower", "serving.wire",
          "client send_frame (writer thread)",
          "query_p50_us, batch_qps @ web-fleet"),
    Layer("wire.roundtrip_us", "us", "lower", "serving.wire",
          "PipelinedConnection.request", "query_p50_us @ web-fleet"),
    Layer("server.engine_us", "us", "lower", "serving.server",
          "worker ISLabelIndex.distances", "query_p50_us @ web-fleet"),
    Layer("server.send_us", "us", "lower", "serving.server",
          "worker send_frame", "query_p50_us @ web-fleet"),
    Layer("server.rejected", "count", "lower", "serving.server",
          "stats wire op: depth.rejected, summed over workers",
          "error_rate @ web-fleet"),
    Layer("server.requests", "count", "lower", "serving.server",
          "stats wire op: requests_served, summed over workers",
          "query_p50_us @ web-fleet"),
    Layer("remote.unaccounted_us", "us", "lower", "derived",
          "round trip - server engine - server send - client send",
          "query_p50_us @ web-fleet"),
    Layer("driver.self_us", "us", "lower", "derived",
          "the benchmark's own loop: loop span minus its children",
          "none"),
    Layer("trace.overhead_us", "us", "lower", "derived",
          "traced minus untraced mean single-query latency", "none"),
    Layer("trace.coverage_pct", "%", "higher", "derived",
          "self time of every main-thread span over the phase's wall time",
          "none: must stay within 90-110"),
)


def benchmark_json() -> dict:
    """The repository's ``BENCHMARK.json``, derived from this module."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": 10,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in LAYERS
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=2))
