"""Command-line interface: ``python -m repro <command>``.

Commands
--------
build           Build an IS-LABEL index from an edge-list file.
query           Answer distance (or path) queries against a saved index.
stats           Show construction statistics of a saved index.
build-directed  Build a directed (§8.2) index from a directed edge list.
query-directed  Answer directed distance/path queries against a saved index.
snapshot        Re-lay out a saved index (sharded directory, checksums).
serve           Serve a saved index over the shard wire protocol.
rebalance       Move a worker's shard slice to a freshly spawned worker:
                spawn, join (epoch bump), drain the old owner.
serve-bench     Load a saved index and measure serving throughput + RSS
                (``--remote host:port,...`` benches a shard-worker fleet
                through the scheduled remote engine instead).
dataset         Generate one of the paper's dataset stand-ins as an edge list.
loadgen         Run a named, seeded traffic scenario (``repro.loadgen``)
                against a local engine or a spawned remote fleet, and
                report p50/p90/p99/throughput (``--list`` names them).
example         Print the paper's Figure 1-3 walkthrough.

``--engine`` on the build/query/serve commands selects the compute backend
by registry name (:mod:`repro.core.engines`): the array/CSR fast engines,
the mmap/sharded snapshot-serving engines, or the dict reference.  Every
saved index is a snapshot (file or sharded directory); ``snapshot``
re-lays one out (``--shards``, ``--checksum``).

Examples
--------
python -m repro dataset google -o google.txt --scale 0.1
python -m repro build google.txt -o google.snap --with-paths
python -m repro stats google.snap
python -m repro query google.snap 3 847 --path
python -m repro snapshot google.snap -o google.shards --shards 4
python -m repro serve-bench google.shards --engine sharded --workers 4
python -m repro serve google.shards --port 7071 --owned 0,1 --strict
python -m repro serve-bench google.shards --remote 127.0.0.1:7071
python -m repro rebalance google.shards --source 127.0.0.1:7071
python -m repro build-directed roads.txt -o roads.snap
python -m repro query-directed roads.snap 3 847
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from typing import List, Optional, Tuple

from repro.core.directed import DirectedISLabelIndex
from repro.core.engines import DIRECTED, UNDIRECTED, available_engines
from repro.core.index import ISLabelIndex
from repro.core.paths import PathReconstructor
from repro.core.serialization import (
    is_directed_artifact,
    load_directed_index,
    load_dynamic_directed_index,
    load_dynamic_index,
    load_index,
    save_snapshot,
)
from repro.core.snapshot import KIND_DIRECTED, open_snapshot
from repro.envvars import read_env_bool, read_env_int
from repro.errors import ReproError
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.stats import graph_stats, human_bytes
from repro.workloads.datasets import DATASET_NAMES, load_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IS-LABEL: distance labeling for point-to-point queries",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_build = commands.add_parser("build", help="build an index from an edge list")
    p_build.add_argument("graph", help="edge-list file (u v [w] per line)")
    p_build.add_argument("-o", "--output", required=True, help="index output path")
    p_build.add_argument("--sigma", type=float, default=0.95, help="σ threshold")
    p_build.add_argument("--k", type=int, default=None, help="explicit k (overrides σ)")
    p_build.add_argument("--full", action="store_true", help="full hierarchy (§4)")
    p_build.add_argument(
        "--with-paths", action="store_true", help="enable §8.1 path reconstruction"
    )
    p_build.add_argument(
        "--engine",
        choices=available_engines(UNDIRECTED),
        default="fast",
        help="compute backend: array/CSR fast engine or the dict reference",
    )

    p_query = commands.add_parser("query", help="query a saved index")
    p_query.add_argument("index", help="index file from `repro build`")
    p_query.add_argument("source", type=int)
    p_query.add_argument("target", type=int)
    p_query.add_argument(
        "--path", action="store_true", help="print the shortest path too"
    )
    p_query.add_argument(
        "--engine",
        choices=available_engines(UNDIRECTED),
        default="fast",
        help="query backend for the loaded index",
    )

    p_dbuild = commands.add_parser(
        "build-directed", help="build a directed (§8.2) index from an edge list"
    )
    p_dbuild.add_argument("graph", help="directed edge-list file (u v [w] per arc)")
    p_dbuild.add_argument("-o", "--output", required=True, help="index output path")
    p_dbuild.add_argument("--sigma", type=float, default=0.95, help="σ threshold")
    p_dbuild.add_argument(
        "--k", type=int, default=None, help="explicit k (overrides σ)"
    )
    p_dbuild.add_argument("--full", action="store_true", help="full hierarchy")
    p_dbuild.add_argument(
        "--with-paths",
        action="store_true",
        help="enable §8.1 directed path reconstruction",
    )
    p_dbuild.add_argument(
        "--engine",
        choices=available_engines(DIRECTED),
        default="fast",
        help="compute backend: out/in array fast engine or the dict reference",
    )

    p_dquery = commands.add_parser(
        "query-directed", help="query a saved directed index"
    )
    p_dquery.add_argument("index", help="index file from `repro build-directed`")
    p_dquery.add_argument("source", type=int)
    p_dquery.add_argument("target", type=int)
    p_dquery.add_argument(
        "--path", action="store_true", help="print the shortest directed path too"
    )
    p_dquery.add_argument(
        "--engine",
        choices=available_engines(DIRECTED),
        default="fast",
        help="query backend for the loaded index",
    )

    p_snap = commands.add_parser(
        "snapshot",
        help="re-lay out a saved index (single file or sharded directory)",
    )
    p_snap.add_argument(
        "index", help="saved index (file/dir) from `repro build[-directed]`"
    )
    p_snap.add_argument("-o", "--output", required=True, help="snapshot path")
    p_snap.add_argument(
        "--shards",
        type=int,
        default=1,
        help="write this many vertex-id-range label shards (a directory) "
        "instead of one file",
    )
    p_snap.add_argument(
        "--checksum",
        action="store_true",
        help="stamp every snapshot section with a CRC32, verified lazily "
        "on first map (corruption loads as a loud error, not wrong answers)",
    )

    p_server = commands.add_parser(
        "serve",
        help="serve a saved index over the shard wire protocol "
        "(one worker of a remote fleet)",
    )
    p_server.add_argument("index", help="saved index (file/dir)")
    p_server.add_argument(
        "--engine",
        choices=available_engines(UNDIRECTED),
        default="sharded",
        help="serving backend (default: sharded)",
    )
    p_server.add_argument("--host", default="127.0.0.1")
    p_server.add_argument(
        "--port", type=int, default=0, help="0 = let the OS pick a free port"
    )
    p_server.add_argument(
        "--owned",
        default=None,
        help="comma-separated shard indices this worker owns "
        "(default: all shards)",
    )
    p_server.add_argument(
        "--strict",
        action="store_true",
        help="enforce ownership: reject buckets touching none of the "
        "owned shards with the not_owner error kind (clients treat it "
        "as a membership-staleness signal)",
    )
    p_server.add_argument(
        "--epoch",
        type=int,
        default=0,
        help="membership epoch a supervisor assigned this worker",
    )
    p_server.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="admission executor: searches allowed to run at once "
        "(default 1: engine calls serialize; higher overlaps decode/"
        "encode/socket I/O across requests; env fallback "
        "REPRO_SERVE_MAX_CONCURRENCY)",
    )
    p_server.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="admission executor: searches allowed to wait before new "
        "ones are rejected with the overloaded error kind (default 128; "
        "env fallback REPRO_SERVE_MAX_QUEUE)",
    )
    p_server.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        help="enable the server-side hot-pair cache with this entry "
        "budget (env fallbacks: REPRO_CACHE_ENTRIES for the budget, "
        "REPRO_CACHE_ENABLE=true to turn the tier on without a flag)",
    )
    p_server.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="seconds a cached answer may be served before expiring "
        "(0 = no TTL; env fallback REPRO_CACHE_TTL_S); implies the "
        "cache is enabled",
    )

    p_rebal = commands.add_parser(
        "rebalance",
        help="spawn a fresh worker for a shard slice and drain its old owner",
    )
    p_rebal.add_argument("index", help="saved index (file/dir)")
    p_rebal.add_argument(
        "--source",
        required=True,
        metavar="HOST:PORT",
        help="the worker currently owning the slice (will be drained)",
    )
    p_rebal.add_argument(
        "--owned",
        default=None,
        help="comma-separated shard indices to move (default: everything "
        "the source worker owns)",
    )
    p_rebal.add_argument(
        "--engine",
        choices=available_engines(UNDIRECTED),
        default="sharded",
        help="serving backend of the spawned worker (default: sharded)",
    )
    p_rebal.add_argument("--host", default="127.0.0.1")
    p_rebal.add_argument(
        "--port", type=int, default=0, help="0 = let the OS pick a free port"
    )
    p_rebal.add_argument(
        "--strict",
        action="store_true",
        help="spawn the new worker in strict-ownership mode",
    )
    p_rebal.add_argument(
        "--stop-source",
        action="store_true",
        help="shut the drained source worker down instead of leaving it "
        "draining (it answers not_owner until then)",
    )

    p_serve = commands.add_parser(
        "serve-bench",
        help="load a saved index and measure cold-load time, "
        "query throughput and resident memory",
    )
    p_serve.add_argument("index", help="saved index (file/dir)")
    p_serve.add_argument(
        "--engine",
        choices=available_engines(UNDIRECTED),
        default="mmap",
        help="serving backend (default: mmap)",
    )
    p_serve.add_argument(
        "--queries", type=int, default=2000, help="random query pairs to run"
    )
    p_serve.add_argument("--seed", type=int, default=7, help="query RNG seed")
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="additionally spawn N worker processes, each loading and "
        "serving its own slice (reports per-worker RSS and aggregate QPS)",
    )
    p_serve.add_argument(
        "--json", action="store_true", help="emit one JSON object (worker mode)"
    )
    p_serve.add_argument(
        "--remote",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="bench a running shard-worker fleet through the remote "
        "engine (queries are scheduled per shard pair and sent over "
        "the wire; --engine is ignored for the compute).  The snapshot "
        "is still opened locally for its coverage metadata",
    )

    p_stats = commands.add_parser("stats", help="show index statistics")
    p_stats.add_argument("index", help="index file from `repro build`")
    p_stats.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include the per-level peeling trace and label distribution",
    )

    p_dataset = commands.add_parser(
        "dataset", help="generate a dataset stand-in as an edge list"
    )
    p_dataset.add_argument("name", choices=DATASET_NAMES)
    p_dataset.add_argument("-o", "--output", required=True)
    p_dataset.add_argument("--scale", type=float, default=1.0)

    p_load = commands.add_parser(
        "loadgen",
        help="run a named, seeded traffic scenario and report percentiles",
    )
    p_load.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario name (see --list); seeded and fully replayable",
    )
    p_load.add_argument(
        "--list", action="store_true", help="list available scenarios and exit"
    )
    p_load.add_argument(
        "--engine",
        default=None,
        help="override the scenario's engine (any registry name, or "
        "'remote' to spawn a worker fleet for the run)",
    )
    p_load.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the remote fleet size (workers per tenant)",
    )
    p_load.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override duration in seconds (0 = one pass over the "
        "seeded stream; > 0 cycles it until the wall clock expires)",
    )
    p_load.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    p_load.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the JSON artifact (spec + summaries) to this path",
    )

    p_fstats = commands.add_parser(
        "fleet-stats",
        help="ask one fleet worker for its serving statistics",
    )
    p_fstats.add_argument(
        "worker", metavar="HOST:PORT", help="the worker to interrogate"
    )
    p_fstats.add_argument(
        "--timeout", type=float, default=10.0, help="wire timeout in seconds"
    )

    p_analyze = commands.add_parser(
        "analyze",
        help="run the project-invariant static analysis (lint) rules",
    )
    p_analyze.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    p_analyze.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all registered)",
    )
    p_analyze.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="findings as human-readable lines or one JSON document",
    )
    p_analyze.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )

    commands.add_parser("example", help="print the Figure 1-3 walkthrough")
    return parser


def _cmd_build(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    started = time.perf_counter()
    index = ISLabelIndex.build(
        graph,
        sigma=None if (args.k is not None or args.full) else args.sigma,
        k=args.k,
        full=args.full,
        with_paths=args.with_paths,
        engine=args.engine,
    )
    elapsed = time.perf_counter() - started
    nbytes = save_snapshot(index, args.output)
    st = index.stats
    print(
        f"built k={st.k} index over |V|={st.num_vertices}, |E|={st.num_edges} "
        f"in {elapsed:.2f}s"
    )
    print(
        f"G_k: {st.gk_vertices} vertices / {st.gk_edges} edges; "
        f"labels: {st.label_entries} entries ({human_bytes(st.label_bytes)})"
    )
    print(f"wrote {args.output} ({human_bytes(nbytes)})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index, engine=args.engine)
    if args.path:
        reconstructor = PathReconstructor(index)
        dist, path = reconstructor.shortest_path(args.source, args.target)
        if path is None:
            print(f"dist({args.source}, {args.target}) = inf (disconnected)")
        else:
            print(f"dist({args.source}, {args.target}) = {dist}")
            print(" -> ".join(str(v) for v in path))
    else:
        dist = index.distance(args.source, args.target)
        rendered = "inf" if math.isinf(dist) else str(dist)
        print(f"dist({args.source}, {args.target}) = {rendered}")
    return 0


def _cmd_build_directed(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph, directed=True)
    started = time.perf_counter()
    index = DirectedISLabelIndex.build(
        graph,
        sigma=None if (args.k is not None or args.full) else args.sigma,
        k=args.k,
        full=args.full,
        with_paths=args.with_paths,
        engine=args.engine,
    )
    elapsed = time.perf_counter() - started
    nbytes = save_snapshot(index, args.output)
    hierarchy = index.hierarchy
    print(
        f"built k={index.k} directed index over |V|={graph.num_vertices}, "
        f"|A|={graph.num_edges} in {elapsed:.2f}s"
    )
    print(
        f"G_k: {hierarchy.gk.num_vertices} vertices / "
        f"{hierarchy.gk.num_edges} arcs; "
        f"labels: {index.label_entries} out+in entries"
    )
    print(f"wrote {args.output} ({human_bytes(nbytes)})")
    return 0


def _cmd_query_directed(args: argparse.Namespace) -> int:
    index = load_directed_index(args.index, engine=args.engine)
    if args.path:
        dist, path = index.shortest_path(args.source, args.target)
        if path is None:
            print(f"dist({args.source}, {args.target}) = inf (unreachable)")
        else:
            print(f"dist({args.source}, {args.target}) = {dist}")
            print(" -> ".join(str(v) for v in path))
    else:
        dist = index.distance(args.source, args.target)
        rendered = "inf" if math.isinf(dist) else str(dist)
        print(f"dist({args.source}, {args.target}) = {rendered}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    snap = open_snapshot(args.index)
    directed = snap.kind == KIND_DIRECTED
    if "dynamic" in snap.meta:
        load = load_dynamic_directed_index if directed else load_dynamic_index
        index = load(args.index)
    elif directed:
        index = load_directed_index(args.index, engine="fast")
    else:
        index = load_index(args.index, engine="fast")
    nbytes = save_snapshot(
        index, args.output, shards=args.shards, checksum=args.checksum
    )
    kind = "directed" if directed else "undirected"
    layout = f"{args.shards} shards" if args.shards > 1 else "single file"
    if args.checksum:
        layout += ", crc32"
    print(
        f"wrote {kind} snapshot {args.output} "
        f"({human_bytes(nbytes)}, {layout})"
    )
    return 0


def _serve_bench_once(
    path: str,
    engine: str,
    queries: int,
    seed: int,
    remote: Optional[str] = None,
) -> dict:
    """Load + query one index in this process; returns the measurements.

    With ``remote`` set, the artifact is only loaded for its coverage
    metadata (query-pair generation and vertex checks); the compute is
    the registered ``"remote"`` engine, scheduling shard-pair buckets
    over the given worker fleet.
    """
    from repro.bench.harness import process_rss_kib

    directed = is_directed_artifact(path)
    started = time.perf_counter()
    if remote is not None:
        from repro.core.engines import resolve_engine

        if directed:
            index = load_directed_index(path, engine="dict")
            factory = resolve_engine(DIRECTED, "remote")
        else:
            index = load_index(path, engine="dict")
            factory = resolve_engine(UNDIRECTED, "remote")
        index._fast = factory(addresses=remote)
    elif directed:
        index = load_directed_index(path, engine=engine)
    else:
        index = load_index(path, engine=engine)
    load_seconds = time.perf_counter() - started

    rng = random.Random(seed)
    covered = sorted(index.hierarchy.level_of)
    pairs = [
        (rng.choice(covered), rng.choice(covered)) for _ in range(queries)
    ]
    started = time.perf_counter()
    index.distances(pairs)
    batch_seconds = time.perf_counter() - started
    rss, anon = process_rss_kib()
    return {
        "engine": index.engine,
        "directed": directed,
        "load_seconds": load_seconds,
        "queries": len(pairs),
        "batch_seconds": batch_seconds,
        "qps": len(pairs) / batch_seconds if batch_seconds else float("inf"),
        "rss_kib": rss,
        "private_kib": anon,
    }


def _admission_knob(flag_value: Optional[int], env: str, what: str, default: int) -> int:
    """Resolve one admission integer: flag wins, then env, then default."""
    if flag_value is not None:
        return flag_value
    try:
        parsed = read_env_int(env, what=what, minimum=1)
    except ValueError as exc:
        raise ReproError(str(exc)) from None
    return parsed if parsed is not None else default


def _serve_cache_knobs(
    args: argparse.Namespace,
) -> Tuple[Optional[int], Optional[float]]:
    """Resolve the server-side cache tier: flags > environment > off.

    The tier is on when either flag is given, or when
    ``REPRO_CACHE_ENABLE`` parses true (then the budget and TTL come
    from ``REPRO_CACHE_ENTRIES`` / ``REPRO_CACHE_TTL_S`` or their
    defaults).  All three env knobs go through the strict
    :mod:`repro.envvars` parsers, so a typo'd manifest fails loudly.
    """
    from repro.caching.engine import (
        DEFAULT_CACHE_ENTRIES,
        ENV_CACHE_ENABLE,
        cache_entries_from_env,
        cache_ttl_from_env,
    )

    try:
        enabled = read_env_bool(ENV_CACHE_ENABLE, what="cache enable flag")
        env_entries = cache_entries_from_env()
        env_ttl = cache_ttl_from_env()
    except (ValueError, ReproError) as exc:
        raise ReproError(str(exc)) from None
    entries = args.cache_entries if args.cache_entries is not None else env_entries
    ttl = args.cache_ttl if args.cache_ttl is not None else env_ttl
    if ttl == 0:
        ttl = None  # 0 means "no TTL" on the flag, like the env knob
    if args.cache_entries is None and args.cache_ttl is None and not enabled:
        return None, None
    return (entries if entries is not None else DEFAULT_CACHE_ENTRIES), ttl


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.server import ShardServer, load_serving_index

    index = load_serving_index(args.index, engine=args.engine)
    owned = None
    if args.owned:
        owned = [int(x) for x in args.owned.split(",") if x.strip()]
    cache_entries, cache_ttl = _serve_cache_knobs(args)
    server = ShardServer(
        index,
        host=args.host,
        port=args.port,
        owned=owned,
        strict=args.strict,
        epoch=args.epoch,
        max_concurrency=_admission_knob(
            args.max_concurrency,
            "REPRO_SERVE_MAX_CONCURRENCY",
            "admission concurrency",
            1,
        ),
        max_queue=_admission_knob(
            args.max_queue, "REPRO_SERVE_MAX_QUEUE", "admission queue depth", 128
        ),
        cache_entries=cache_entries,
        cache_ttl_s=cache_ttl,
    )
    server.bind()
    host, port = server.address
    # One parseable line so fleet supervisors (and the benchmark harness)
    # can learn the OS-assigned port before the accept loop blocks.
    print(
        f"SERVING {host}:{port} kind={server.kind} "
        f"shards={max(len(server.shard_starts), 1)} "
        f"owned={','.join(map(str, server.owned))} "
        f"epoch={server.epoch} strict={int(server.strict)} "
        f"concurrency={server.max_concurrency} queue={server.max_queue} "
        f"cache={server.cache.max_entries if server.cache is not None else 'off'}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _fleet_request(worker_id: str, payload: dict, timeout: float = 10.0) -> dict:
    """One wire round trip to ``host:port``-identified fleet worker."""
    import socket

    from repro.serving import wire

    host, sep, port = worker_id.rpartition(":")
    if not sep:
        raise ReproError(f"worker id {worker_id!r} is not host:port")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    try:
        return wire.request(sock, payload)
    finally:
        sock.close()


def _cmd_rebalance(args: argparse.Namespace) -> int:
    """Elastic rebalancing: spawn, hand over shards, flip epoch, drain.

    Sequence (§ Failure model in ARCHITECTURE.md):

    1. read the source worker's ownership + the fleet's membership view;
    2. spawn a fresh ``repro serve`` worker over the same snapshot with
       the moving shard slice (its own session, so it outlives this CLI);
    3. announce the join to every fleet member (epoch bump) so strict
       workers accept the new routes and clients can discover the worker;
    4. announce the source worker's leave — it drains: in-flight buckets
       complete, new non-owned buckets are answered ``not_owner``.
    """
    from repro.serving.remote import parse_addresses

    ((src_host, src_port),) = parse_addresses(args.source)
    source_id = f"{src_host}:{src_port}"
    hello = _fleet_request(source_id, {"op": "hello"})
    if "error" in hello:
        raise ReproError(f"source worker rejected hello: {hello['error']}")
    source_id = hello.get("worker") or source_id
    view = _fleet_request(source_id, {"op": "membership"})
    if "error" in view:
        raise ReproError(f"source worker has no membership: {view['error']}")
    epoch = int(view.get("epoch", hello.get("epoch", 0)))
    members = view.get("members", {})

    if args.owned:
        owned = sorted({int(x) for x in args.owned.split(",") if x.strip()})
    else:
        owned = [int(i) for i in hello.get("owned", [])]
    if not owned:
        raise ReproError(
            f"source worker {source_id} owns no shards; nothing to move"
        )

    cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        args.index,
        "--engine",
        args.engine,
        "--host",
        args.host,
        "--port",
        str(args.port),
        "--owned",
        ",".join(map(str, owned)),
        "--epoch",
        str(epoch + 1),
    ]
    if args.strict:
        cmd.append("--strict")
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,  # the worker outlives this CLI invocation
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("SERVING "):
        proc.terminate()
        raise ReproError(
            f"spawned worker failed to announce itself (got {line!r})"
        )
    new_id = line.split()[1]

    fleet = sorted(set(members) | {source_id, new_id})
    join_epoch = epoch + 1
    leave_epoch = epoch + 2
    for worker_id in fleet:
        try:
            _fleet_request(
                worker_id,
                {"op": "join", "worker": new_id, "owned": owned,
                 "epoch": join_epoch},
            )
            _fleet_request(
                worker_id,
                {"op": "leave", "worker": source_id, "epoch": leave_epoch},
            )
        except (OSError, ReproError):
            # A dead fleet member learns the new map when it refreshes;
            # rebalancing must not abort halfway through the announce.
            continue
    if args.stop_source:
        try:
            _fleet_request(source_id, {"op": "shutdown"})
        except (OSError, ReproError):
            pass
    print(
        f"REBALANCED {source_id} -> {new_id} "
        f"shards={','.join(map(str, owned))} epoch={leave_epoch} "
        f"pid={proc.pid} "
        f"source={'stopped' if args.stop_source else 'draining'}",
        flush=True,
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    row = _serve_bench_once(
        args.index, args.engine, args.queries, args.seed, remote=args.remote
    )
    if args.json:
        print(json.dumps(row))
        return 0
    private = row.get("private_kib") or row.get("rss_kib")
    rss = f"{private / 1024:.1f} MiB" if private else "n/a"
    print(
        f"engine={row['engine']} load={row['load_seconds'] * 1000:.1f}ms "
        f"batch={row['queries']} queries at {row['qps']:,.0f} qps "
        f"private-rss={rss}"
    )
    if args.workers > 0:
        # Deliberate whole-environment copy for worker subprocesses.
        env = dict(os.environ)  # repro-lint: disable=env-discipline
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve-bench",
                    args.index,
                    "--engine",
                    args.engine,
                    "--queries",
                    str(args.queries),
                    "--seed",
                    str(args.seed + i + 1),
                    "--json",
                ]
                + (["--remote", args.remote] if args.remote else []),
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            for i in range(args.workers)
        ]
        rows = []
        for proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                print(f"worker failed with exit code {proc.returncode}")
                return 1
            rows.append(json.loads(out.strip().splitlines()[-1]))
        total_qps = sum(r["qps"] for r in rows)
        rss_list = [
            r.get("private_kib") or r.get("rss_kib")
            for r in rows
            if r.get("private_kib") or r.get("rss_kib")
        ]
        rss_txt = (
            f"{sum(rss_list) / len(rss_list) / 1024:.1f} MiB avg"
            if rss_list
            else "n/a"
        )
        print(
            f"workers={args.workers} aggregate={total_qps:,.0f} qps "
            f"worker-private-rss={rss_txt}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    if getattr(args, "verbose", False):
        from repro.core.analysis import describe_index

        print(describe_index(index))
        return 0
    st = index.stats
    sigma = "-" if st.sigma is None else f"{st.sigma:.2f}"
    rows = [
        ("k", st.k),
        ("sigma", sigma),
        ("vertices", st.num_vertices),
        ("edges", st.num_edges),
        ("G_k vertices", st.gk_vertices),
        ("G_k edges", st.gk_edges),
        ("label entries", st.label_entries),
        ("label bytes", human_bytes(st.label_bytes)),
        ("avg entries/vertex", f"{st.avg_label_entries:.2f}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    graph = load_dataset(args.name, args.scale)
    write_edge_list(graph, args.output)
    st = graph_stats(graph)
    print(
        f"wrote {args.output}: |V|={st.num_vertices}, |E|={st.num_edges}, "
        f"avg deg {st.avg_degree:.2f}, max deg {st.max_degree}"
    )
    return 0


def _cmd_fleet_stats(args: argparse.Namespace) -> int:
    """One ``stats`` round trip to a fleet worker, printed as JSON.

    The operator-facing emitter of the wire ``stats`` op: serving depth,
    admission counters and cache hit rates of a live worker, without
    attaching a remote engine to the fleet.
    """
    response = _fleet_request(
        args.worker, {"op": "stats"}, timeout=args.timeout
    )
    if "error" in response:
        raise ReproError(
            f"worker {args.worker} rejected stats: {response['error']}"
        )
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import available_rules, run_analysis

    if args.list_rules:
        for rule_id, description in sorted(available_rules().items()):
            print(f"{rule_id}: {description}")
        return 0
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(available_rules()))
        if unknown:
            raise ReproError(
                f"unknown rule id(s): {', '.join(unknown)} "
                f"(repro analyze --list-rules shows the registry)"
            )
    report = run_analysis(args.paths, rules=rules)
    if args.fmt == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_example(_: argparse.Namespace) -> int:
    from repro.workloads.paper_example import render_walkthrough

    print(render_walkthrough())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import SCENARIOS, get_scenario, run_scenario, scenario_names

    if args.list:
        for name in scenario_names():
            print(f"{name:14s} {SCENARIOS[name].description}")
        return 0
    if not args.scenario:
        raise ReproError(
            "scenario name required (repro loadgen --list shows them)"
        )
    scenario = get_scenario(args.scenario)
    overrides = {}
    if args.engine is not None:
        overrides["engine"] = args.engine
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        scenario = scenario.replace(**overrides)
    result = run_scenario(scenario, artifact_path=args.output, progress=print)
    reads = result["reads"]
    reaped = result.get("workers_reaped", True)
    print(
        f"LOADGEN {scenario.name} engine={scenario.engine} "
        f"ops={result['operations']} "
        f"bit_identical={result['bit_identical']} "
        f"p50={reads['p50_ms']:.3f}ms p99={reads['p99_ms']:.3f}ms "
        f"qps={reads['throughput_qps']:,.0f} reaped={reaped}"
    )
    return 0 if result["bit_identical"] and reaped else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "query": _cmd_query,
        "build-directed": _cmd_build_directed,
        "query-directed": _cmd_query_directed,
        "snapshot": _cmd_snapshot,
        "serve": _cmd_serve,
        "rebalance": _cmd_rebalance,
        "serve-bench": _cmd_serve_bench,
        "stats": _cmd_stats,
        "dataset": _cmd_dataset,
        "loadgen": _cmd_loadgen,
        "fleet-stats": _cmd_fleet_stats,
        "analyze": _cmd_analyze,
        "example": _cmd_example,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
