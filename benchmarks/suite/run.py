#!/usr/bin/env python3
"""Run the IS-LABEL benchmark suite.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out ARTIFACT.json]

Without ``--workload`` all four workloads run in turn.  Every end-to-end
metric prints as ``<workload> <metric> <value> <unit> (n=...)``; with
``--trace`` every per-layer metric prints instead, from one untraced and
one traced round.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Timings are
scaled to a reference host speed measured by a probe around every timed
step (``spec.REFERENCE_PROBE_S``).  Answers are checked in every run; a
wrong answer, a leaked thread or worker, or a leftover spill file makes
the exit code non-zero.

The program is imported from ``src/`` of the checkout this file sits in;
scratch files (the fleet snapshot, span dumps) go to ``.bench_work/`` at
its root.  See README.md next to this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: One workload run must end well inside the 180 s a caller allows it.
RUN_BUDGET_S = 170
#: Worker-side tracing switch read by ``_worker_trace/sitecustomize.py``.
TRACE_DIR_ENV = "ISLBENCH_TRACE_DIR"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default 10, smoke 1)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, choices=(0, 1), default=None,
        help="1: per-layer metrics from a traced round (smoke runs both)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, both modes")
    parser.add_argument("--out", help="write the JSON artifact here")
    return parser.parse_args(argv)


def summarize(values: List[float]) -> Dict[str, object]:
    """Median, quartiles (inclusive, so they stay inside the samples) and
    the samples themselves."""
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else (median,) * 3
    )
    return {"value": median, "n": len(values), "q1": q1, "q3": q3, "samples": values}


def host_probe(every_cpu: bool = False) -> float:
    """Seconds the fixed probe loop takes now (see ``spec.PROBE_LOOP``).

    The two vCPUs change speed independently.  The probe runs on the CPU
    this thread is on; with ``every_cpu`` it runs on each CPU the process
    may use, the thread pinned to it in turn, and the mean counts.
    """
    if not every_cpu:
        return _probe_loop()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def _probe_loop() -> float:
    import spec

    times = []
    for _ in range(spec.PROBE_REPEATS):
        started = perf_counter()
        total = 0
        for i in range(spec.PROBE_LOOP):
            total += i * i
        times.append(perf_counter() - started)
    return statistics.median(times)


def environment(seed: int, smoke: bool) -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
        "smoke": smoke,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import spec
    from spans import Tracer, client_targets, load_spans
    from workloads import BENCHES, Record

    workload = spec.WORKLOADS[name]
    sizes = workload.smoke if smoke else workload.full
    rounds = 2 if trace else (spec.SMOKE_ROUNDS if smoke else spec.ROUNDS)
    slice_s = seconds / (rounds * len(workload.phases))

    run_dir = WORK / f"run-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)  # spills stay inside the checkout
    worker_env = {"TMPDIR": str(tmp)}
    trace_dir = WORK / "traces" / f"{name}-seed{seed}"
    tracer = Tracer()
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        worker_env["PYTHONPATH"] = f"{HERE / '_worker_trace'}{os.pathsep}{SRC}"
        worker_env[TRACE_DIR_ENV] = str(trace_dir)
        tracer.add_targets(client_targets())
        tracer.activate()

    rec = Record()
    threads_before = set(threading.enumerate())
    bench = BENCHES[name](workload, sizes, seed, str(run_dir), worker_env)
    target = None

    def at_reference_speed(step):
        """Run ``step`` between two host probes and scale what it recorded."""
        since = rec.counts()
        before = host_probe(bench.EVERY_CPU)
        result = step()
        after = host_probe(bench.EVERY_CPU)
        rec.probes += [before, after]
        rec.rescale(since, spec.REFERENCE_PROBE_S / ((before + after) / 2))
        return result

    def timed(metric: str, step):
        started = perf_counter()
        result = step()
        rec.samples[metric].append(perf_counter() - started)
        return result

    def set_up():
        tracer.phase = "setup"
        made = at_reference_speed(lambda: timed("setup_s", bench.setup))
        tracer.phase = "prepare"
        bench.prepare(made)
        tracer.phase = "warmup"
        gc.collect()
        # In parts, each scaled by its own probes: one pass can outlast a
        # host-speed state.
        answers = []
        for part in range(spec.WARMUP_PARTS):
            answers += at_reference_speed(
                lambda: timed(
                    "warmup_part_s", lambda: bench.warmup(made, part, spec.WARMUP_PARTS)
                )
            )
        rec.samples["warmup_s"].append(sum(rec.samples.pop("warmup_part_s")))
        rec.traced_warmups += tracer.active
        tracer.phase = "check"
        bench.check_warmup(answers, rec)
        return made

    def run_phase(phase: str) -> None:
        tracer.phase = phase
        started = perf_counter()
        bench.phase(phase, target, slice_s, tracer, rec)
        tracer.mark(phase, started, perf_counter())
        tracer.phase = "check"

    try:
        for _ in range(sizes.setups):
            if target is not None:
                bench.release(target, rec)
                target = None
            target = set_up()
        for r in range(rounds):
            if trace:
                # Round 0 measures the untraced baseline of the overhead.
                tracer.activate() if r == rounds - 1 else tracer.deactivate()
            for phase in workload.phases:
                gc.collect()
                at_reference_speed(lambda: run_phase(phase))
            bench.end_round(target, rec)
        tracer.deactivate()
        bench.finish(target, rec)
    finally:
        tracer.deactivate()
        if target is not None:
            bench.release(target, rec)
    _check_leaks(threads_before, tmp, rec)
    shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": rec.mismatch_count == 0 and rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed + rec.refused,
        "mismatches": rec.mismatches,
        "probe_ms": [p * 1e3 for p in rec.probes],
        "metrics": {},
    }
    applicable = [m for m in spec.END_TO_END + spec.DIAGNOSTICS if name in m.workloads]
    for metric in applicable:
        if metric.name in rec.pooled:
            values = rec.tail_samples(metric.name)
        elif metric.name == "error_rate":
            values = [(rec.failed + rec.refused) / max(rec.attempted, 1)]
        else:
            values = rec.samples.get(metric.name)
        if not values:
            continue
        summary = summarize(values)
        if metric.name in rec.pooled:
            summary["latencies"] = len(rec.pooled[metric.name][1])
        result["metrics"][metric.name] = dict(summary, unit=metric.unit)
    if trace:
        tracer.dump(str(trace_dir / "client.jsonl"))
        worker_spans = [
            span
            for path in sorted(trace_dir.glob("worker-*.jsonl"))
            for span in load_spans(str(path))
        ]
        result["layers"] = layer_metrics(tracer, worker_spans, rec)
        result["trace_dir"] = str(trace_dir.relative_to(ROOT))
    return result


def _check_leaks(threads_before, tmp: Path, rec) -> None:
    """No thread the run started and no spill file may outlive it."""
    deadline = time.monotonic() + 10.0
    extra = []
    while time.monotonic() < deadline:
        extra = [t for t in threading.enumerate() if t not in threads_before and t.is_alive()]
        if not extra:
            break
        extra[0].join(timeout=0.2)
    for thread in extra:
        rec.mismatch(f"thread {thread.name} outlived the workload")
    for leftover in sorted(os.listdir(tmp)):
        rec.mismatch(f"spill file {leftover} outlived the workload")


def layer_metrics(tracer, worker_spans, rec) -> Dict[str, float]:
    """The per-layer numbers of ``spec.LAYERS`` from the traced round."""
    import spec
    from spans import Totals, in_window, totals

    zero = Totals(0, 0.0, 0.0, 0.0)
    phases: Dict[str, list] = {}
    for span in tracer.spans:
        phases.setdefault(span.phase, []).append(span)

    def of(phase: str) -> Dict[str, Totals]:
        return totals(phases.get(phase, []))

    single = "script" if "script" in rec.ops else "single"
    ops = rec.ops[single]
    batches = rec.ops.get("batch", 0)
    run, setup, warm = totals(tracer.spans), of("setup"), of("warmup")
    t1, tb = of(single), of("batch")
    window = [w for w in tracer.windows if w[0] == single][-1]
    worker = totals(in_window(worker_spans, window[1], window[2]))

    def per_call(t: Totals, field: str = "total_s", scale: float = 1.0) -> float:
        return getattr(t, field) / t.calls * scale if t.calls else 0.0

    def per_op(t: Totals, field: str = "self_s") -> float:
        return getattr(t, field) / ops * 1e6 if ops else 0.0

    def per_batch(t: Totals) -> float:
        return t.self_s / batches * 1e3 if batches else 0.0

    def get(table, name):
        return table.get(name, zero)

    roundtrip = per_op(get(t1, "wire.roundtrip"), "total_s")
    server_engine = per_op(get(worker, "server.engine"), "total_s")
    server_send = per_op(get(worker, "server.send"), "total_s")
    client_send = per_op(get(t1, "wire.send"), "total_s")
    main = threading.main_thread().ident
    main_self = sum(s.self_s for s in phases.get(single, []) if s.thread == main)
    dispatches = rec.facts.get("batch.dispatch_calls", 0)
    means = rec.samples["query_mean_us"]
    out = {
        "graph.gen_s": per_call(get(run, "graph.gen")),
        "hierarchy.build_s": per_call(get(run, "hierarchy.build")),
        "hierarchy.k": rec.facts["hierarchy.k"],
        "hierarchy.gk_vertices": rec.facts["hierarchy.gk_vertices"],
        "labeling.top_down_s": per_call(get(run, "labeling.top_down")),
        "labeling.entries": rec.facts["labeling.entries"],
        "engine.freeze_s": per_call(get(setup, "engine.freeze")),
        "engine.freeze_calls": get(run, "engine.freeze").calls,
        "facade.self_us": per_op(get(t1, "facade.distance")),
        "query.eq1_us": per_op(get(t1, "query.eq1")),
        "query.seeds_us": per_op(get(t1, "query.seeds")),
        "query.batch_eq1_ms": per_batch(get(tb, "query.batch_eq1")),
        "query.table_us": per_op(get(t1, "query.table")),
        "query.table_calls": get(t1, "query.table").calls + get(tb, "query.batch_table").calls,
        "query.batch_table_ms": per_batch(get(tb, "query.batch_table")),
        "warmup.table_s": (
            (get(warm, "query.table").total_s + get(warm, "query.batch_table").total_s)
            / max(rec.traced_warmups, 1)
        ),
        "query.csr_us": per_op(get(t1, "query.csr")),
        "query.csr_calls": get(t1, "query.csr").calls + get(tb, "query.csr").calls,
        "query.csr_settled": per_call(get(t1, "query.csr"), "extra"),
        "updates.insert_self_us": per_call(get(t1, "updates.insert"), "self_s", 1e6),
        "updates.delete_self_us": per_call(get(t1, "updates.delete"), "self_s", 1e6),
        "updates.invalidate_us": per_call(get(t1, "updates.invalidate"), "total_s", 1e6),
        "updates.refreeze_ms": (
            per_call(get(t1, "engine.freeze"), "total_s", 1e3) if single == "script" else 0.0
        ),
        "snapshot.save_s": per_call(get(run, "snapshot.save")),
        "fleet.spawn_s": per_call(get(run, "fleet.spawn")),
        "scheduler.self_us": per_op(get(t1, "scheduler.schedule")),
        "scheduler.dispatches": dispatches / batches if batches else 0.0,
        "scheduler.avg_batch": (
            rec.facts.get("batch.queries_scheduled", 0) / dispatches if dispatches else 0.0
        ),
        "wire.client_send_us": client_send,
        "wire.roundtrip_us": roundtrip,
        "server.engine_us": server_engine,
        "server.send_us": server_send,
        "server.rejected": rec.facts.get("server.rejected", 0),
        "server.requests": rec.facts.get("server.requests", 0),
        "remote.unaccounted_us": (
            roundtrip - server_engine - server_send - client_send if roundtrip else 0.0
        ),
        "driver.self_us": per_op(get(t1, "loop")),
        "trace.overhead_us": means[-1] - means[0],
        "trace.coverage_pct": 100.0 * main_self / rec.walls[single],
    }
    missing = {layer.name for layer in spec.LAYERS} ^ set(out)
    if missing:
        raise RuntimeError(f"layer table and computed metrics differ: {sorted(missing)}")
    return out


def print_result(name: str, result, trace: bool) -> None:
    import spec

    probes = result["probe_ms"]
    print(
        f"{name} host probe median {statistics.median(probes):.3f} ms "
        f"[{min(probes):.3f}, {max(probes):.3f}] over {len(probes)} probes; "
        f"timings scaled to {spec.REFERENCE_PROBE_S * 1e3:.3f} ms"
    )
    if trace:
        units = {layer.name: layer.unit for layer in spec.LAYERS}
        for key, value in result["layers"].items():
            print(f"{name} {key} {value:.6g} {units[key]}")
    else:
        for key, m in result["metrics"].items():
            pooled = f" from {m['latencies']} latencies" if "latencies" in m else ""
            print(
                f"{name} {key} {m['value']:.6g} {m['unit']} "
                f"(n={m['n']}{pooled}, q1={m['q1']:.6g}, q3={m['q3']:.6g})"
            )
    for line in result["mismatches"]:
        print(f"{name} MISMATCH {line}")


def contract_metrics(name: str, result, trace: bool, prefix: str) -> Dict[str, object]:
    """The metrics of the final JSON line: every end-to-end metric, or
    every per-layer metric with ``--trace 1``."""
    import spec

    if trace:
        return {
            prefix + layer.name: {"value": result["layers"][layer.name], "unit": layer.unit}
            for layer in spec.LAYERS
        }
    return {
        prefix + m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit}
        for m in spec.END_TO_END
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.envvars import ENV_VARS
    import spec

    knobs = sorted(name for name in ENV_VARS if name in os.environ)
    if knobs:
        # Each knob changes what is measured (REPRO_APSP_BUDGET_MB would
        # move road-local onto the table stage).
        print(f"run.py: refusing to run with {', '.join(knobs)} set", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    unknown = [n for n in names if n not in spec.WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    if args.trace is None and args.smoke:
        modes = [False, True]  # the smoke test covers both code paths
    else:
        modes = [bool(args.trace)]
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 10.0)

    def out_of_time(signum, frame):
        raise TimeoutError(f"workload exceeded {RUN_BUDGET_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    artifact = {
        "suite": "islabel-benchmark",
        "seconds": seconds,
        "env": environment(args.seed, args.smoke),
        "runs": [],
    }
    correct, attempted, failed, metrics = True, 0, 0, {}
    single = len(names) == 1 and len(modes) == 1
    for trace in modes:
        for name in names:
            signal.alarm(RUN_BUDGET_S)
            try:
                result = run_workload(name, args.seed, seconds, trace, args.smoke)
            finally:
                signal.alarm(0)
            print_result(name, result, trace)
            artifact["runs"].append(dict(result, workload=name, trace=trace))
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = "" if single else (f"{name}/trace/" if trace else f"{name}/")
            metrics.update(contract_metrics(name, result, trace, prefix))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=1)
            fh.write("\n")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
