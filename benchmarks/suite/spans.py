"""Spans around the public functions of each layer, recorded from outside.

The suite never edits the program: a :class:`Tracer` replaces a public
function with a wrapper at the place it is looked up (a class attribute or
a module global) for as long as tracing is active, and puts the original
back afterwards.  Each call becomes one span — name, start, end, thread,
parent and the benchmark phase it ran in — kept in memory and written as
JSON lines when the run ends.  A span's *self* time is its duration minus
the spans it directly caused in the same thread.

Fleet workers are separate processes.  ``_worker_trace/sitecustomize.py``
calls :func:`trace_worker` at interpreter start-up when the suite spawns a
traced fleet; each worker dumps its spans at exit.  Both sides read
``time.perf_counter`` (CLOCK_MONOTONIC, shared by every process on the
host), so worker spans are assigned to the client's phase windows by time.
They are aggregated per layer, not matched per request: the wire carries
no trace id.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

_MISSING = object()

#: Field order of one span record (the JSON-lines header repeats it).
FIELDS = ("id", "name", "start", "end", "thread", "parent", "phase", "self", "extra")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int  # 0 for a thread's outermost span
    phase: str
    self_s: float
    extra: Optional[float]  # a per-call count, e.g. settled vertices


class Tracer:
    """Span recorder plus the patch/unpatch of the wrapped functions."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "input"
        #: ``(phase, start, end)`` of every timed phase.
        self.windows: List[Tuple[str, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._targets: List[tuple] = []
        self._saved: List[Tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._saved)

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[list]:
        """Open a span in this thread; ``None`` (free) while inactive."""
        if not self._saved:
            return None
        stack = self._stack()
        frame = [next(self._ids), name, perf_counter(), 0.0, stack[-1][0] if stack else 0]
        stack.append(frame)
        return frame

    def end(self, frame: Optional[list], extra: Optional[float] = None) -> None:
        if frame is None:
            return
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        self.spans.append(
            Span(
                frame[0], frame[1], frame[2], end, threading.get_ident(),
                frame[4], self.phase, duration - frame[3], extra,
            )
        )

    def mark(self, phase: str, start: float, end: float) -> None:
        self.windows.append((phase, start, end))

    # -- wrapping --------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        skip: Optional[Callable] = None,
        extra: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``skip(*args)`` true bypasses the span (``freeze`` on an already
        frozen engine is a no-op the trace should not count);
        ``extra(result)`` extracts a per-call count.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(*args):
                return fn(*args, **kwargs)
            frame = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    frame,
                    extra(result) if extra is not None and result is not None else None,
                )

        return traced

    def add_targets(self, targets: Iterable[tuple]) -> None:
        """``(owner, attribute, span name[, skip[, extra]])`` entries."""
        self._targets.extend(targets)

    def activate(self) -> None:
        if self._saved:
            return
        for owner, attr, name, *opts in self._targets:
            saved = vars(owner).get(attr, _MISSING)
            self._saved.append((owner, attr, saved))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, *opts))

    def deactivate(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(list(span), separators=(",", ":")) + "\n")


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        return [Span(*json.loads(line)) for line in fh]


def client_targets() -> List[tuple]:
    """The layer boundaries the benchmark process wraps."""
    import repro
    from repro.core import fastlabels, index
    from repro.core.fastlabels import FastEngine, PackedEngineBase
    from repro.core.index import ISLabelIndex
    from repro.core.updates import DynamicISLabelIndex
    from repro.loadgen.scenario import Scenario
    from repro.serving import wire
    from repro.serving.chaos import FaultInjector
    from repro.serving.scheduler import ShardScheduler

    def settled(result) -> int:
        return result[2].settled_total

    return [
        (Scenario, "build_graph", "graph.gen"),
        (index, "build_hierarchy", "hierarchy.build"),
        (index, "fast_top_down_labels", "labeling.top_down"),
        (FastEngine, "freeze", "engine.freeze", lambda engine: engine.frozen),
        (ISLabelIndex, "distance", "facade.distance"),
        (FastEngine, "eq1", "query.eq1"),
        (FastEngine, "seeds", "query.seeds"),
        (FastEngine, "seeds_np", "query.seeds"),
        (fastlabels, "batch_eq1", "query.batch_eq1"),
        (PackedEngineBase, "search_distance", "query.table"),
        (fastlabels, "batch_table_stage", "query.batch_table"),
        (index, "csr_label_bidijkstra", "query.csr", None, settled),
        (fastlabels, "csr_label_bidijkstra", "query.csr", None, settled),
        (DynamicISLabelIndex, "insert_vertex", "updates.insert"),
        (DynamicISLabelIndex, "delete_vertex", "updates.delete"),
        (PackedEngineBase, "invalidate", "updates.invalidate"),
        (repro, "save_snapshot", "snapshot.save"),
        (FaultInjector, "spawn_fleet", "fleet.spawn"),
        (ShardScheduler, "schedule", "scheduler.schedule"),
        (wire, "send_frame", "wire.send"),
        (wire.PipelinedConnection, "request", "wire.roundtrip"),
    ]


def trace_worker(out_dir: str) -> None:
    """Wrap a ``repro serve`` worker's engine stage and sends; dump at exit."""
    from repro.core.index import ISLabelIndex
    from repro.serving import wire

    tracer = Tracer()
    tracer.phase = "worker"
    tracer.add_targets(
        [
            (ISLabelIndex, "distances", "server.engine"),
            (wire, "send_frame", "server.send"),
        ]
    )
    tracer.activate()
    atexit.register(tracer.dump, os.path.join(out_dir, f"worker-{os.getpid()}.jsonl"))


class Totals(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    extra: float


def totals(spans: Iterable[Span]) -> Dict[str, Totals]:
    """Per span name: calls, summed duration, summed self time, summed extra."""
    acc: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for span in spans:
        row = acc[span.name]
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += span.self_s
        row[3] += span.extra or 0.0
    return {name: Totals(*row) for name, row in acc.items()}


def in_window(spans: Iterable[Span], start: float, end: float) -> List[Span]:
    """Spans that started inside ``[start, end]`` (worker spans by time)."""
    return [s for s in spans if start <= s.start <= end]
