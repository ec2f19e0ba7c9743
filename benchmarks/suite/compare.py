#!/usr/bin/env python3
"""Compare benchmark artifacts of two versions, metric by metric.

    python3 benchmarks/suite/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

A is the baseline, B the change; each artifact comes from
``run.py --out``, and every artifact must have the same ``seconds`` and
smoke setting.  With one artifact per side the rounds inside it are the
samples; with several, each artifact's value is one sample, and the i-th
artifacts of the two sides form a pair (run them alternately).  One row
per (workload, metric) shows both medians with quartiles, the change,
the metric's bound and a verdict:

* ``worse``: the median got worse by more than the bound, or a side's
  quartile spread exceeds the bound and every B sample loses to every A
  sample;
* ``better``: each side has at least ten artifacts, B wins nine tenths
  of the pairs, and the medians differ by more than A's quartile spread;
  with a spread above the bound, every B artifact must beat every A one;
* ``unresolved``: a side's quartile spread exceeds the bound, or the
  median moved by more than the bound in the better direction without
  meeting the rule for ``better``;
* ``unchanged``: none of these.

With fewer than ten artifacts a side no row can read ``better``: rounds
of one run share its host state, so their quartiles understate the spread
between runs.  The exit code is 1 when any row is ``worse`` and 2 when the
artifacts cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import spec

#: Fewer pairs than this never support a gain.
MIN_PAIRS = 10


class Side:
    """The untraced metric entries of one side's artifacts."""

    def __init__(self, paths: List[str]) -> None:
        self.runs = len(paths)
        self.entries: Dict[Tuple[str, str], List[dict]] = {}
        self.settings = set()
        self.seeds = set()
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                artifact = json.load(fh)
            self.settings.add((artifact["seconds"], artifact["env"]["smoke"]))
            self.seeds.add(artifact["env"]["seed"])
            for run in artifact["runs"]:
                if run["trace"]:
                    continue
                for name, entry in run["metrics"].items():
                    self.entries.setdefault((run["workload"], name), []).append(entry)


def describe(entries: List[dict]) -> Tuple[float, float, float, List[float]]:
    """``(median, q1, q3, samples)`` of one side."""
    if len(entries) == 1:
        e = entries[0]
        return e["value"], e["q1"], e["q3"], e["samples"]
    values = [e["value"] for e in entries]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3, values


def verdict(metric, a, b, runs: int) -> Tuple[str, float]:
    """The row's verdict and the relative change of B against A; ``runs``
    is the smaller side's artifact count."""
    (ma, a1, a3, sa), (mb, b1, b3, sb) = a, b
    if ma == mb:
        return "unchanged", 0.0
    if ma == 0:
        change = float("inf") if mb > 0 else float("-inf")
    else:
        change = (mb - ma) / abs(ma)
    worse_by = change if metric.better == "lower" else -change
    spread = max(
        (a3 - a1) / abs(ma) if ma else 0.0,
        (b3 - b1) / abs(mb) if mb else 0.0,
    )
    may_gain = runs >= MIN_PAIRS

    def beats(x: float, y: float) -> bool:
        return x < y if metric.better == "lower" else x > y

    if spread > metric.bound:
        if may_gain and all(beats(x, y) for x in sb for y in sa):
            return "better", change
        if all(beats(y, x) for x in sb for y in sa):
            return "worse", change
        return "unresolved", change
    if worse_by > metric.bound:
        return "worse", change
    pairs = list(zip(sb, sa))
    wins = sum(beats(x, y) for x, y in pairs)
    moved = worse_by < 0 and abs(mb - ma) > a3 - a1
    if may_gain and wins >= 0.9 * len(pairs) and moved:
        return "better", change
    if -worse_by > metric.bound:
        return "unresolved", change
    return "unchanged", change


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    paths_a, paths_b = argv[:cut], argv[cut + 1 :]
    if not paths_a or not paths_b:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = Side(paths_a), Side(paths_b)
    settings = side_a.settings | side_b.settings
    if len(settings) > 1:
        found = ", ".join(f"seconds={s} smoke={m}" for s, m in sorted(settings))
        print(f"compare.py: artifacts differ in run length or mode ({found})", file=sys.stderr)
        return 2
    if len(side_a.seeds | side_b.seeds) > 1:
        seeds = sorted(side_a.seeds | side_b.seeds)
        print(f"compare.py: warning: the artifacts use different seeds {seeds}", file=sys.stderr)
    runs = min(side_a.runs, side_b.runs)
    if runs < MIN_PAIRS:
        print(
            f"note: {runs} run(s) on the smaller side, fewer than {MIN_PAIRS}: no row can "
            "read better"
            + (
                "; quartiles come from the rounds (for tails, the round groups) "
                "of one run"
                if runs == 1
                else ""
            )
        )
    header = (
        f"{'workload':13} {'metric':22} {'unit':9} {'A median [q1, q3]':32} "
        f"{'B median [q1, q3]':32} {'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END + spec.DIAGNOSTICS:
            key = (workload, metric.name)
            if key not in side_a.entries or key not in side_b.entries:
                continue
            a, b = describe(side_a.entries[key]), describe(side_b.entries[key])
            result, change = verdict(metric, a, b, runs)
            worse += result == "worse"
            print(
                f"{workload:13} {metric.name:22} {metric.unit:9} "
                f"{a[0]:<11.5g} [{a[1]:.5g}, {a[2]:.5g}]".ljust(89)
                + f"{b[0]:<11.5g} [{b[1]:.5g}, {b[2]:.5g}]".ljust(33)
                + f"{change:>+8.1%} {metric.bound:>6.0%}  {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
