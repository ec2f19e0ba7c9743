"""Index introspection and reporting.

Production indexes need answers to "why is my index this big?" and "where
did the levels stop?".  :func:`hierarchy_report` tabulates the per-level
peeling trace (|L_i|, the |G_i| sizes the σ rule evaluated, shrink
ratios); :func:`label_report` aggregates label-size distribution;
:func:`describe_index` renders both as text (used by tests and notebooks,
and handy in a REPL).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro.core.index import ISLabelIndex
from repro.graph.stats import human_bytes

__all__ = ["LevelRow", "hierarchy_report", "label_report", "describe_index"]


@dataclass(frozen=True)
class LevelRow:
    """One level of the peeling trace."""

    level: int
    peeled: int  # |L_i|; 0 for the final G_k row
    graph_size: int  # |G_i| = |V_Gi| + |E_Gi| before peeling this level
    shrink_ratio: float  # |G_{i+1}| / |G_i| (1.0 on the last row)


def hierarchy_report(index: ISLabelIndex) -> List[LevelRow]:
    """Per-level peeling trace of a built index."""
    hierarchy = index.hierarchy
    rows: List[LevelRow] = []
    sizes = hierarchy.sizes
    # |L_i| from the level map, which every index carries (a loaded
    # snapshot has no removal adjacency to count).
    peeled = Counter(hierarchy.level_of.values())
    for i in range(1, hierarchy.k):
        before = sizes[i - 1]
        after = sizes[i] if i < len(sizes) else before
        rows.append(
            LevelRow(
                level=i,
                peeled=peeled[i],
                graph_size=before,
                shrink_ratio=(after / before) if before else 1.0,
            )
        )
    rows.append(
        LevelRow(
            level=hierarchy.k,
            peeled=0,
            graph_size=sizes[-1],
            shrink_ratio=1.0,
        )
    )
    return rows


def label_report(index: ISLabelIndex) -> Dict[str, float]:
    """Aggregate label-size statistics of a built index."""
    sizes = sorted(len(index.label(v)) for v in index.hierarchy.level_of)
    if not sizes:
        return {"count": 0, "min": 0, "median": 0, "mean": 0.0, "max": 0}
    return {
        "count": len(sizes),
        "min": sizes[0],
        "median": sizes[len(sizes) // 2],
        "mean": sum(sizes) / len(sizes),
        "max": sizes[-1],
    }


def describe_index(index: ISLabelIndex) -> str:
    """A human-readable multi-line description of a built index."""
    st = index.stats
    lines = [
        f"IS-LABEL index: k={st.k}, "
        f"|V|={st.num_vertices}, |E|={st.num_edges}, "
        f"sigma={'-' if st.sigma is None else st.sigma}",
        f"G_k: {st.gk_vertices} vertices, {st.gk_edges} edges",
        f"labels: {st.label_entries} entries "
        f"({human_bytes(st.label_bytes)})",
        "",
        "level  |L_i|   |G_i|     shrink",
        "-----  ------  --------  ------",
    ]
    for row in hierarchy_report(index):
        peeled = str(row.peeled) if row.peeled else "(G_k)"
        lines.append(
            f"{row.level:>5}  {peeled:>6}  {row.graph_size:>8}  "
            f"{row.shrink_ratio:>6.3f}"
        )
    stats = label_report(index)
    lines.append("")
    lines.append(
        f"label entries per vertex: min {stats['min']}, "
        f"median {stats['median']}, mean {stats['mean']:.2f}, "
        f"max {stats['max']}"
    )
    return "\n".join(lines)
