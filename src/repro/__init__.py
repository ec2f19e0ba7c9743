"""IS-LABEL: independent-set based labeling for P2P distance queries.

A full reproduction of Fu, Wu, Cheng, Chu and Wong, *"IS-LABEL: an
Independent-Set based Labeling Scheme for Point-to-Point Distance Querying
on Large Graphs"* (VLDB 2013, arXiv:1211.2367).

Quickstart::

    from repro import Graph, ISLabelIndex

    g = Graph([(1, 2), (2, 3), (3, 4, 2), (4, 1)])
    index = ISLabelIndex.build(g)
    index.distance(2, 4)     # -> 2

See docs/ARCHITECTURE.md for the system inventory and the deviations
from the paper; the ``benchmarks/bench_table*.py`` scripts print the
paper-vs-measured results of every table.
"""

from repro.core import (
    DirectedISLabelIndex,
    DynamicDirectedISLabelIndex,
    DynamicISLabelIndex,
    ISLabelIndex,
    IndexStats,
    PathReconstructor,
    QueryEngine,
    QueryResult,
    VertexHierarchy,
    available_engines,
    build_hierarchy,
    engine_capabilities,
    engines_with_capability,
    load_directed_index,
    load_dynamic_directed_index,
    load_dynamic_index,
    load_index,
    register_engine,
    save_snapshot,
)
from repro.errors import (
    GraphError,
    IndexBuildError,
    QueryError,
    ReproError,
    StaleIndexError,
    StorageError,
    ValidationError,
)
from repro.graph import CSRDiGraph, CSRGraph, DiGraph, Graph, graph_stats

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "DiGraph",
    "CSRGraph",
    "CSRDiGraph",
    "graph_stats",
    "ISLabelIndex",
    "IndexStats",
    "QueryResult",
    "VertexHierarchy",
    "build_hierarchy",
    "PathReconstructor",
    "DirectedISLabelIndex",
    "DynamicISLabelIndex",
    "DynamicDirectedISLabelIndex",
    "QueryEngine",
    "register_engine",
    "available_engines",
    "engine_capabilities",
    "engines_with_capability",
    "load_index",
    "load_directed_index",
    "save_snapshot",
    "load_dynamic_index",
    "load_dynamic_directed_index",
    "ReproError",
    "GraphError",
    "ValidationError",
    "IndexBuildError",
    "QueryError",
    "StorageError",
    "StaleIndexError",
    "__version__",
]
