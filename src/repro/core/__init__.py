"""IS-LABEL core: hierarchy, labeling, index, queries, and extensions."""

from repro.core.analysis import describe_index, hierarchy_report, label_report
from repro.core.approx import ApproximateDistanceOracle
from repro.core.directed import DirectedHierarchy, DirectedISLabelIndex
from repro.core.engines import (
    DIRECTED,
    UNDIRECTED,
    QueryEngine,
    available_engines,
    engine_capabilities,
    engines_with_capability,
    register_engine,
    resolve_engine,
)
from repro.core.fastdirected import DirectedFastEngine
from repro.core.hierarchy import (
    DEFAULT_SIGMA,
    VertexHierarchy,
    build_hierarchy,
    build_hierarchy_with_levels,
)
from repro.core.independent_set import (
    external_independent_set,
    greedy_independent_set,
    is_independent_set,
    random_independent_set,
)
from repro.core.fastlabels import (
    FastEngine,
    LabelArrayPool,
    apsp_ceiling,
    batch_eq1,
    eq1_merge,
    fast_top_down_labels,
)
from repro.core.index import IndexStats, ISLabelIndex, QueryResult
from repro.core.labeling import (
    definition3_label,
    external_top_down_labels,
    top_down_labels,
)
from repro.core.labels import (
    BYTES_PER_ENTRY,
    BYTES_PER_ENTRY_WITH_PRED,
    eq1_distance,
    eq1_distance_argmin,
    intersect_labels,
    sort_label,
    vertex_set,
)
from repro.core.paths import PathReconstructor, is_valid_path, path_length
from repro.core.query import (
    BiDijkstraResult,
    SearchStats,
    csr_label_bidijkstra,
    label_bidijkstra,
)
from repro.core.reduce import external_reduce, reduce_graph, reduce_graph_inplace
from repro.core.serialization import (
    load_directed_index,
    load_dynamic_directed_index,
    load_dynamic_index,
    load_index,
    save_snapshot,
)
from repro.core.snapshot import (
    DirectedMmapEngine,
    DirectedShardedEngine,
    MmapEngine,
    ShardedEngine,
    open_snapshot,
    write_snapshot,
)
from repro.core.updates import DynamicDirectedISLabelIndex, DynamicISLabelIndex

__all__ = [
    "ISLabelIndex",
    "ApproximateDistanceOracle",
    "describe_index",
    "hierarchy_report",
    "label_report",
    "IndexStats",
    "QueryResult",
    "VertexHierarchy",
    "build_hierarchy",
    "build_hierarchy_with_levels",
    "DEFAULT_SIGMA",
    "greedy_independent_set",
    "random_independent_set",
    "external_independent_set",
    "is_independent_set",
    "reduce_graph",
    "reduce_graph_inplace",
    "external_reduce",
    "definition3_label",
    "top_down_labels",
    "external_top_down_labels",
    "eq1_distance",
    "eq1_distance_argmin",
    "intersect_labels",
    "sort_label",
    "vertex_set",
    "BYTES_PER_ENTRY",
    "BYTES_PER_ENTRY_WITH_PRED",
    "QueryEngine",
    "register_engine",
    "resolve_engine",
    "available_engines",
    "engine_capabilities",
    "engines_with_capability",
    "UNDIRECTED",
    "DIRECTED",
    "FastEngine",
    "DirectedFastEngine",
    "LabelArrayPool",
    "eq1_merge",
    "batch_eq1",
    "apsp_ceiling",
    "fast_top_down_labels",
    "label_bidijkstra",
    "csr_label_bidijkstra",
    "BiDijkstraResult",
    "SearchStats",
    "PathReconstructor",
    "path_length",
    "is_valid_path",
    "DirectedISLabelIndex",
    "DirectedHierarchy",
    "DynamicISLabelIndex",
    "DynamicDirectedISLabelIndex",
    "load_index",
    "load_directed_index",
    "save_snapshot",
    "open_snapshot",
    "write_snapshot",
    "MmapEngine",
    "ShardedEngine",
    "DirectedMmapEngine",
    "DirectedShardedEngine",
    "load_dynamic_index",
    "load_dynamic_directed_index",
]
