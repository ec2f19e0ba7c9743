"""Scaled synthetic stand-ins for the paper's five datasets (Table 2).

The originals (BTC, UK Web, as-Skitter, wiki-Talk, web-Google) are
million-to-hundred-million vertex graphs that cannot be shipped or indexed
in pure Python at full scale (repro calibration: "too slow for large-graph
construction without C extensions").  Each builder below produces a seeded
graph, a few thousand to a few ten-thousand vertices large, that preserves
the properties the evaluation actually exercises:

* the |V| ordering of Table 2 (btc > web > wikitalk > skitter > google);
* heavy-tailed degree distributions with hub vertices (wiki-Talk's
  max-degree/|V| ratio is the most extreme, as in the paper);
* the hierarchy-depth ordering of Table 3 (web by far the deepest k,
  wiki-Talk the shallowest) and a ``G_k`` that is a small fraction of the
  graph, which is what makes label+bi-Dijkstra querying beat plain search;
* web's label size exceeding btc's despite fewer vertices (Table 3), and
  web carrying edge weights in {1, 2} (the paper's 2-hop conversion).

**Documented substitution:** the nominal *average degrees* of the three
mid-density datasets (web 16.4, skitter 13.1, google 9.9) are not
reproducible jointly with deep hierarchies at 10^4 scale — hierarchy depth
is a function of how much low-degree periphery survives each peel, and
periphery fraction shrinks with graph scale.  The stand-ins keep the
degree *skew* and reduce the density; "Deviations from the paper" in
``docs/ARCHITECTURE.md`` discusses the impact.

Every builder returns a connected graph (the paper extracts the largest
component of Web too) and is deterministic for a given ``scale``.
``load_dataset`` caches per process; benchmarks use ``scale=1.0`` and tests
use smaller scales.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict

from repro.errors import GraphError
from repro.graph.generators import (
    attach_chains,
    attach_forest,
    attach_hubs,
    ensure_connected,
    powerlaw_configuration,
    random_weights,
)
from repro.graph.graph import Graph

__all__ = ["DATASET_NAMES", "load_dataset", "dataset_builders", "PAPER_TABLE2"]

DATASET_NAMES = ("btc", "web", "skitter", "wikitalk", "google")

#: Table 2 of the paper, for side-by-side reporting.
PAPER_TABLE2 = {
    "btc": {"V": 164_700_000, "E": 361_100_000, "avg_deg": 2.19, "max_deg": 105_618, "disk": "5.6 GB"},
    "web": {"V": 6_900_000, "E": 113_000_000, "avg_deg": 16.40, "max_deg": 31_734, "disk": "1.1 GB"},
    "skitter": {"V": 1_700_000, "E": 22_200_000, "avg_deg": 13.08, "max_deg": 35_455, "disk": "200 MB"},
    "wikitalk": {"V": 2_400_000, "E": 9_300_000, "avg_deg": 3.89, "max_deg": 100_029, "disk": "100 MB"},
    "google": {"V": 900_000, "E": 8_600_000, "avg_deg": 9.87, "max_deg": 6_332, "disk": "80 MB"},
}


def _btc(scale: float) -> Graph:
    """RDF entity graph: very sparse, a few enormous predicate/object hubs."""
    n = max(300, int(36_000 * scale))
    g = powerlaw_configuration(
        n, 2.75, seed=101, min_degree=1, max_degree=max(8, n // 10)
    )
    g = attach_hubs(g, 3, max(10, n // 10), seed=201)
    g = attach_chains(g, max(2, n // 400), 8, seed=301)
    return ensure_connected(g, seed=401)


def _web(scale: float) -> Graph:
    """Hyperlink graph: small power-law core, deep site forests and link
    chains (the deepest hierarchy of the five), weights in {1, 2}."""
    core = max(60, int(1_200 * scale))
    g = powerlaw_configuration(
        core, 2.1, seed=102, min_degree=1, max_degree=max(8, core // 4)
    )
    g = attach_forest(g, int(14_000 * scale), max(3, int(10 * scale)), seed=202)
    g = attach_chains(g, max(2, int(60 * scale)), max(6, int(150 * scale)), seed=302)
    g = ensure_connected(g, seed=402)
    return random_weights(g, 2, seed=502)


def _skitter(scale: float) -> Graph:
    """Internet topology: power-law AS graph with traceroute chain tails."""
    n = max(250, int(6_500 * scale))
    g = powerlaw_configuration(
        n, 2.25, seed=103, min_degree=1, max_degree=max(8, n // 11)
    )
    g = attach_chains(g, max(2, n // 54), 16, seed=203)
    return ensure_connected(g, seed=303)


def _wikitalk(scale: float) -> Graph:
    """User-talk graph: sparse power law with two admin superhubs (the
    most extreme max-degree/|V| ratio, as in the paper)."""
    n = max(250, int(11_000 * scale))
    g = powerlaw_configuration(
        n, 2.35, seed=104, min_degree=1, max_degree=max(8, n // 12)
    )
    g = attach_hubs(g, 2, max(10, n // 3), seed=204)
    return ensure_connected(g, seed=304)


def _google(scale: float) -> Graph:
    """Web-graph sample: moderate power-law core with site forests."""
    n = max(250, int(4_200 * scale))
    g = powerlaw_configuration(
        n, 2.4, seed=105, min_degree=1, max_degree=max(8, n // 10)
    )
    g = attach_forest(g, int(1_800 * scale), max(2, int(120 * scale)), seed=205)
    return ensure_connected(g, seed=305)


_BUILDERS: Dict[str, Callable[[float], Graph]] = {
    "btc": _btc,
    "web": _web,
    "skitter": _skitter,
    "wikitalk": _wikitalk,
    "google": _google,
}


def dataset_builders() -> Dict[str, Callable[[float], Graph]]:
    """The builder registry (mainly for tests and docs)."""
    return dict(_BUILDERS)


@lru_cache(maxsize=32)
def load_dataset(name: str, scale: float = 1.0) -> Graph:
    """Build (or fetch from the per-process cache) one dataset stand-in.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES`.
    scale:
        Multiplier on the base vertex budget; 1.0 reproduces the benchmark
        configuration, smaller values give fast test fixtures.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise GraphError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_NAMES)}"
        ) from None
    if scale <= 0:
        raise GraphError("scale must be positive")
    return builder(scale)
