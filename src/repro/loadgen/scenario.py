"""Declarative, seeded, fully replayable load scenarios.

A :class:`Scenario` is a frozen value object describing *traffic*, not a
query list: which dataset, which engine, how endpoint popularity is
skewed (Zipf(θ) vs uniform), how requests arrive (closed-loop, open-loop
Poisson, open-loop bursts), how reads interleave with §8.3 update waves
(``write_fraction``), and how many tenants share the fleet.  Everything
random derives from the single ``seed`` through
:func:`repro.loadgen.generators.derive_seed`, so two runs of the same
spec — on different hosts, weeks apart — draw byte-identical query
pairs, arrival offsets and read/write interleavings.  The spec
round-trips through a plain dict (:meth:`to_dict` /
:meth:`from_dict`), which is what the JSON artifact embeds so a
published number can always be traced back to its exact traffic.

Named entry points live in :data:`SCENARIOS`; ``repro loadgen <name>``
runs one, and benchmarks build theirs programmatically with
``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.graph.generators import grid_graph
from repro.graph.graph import Graph
from repro.loadgen import generators as gen
from repro.workloads.datasets import DATASET_NAMES, load_dataset

__all__ = ["Scenario", "SCENARIOS", "get_scenario", "scenario_names"]

_SKEWS = ("uniform", "zipf")
_ARRIVALS = ("closed", "poisson", "burst")


@dataclass(frozen=True)
class Scenario:
    """One replayable traffic spec.  See the module docstring.

    ``dataset`` is either a named stand-in from
    :data:`repro.workloads.datasets.DATASET_NAMES` (scaled by ``scale``)
    or ``"grid:RxC"`` for a seeded road-network-like grid.
    ``duration_s = 0`` runs the seeded operation list exactly once (the
    fully replayable fixed-count mode); ``duration_s > 0`` cycles the
    same seeded stream until the wall clock expires, for soak runs.
    """

    name: str
    description: str = ""
    dataset: str = "google"
    scale: float = 0.15
    engine: str = "fast"
    skew: str = "uniform"
    theta: float = 1.0
    num_queries: int = 200
    arrival: str = "closed"
    rate_qps: float = 500.0
    burst_size: int = 8
    write_fraction: float = 0.0
    duration_s: float = 0.0
    seed: int = 0
    workers: int = 2
    shards: int = 4
    replication: int = 1
    tenants: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("scenario needs a non-empty name")
        if self.skew not in _SKEWS:
            raise QueryError(
                f"unknown skew {self.skew!r}; expected one of {_SKEWS}"
            )
        if self.arrival not in _ARRIVALS:
            raise QueryError(
                f"unknown arrival {self.arrival!r}; expected one of {_ARRIVALS}"
            )
        if self.num_queries < 1:
            raise QueryError(f"num_queries must be >= 1, got {self.num_queries}")
        if self.duration_s < 0:
            raise QueryError(f"duration_s must be >= 0, got {self.duration_s}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise QueryError(
                f"write_fraction must be in [0, 1], got {self.write_fraction}"
            )
        if self.theta <= 0:
            raise QueryError(f"theta must be positive, got {self.theta}")
        if self.rate_qps <= 0:
            raise QueryError(f"rate_qps must be positive, got {self.rate_qps}")
        if self.burst_size < 1:
            raise QueryError(f"burst_size must be >= 1, got {self.burst_size}")
        if min(self.workers, self.shards, self.replication, self.tenants) < 1:
            raise QueryError(
                "workers, shards, replication and tenants must all be >= 1"
            )
        if self.scale <= 0:
            raise QueryError(f"scale must be positive, got {self.scale}")
        # Validate the dataset spec eagerly so a typo fails at parse time,
        # not minutes later when the driver finally builds the graph.
        self._parse_dataset()

    # -- dataset ---------------------------------------------------------
    def _parse_dataset(self) -> Tuple[str, Tuple[int, int]]:
        spec = self.dataset
        if spec.startswith("grid:"):
            dims = spec[len("grid:") :].lower().split("x")
            try:
                rows, cols = (int(d) for d in dims)
            except ValueError:
                rows = cols = 0
            if rows < 2 or cols < 2:
                raise QueryError(
                    f"bad grid spec {spec!r}; expected 'grid:RxC' with R,C >= 2"
                )
            return "grid", (rows, cols)
        if spec not in DATASET_NAMES:
            raise QueryError(
                f"unknown dataset {spec!r}; expected 'grid:RxC' or one of "
                f"{', '.join(DATASET_NAMES)}"
            )
        return "named", (0, 0)

    def build_graph(self) -> Graph:
        """Materialize the scenario's graph (deterministic per spec)."""
        kind, dims = self._parse_dataset()
        if kind == "grid":
            rows, cols = dims
            return grid_graph(
                rows, cols, seed=gen.derive_seed(self.seed, "grid"), max_weight=4
            )
        return load_dataset(self.dataset, self.scale)

    # -- traffic streams -------------------------------------------------
    def query_pairs(self, graph: Graph, tenant: int = 0) -> List[Tuple[int, int]]:
        """The tenant's seeded ``(s, t)`` stream (length ``num_queries``)."""
        vertices = sorted(graph.vertices())
        pair_seed = gen.derive_seed(self.seed, "pairs", tenant)
        if self.skew == "zipf":
            return gen.zipf_pairs(
                vertices, self.num_queries, pair_seed, theta=self.theta
            )
        return gen.uniform_pairs(vertices, self.num_queries, pair_seed)

    def arrival_offsets(self, count: int) -> Optional[List[float]]:
        """Open-loop arrival offsets, or ``None`` for closed-loop runs."""
        if self.arrival == "closed":
            return None
        arrival_seed = gen.derive_seed(self.seed, "arrivals")
        if self.arrival == "burst":
            return gen.burst_arrivals(
                self.rate_qps, count, arrival_seed, self.burst_size
            )
        return gen.poisson_arrivals(self.rate_qps, count, arrival_seed)

    def operations(self, count: int, tenant: int = 0) -> List[str]:
        """Seeded read/write tags for ``count`` operation slots."""
        return gen.operation_mix(
            count,
            self.write_fraction,
            gen.derive_seed(self.seed, "mix", tenant),
        )

    # -- dict round-trip -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "Scenario":
        """Build from a plain dict, rejecting unknown keys loudly."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise QueryError(
                f"unknown scenario field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**spec)  # type: ignore[arg-type]

    def replace(self, **changes: object) -> "Scenario":
        """A copy with fields overridden (re-validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


#: Named scenarios — the vocabulary of ``repro loadgen``.  ``smoke`` must
#: stay tiny: CI runs it against both a local engine and a live
#: two-worker fleet under a timeout.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="smoke",
            description="tiny grid, uniform closed-loop reads (CI smoke)",
            dataset="grid:8x8",
            num_queries=40,
            workers=2,
            shards=4,
        ),
        Scenario(
            name="uniform-base",
            description="uniform closed-loop reads; baseline for zipf-hot",
            dataset="google",
            scale=0.15,
            skew="uniform",
            num_queries=400,
        ),
        Scenario(
            name="zipf-hot",
            description="Zipf(1.1)-skewed closed-loop reads (hot-pair regime)",
            dataset="google",
            scale=0.15,
            skew="zipf",
            theta=1.1,
            num_queries=400,
        ),
        Scenario(
            name="zipf-hot-cached",
            description=(
                "zipf-hot replayed through the cached:fast read-through "
                "tier with a 20% §8.3 update mix (invalidation soak)"
            ),
            dataset="google",
            scale=0.15,
            engine="cached:fast",
            skew="zipf",
            theta=1.1,
            num_queries=400,
            write_fraction=0.2,
        ),
        Scenario(
            name="open-burst",
            description="open-loop bursty arrivals at 500 qps, bursts of 16",
            dataset="google",
            scale=0.15,
            skew="zipf",
            theta=1.1,
            num_queries=400,
            arrival="burst",
            rate_qps=500.0,
            burst_size=16,
        ),
        Scenario(
            name="mixed-updates",
            description="80/20 read/write replaying §8.3 pendant update waves",
            dataset="google",
            scale=0.15,
            skew="uniform",
            num_queries=300,
            write_fraction=0.2,
        ),
        Scenario(
            name="multi-tenant",
            description="two tenants with independent indexes on one fleet",
            dataset="grid:12x12",
            skew="zipf",
            theta=1.0,
            num_queries=200,
            tenants=2,
            workers=2,
            shards=4,
        ),
    )
}


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise QueryError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
