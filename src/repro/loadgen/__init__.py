"""Load generation: replayable traffic scenarios for every perf claim.

``repro.loadgen`` turns "a list of query pairs" into *traffic*: seeded
Zipf/uniform pair skew, open-loop Poisson/burst arrival schedules,
read/write mixes replaying §8.3 update waves, and multi-tenant fleets —
declared as a :class:`~repro.loadgen.scenario.Scenario`, executed by the
drivers, summarized by one shared percentile implementation.  The CLI
(``repro loadgen``) and the benchmark suite (``benchmarks/suite/``) are
both thin layers over this package, so every published number comes
from the same code path.
"""

from repro.loadgen.drivers import run_closed_loop, run_open_loop, run_scenario
from repro.loadgen.generators import (
    READ,
    WRITE,
    burst_arrivals,
    derive_seed,
    operation_mix,
    poisson_arrivals,
    uniform_pairs,
    zipf_pairs,
    zipf_weights,
)
from repro.loadgen.scenario import SCENARIOS, Scenario, get_scenario, scenario_names
from repro.loadgen.summary import LatencySummary, percentile

__all__ = [
    "READ",
    "WRITE",
    "SCENARIOS",
    "LatencySummary",
    "Scenario",
    "burst_arrivals",
    "derive_seed",
    "get_scenario",
    "operation_mix",
    "percentile",
    "poisson_arrivals",
    "run_closed_loop",
    "run_open_loop",
    "run_scenario",
    "scenario_names",
    "uniform_pairs",
    "zipf_pairs",
    "zipf_weights",
]
