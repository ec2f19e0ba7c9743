"""Load generation: replayable traffic scenarios.

``repro.loadgen`` turns "a list of query pairs" into *traffic*: seeded
Zipf/uniform pair skew, open-loop Poisson/burst arrival schedules,
read/write mixes replaying §8.3 update waves, and multi-tenant fleets —
declared as a :class:`~repro.loadgen.scenario.Scenario`, executed by the
drivers, summarized by one shared percentile implementation.  The CLI
(``repro loadgen``) is a thin layer over this package.  The benchmark
suite (``benchmarks/suite/``), where the repository's performance claims
come from, runs its own driver: it borrows the seeded pair generators and
``derive_seed``, the shared ``percentile``, ``Scenario`` to build its
graphs and the fleet's serve arguments, not the drivers here.
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
