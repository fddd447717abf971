"""Chaos injection: hostile schedules and hostile bytes, replayable.

The reproduction's robustness harness.  Hostile schedules are scenario
traces: network churn from :func:`repro.scenario.generate.churn_trace`
and serving-tier chaos from
:func:`repro.scenario.generate.random_shard_plan`.  This package holds:

* :mod:`repro.chaos.runner` — replays a network trace (router and link
  failures and recoveries, lossy flooding, partition windows, packet
  sends) over a :class:`~repro.routing.network_sim.NetworkSimulator`
  while checking delivery/stretch/route invariants after every row;
* :mod:`repro.chaos.corruption` — seeded bit-flips, truncations and
  lying length fields against saved label databases, with a fuzz
  harness demanding *error or exact answer, never silently wrong*.
"""

from repro.chaos.corruption import (
    MUTATION_KINDS,
    FuzzReport,
    Mutation,
    fuzz_database,
    mutate,
)
from repro.chaos.runner import (
    ChaosReport,
    ChaosRunner,
    run_plan,
    standard_suite,
)

__all__ = [
    "ChaosReport",
    "ChaosRunner",
    "FuzzReport",
    "MUTATION_KINDS",
    "Mutation",
    "fuzz_database",
    "mutate",
    "run_plan",
    "standard_suite",
]
