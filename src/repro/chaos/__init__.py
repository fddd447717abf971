"""Chaos injection: hostile schedules and hostile bytes, replayable.

The reproduction's robustness harness, in three parts (serving-tier
chaos schedules are scenario traces; see
:func:`repro.scenario.generate.random_shard_plan`):

* :mod:`repro.chaos.plan` — a seeded fault-plan DSL: scripted or
  randomized churn schedules of vertex/edge fail/recover events,
  lossy flooding and partition windows, plus the shard-level and
  rollout actions scenario traces lower to;
* :mod:`repro.chaos.runner` — drives a
  :class:`~repro.routing.network_sim.NetworkSimulator` through a plan
  while checking delivery/stretch/route invariants after every event;
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
from repro.chaos.plan import (
    EVENT_KINDS,
    NETWORK_EVENT_KINDS,
    SERVICE_EVENT_KINDS,
    ChaosEvent,
    FaultPlan,
    random_churn_plan,
)
from repro.chaos.runner import (
    ChaosReport,
    ChaosRunner,
    run_plan,
    standard_suite,
)

__all__ = [
    "ChaosEvent",
    "ChaosReport",
    "ChaosRunner",
    "EVENT_KINDS",
    "FaultPlan",
    "FuzzReport",
    "MUTATION_KINDS",
    "Mutation",
    "NETWORK_EVENT_KINDS",
    "SERVICE_EVENT_KINDS",
    "fuzz_database",
    "mutate",
    "random_churn_plan",
    "run_plan",
    "standard_suite",
]
