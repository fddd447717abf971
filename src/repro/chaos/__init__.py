"""Chaos injection: hostile schedules and hostile bytes, replayable.

The reproduction's robustness harness, in four parts:

* :mod:`repro.chaos.plan` — a seeded fault-plan DSL: scripted or
  randomized churn schedules of vertex/edge fail/recover events,
  lossy flooding, partition windows, and shard-level serving-tier
  events (outages, slowness, flakiness, corruption) interleaved with
  forbidden-set queries;
* :mod:`repro.chaos.runner` — drives a
  :class:`~repro.routing.network_sim.NetworkSimulator` through a plan
  while checking delivery/stretch/route invariants after every event;
* :mod:`repro.chaos.service_runner` — drives a
  :class:`~repro.service.frontend.QueryService` through a shard-fault
  and rollout plan, handing every answer to the shared
  :class:`~repro.service.judge.Judge` (exact within ``(1+ε)`` or
  explicitly degraded, never silently wrong) and checking the serving
  tier's retry, breaker and recovery invariants;
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
    random_shard_plan,
)
from repro.chaos.runner import (
    ChaosReport,
    ChaosRunner,
    run_plan,
    standard_suite,
)
from repro.chaos.service_runner import (
    ServiceChaosReport,
    ServiceChaosRunner,
    run_service_plan,
    service_standard_suite,
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
    "ServiceChaosReport",
    "ServiceChaosRunner",
    "fuzz_database",
    "mutate",
    "random_churn_plan",
    "random_shard_plan",
    "run_plan",
    "run_service_plan",
    "service_standard_suite",
    "standard_suite",
]
