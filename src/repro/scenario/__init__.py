"""Declarative scenario traces: parse, compile, replay, and attack.

The robustness subsystem's top layer.  A *scenario trace* is a
versioned, CRC-checked text file of timestamped events over virtual
time — regional ball outages ``B(v, r)``, rolling maintenance, flash
crowds, shard crashes, label rollouts, injected probe queries — plus
scripted rows (synchronous queries, time gaps) that run in file order,
or, in a network trace, network rows (router and link churn,
flooding, packet sends) for :class:`repro.chaos.runner.ChaosRunner`.
:mod:`repro.scenario.trace` parses and canonically serializes the
format; :mod:`repro.scenario.compile` lowers a trace onto the
traffic/chaos machinery; :mod:`repro.scenario.runner` replays it
through the full serving stack and judges every outcome against BFS
ground truth — the repository's one full-stack runner;
:mod:`repro.scenario.generate` emits network churn, the serve-chaos
schedules and the traffic battery as traces;
:mod:`repro.scenario.search` hunts for the adversarial worst fault set
and emits it back as a replayable trace; and
:mod:`repro.scenario.library` loads the committed ``scenarios/``
regression library.
"""

from repro.scenario.compile import CompiledScenario, compile_trace
from repro.scenario.generate import (
    churn_suite,
    churn_trace,
    random_shard_plan,
    recovery_probes,
    serve_chaos_suite,
    traffic_trace,
)
from repro.scenario.library import (
    catalogue,
    library_dir,
    load_scenario,
    scenario_paths,
)
from repro.scenario.runner import (
    ScenarioReport,
    ScenarioRunner,
    WindowRow,
    run_trace,
)
from repro.scenario.search import SearchResult, WorstPair, worst_f_search
from repro.scenario.trace import (
    EVENT_KINDS,
    NETWORK_KINDS,
    SCHEMA_VERSION,
    ScenarioEvent,
    ScenarioTrace,
    TraceTenant,
    parse_trace,
    serialize_trace,
    trace_crc,
)

__all__ = [
    "EVENT_KINDS",
    "NETWORK_KINDS",
    "SCHEMA_VERSION",
    "CompiledScenario",
    "ScenarioEvent",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioTrace",
    "SearchResult",
    "TraceTenant",
    "WindowRow",
    "WorstPair",
    "catalogue",
    "churn_suite",
    "churn_trace",
    "compile_trace",
    "library_dir",
    "load_scenario",
    "parse_trace",
    "random_shard_plan",
    "recovery_probes",
    "run_trace",
    "scenario_paths",
    "serialize_trace",
    "serve_chaos_suite",
    "trace_crc",
    "traffic_trace",
    "worst_f_search",
]
