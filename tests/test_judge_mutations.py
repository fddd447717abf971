"""Mutation battery: injected wrong answers must be caught end to end.

Each mutation patches :meth:`QueryService.query` so that every answer
the serving tier produces is bent in one way — a wrong exact distance,
an overstated lower bound, a false "certainly unreachable", a missing
reason, an answer from a generation nobody committed, a silently late
reply — and then runs one small replay of every full-stack runner the
rule applies to: a scenario replay, the traffic battery and a
serve-chaos schedule.  Each runner must report the mutation as a
violation, so the shared judge provably lost no detection power on
the way into any of them.
"""

import math
from dataclasses import replace

import pytest

from repro.chaos import FaultPlan, run_service_plan
from repro.gateway import GatewayBattery, TrafficConfig
from repro.graphs.generators import grid_graph
from repro.scenario import ScenarioEvent, ScenarioTrace, run_trace
from repro.service import DegradationReason, MissingLabel, QueryService


def _degrade(outcome, lower_bound, reason):
    return replace(
        outcome, status="degraded", distance=None, lower_bound=lower_bound,
        reason=reason,
        missing=(MissingLabel(vertex=outcome.t, role="vertex_fault",
                              error="injected"),),
    )


def _finite_exact(outcome) -> bool:
    return outcome.exact and not math.isinf(outcome.distance)


def plus_one(service, outcome):
    if _finite_exact(outcome):
        return replace(outcome, distance=outcome.distance + 1)
    return outcome


def above_bound(service, outcome):
    if _finite_exact(outcome):
        bent = outcome.distance * service.stretch_bound + 1e-6
        return replace(outcome, distance=bent)
    return outcome


def lower_bound_above_truth(service, outcome):
    if _finite_exact(outcome):
        return _degrade(outcome, outcome.distance + 1,
                        DegradationReason.FAULT_LABELS_UNAVAILABLE)
    return outcome


def certainly_unreachable(service, outcome):
    if _finite_exact(outcome):
        return _degrade(outcome, math.inf,
                        DegradationReason.FAULT_LABELS_UNAVAILABLE)
    return outcome


def missing_reason(service, outcome):
    return _degrade(outcome, 0.0, None)


def uncommitted_generation(service, outcome):
    return replace(outcome, version=99)


def late_first_reply(service, outcome):
    if not getattr(service, "_mutation_fired", False):
        service._mutation_fired = True
        service.clock.advance(10_000.0)
    return outcome


#: mutation -> a phrase its violation must contain
MUTATIONS = {
    plus_one: "silently wrong",
    above_bound: "silently wrong",
    lower_bound_above_truth: "exceeds the true distance",
    certainly_unreachable: "certainly unreachable",
    missing_reason: "without an explicit reason",
    uncommitted_generation: "unknown label generation 99",
}


@pytest.fixture()
def inject(monkeypatch):
    def install(mutation):
        original = QueryService.query

        def query(self, *args, **kwargs):
            return mutation(self, original(self, *args, **kwargs))

        monkeypatch.setattr(QueryService, "query", query)

    return install


def scenario_violations():
    # adjacent pairs (d = 1) make a +1 error leave the stretch window
    trace = ScenarioTrace(
        name="mutations", graph_spec="grid:4x4", duration_ms=120.0,
        seed=5, base_rate_per_ms=0.2, window_ms=60.0,
        events=(
            ScenarioEvent(at_ms=20.0, kind="probe", s=0, t=1),
            ScenarioEvent(at_ms=40.0, kind="probe", s=5, t=9,
                          faults=(6,)),
        ),
    )
    return run_trace(trace).violations


def battery_violations():
    return GatewayBattery(
        grid_graph(4, 4), TrafficConfig(base_rate_per_ms=0.2), seed=1,
        duration_ms=120.0,
    ).run().violations


def serve_chaos_violations():
    plan = (
        FaultPlan(seed=9, name="mutations")
        .query(0, 1)
        .query(0, 5)
        .query(3, 12, faults=(6, 9))
        .shard_down(1)
        .query(2, 14)
        .shard_recover(1)
        .query(15, 10)
    )
    return run_service_plan(grid_graph(4, 4), plan).violations


RUNNERS = {
    "scenario": scenario_violations,
    "traffic": battery_violations,
    "serve-chaos": serve_chaos_violations,
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_honest_runs_are_clean(runner):
    assert RUNNERS[runner]() == []


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize(
    "mutation", list(MUTATIONS), ids=lambda m: m.__name__
)
def test_mutation_is_flagged(inject, runner, mutation):
    inject(mutation)
    violations = RUNNERS[runner]()
    phrase = MUTATIONS[mutation]
    assert any(phrase in v for v in violations), violations[:5]


@pytest.mark.parametrize("runner", ["scenario", "traffic"])
def test_late_reply_is_flagged(inject, runner):
    inject(late_first_reply)
    violations = RUNNERS[runner]()
    assert any("silent timeout" in v for v in violations), violations[:5]


def test_serve_chaos_judges_zero_distance(inject):
    """``s = t`` is a real query; its exact answer must be exactly 0."""
    inject(lambda service, outcome: replace(
        outcome, distance=outcome.distance + 2
    ) if outcome.exact else outcome)
    plan = FaultPlan(seed=3, name="zero").query(3, 3).query(0, 5)
    violations = run_service_plan(
        grid_graph(4, 4), plan, final_probes=0
    ).violations
    assert len(violations) == 2, violations
    assert "query(3, 3)" in violations[0]
    assert "query(0, 5)" in violations[1]


def test_serve_chaos_flags_every_answer_from_an_unknown_generation(inject):
    inject(uncommitted_generation)
    plan = (
        FaultPlan(seed=4, name="generation")
        .rollout_begin(0, 1)
        .query(0, 5)
        .query(0, 15)
        .rollout_commit()
        .query(0, 1)
    )
    violations = run_service_plan(
        grid_graph(4, 4), plan, final_probes=0
    ).violations
    assert len(violations) == 3, violations
    assert all("unknown label generation 99" in v for v in violations)


def test_serve_chaos_judges_post_recovery_probes(inject):
    """Probes after healing are judged on truth, not only on status."""
    inject(above_bound)
    plan = FaultPlan(seed=6, name="probes").shard_down(0).shard_recover(0)
    violations = run_service_plan(
        grid_graph(2, 2), plan, final_probes=3
    ).violations
    assert violations
    assert all("post-recovery probe" in v for v in violations)
