"""Mutation battery: injected bugs must be caught end to end.

Every mutation bends the serving stack in one way and then replays
one small trace of each kind through the one
:class:`~repro.scenario.ScenarioRunner`: a v1 library-style trace, a
generated traffic trace (:func:`repro.scenario.traffic_trace`) and a
generated serve-chaos trace (:func:`repro.scenario.random_shard_plan`).
Each replay must report the mutation as a violation, so no rule lost
detection power on the way into the one runner.

The judge's mutations patch :meth:`QueryService.query` so every answer
is bent — a wrong exact distance, an overstated lower bound, a false
"certainly unreachable", a missing reason, an answer from a generation
nobody committed, a silently late reply.  The runner's own invariants
get one mutation each: a store that skips a shard action (health
registers), a breaker that trips on a shard no action hurt (breaker
attribution), an inflated fetch-attempt count (the retry bound) and
degraded answers once every shard healed (the exact mark).  A late
reply needs gateway requests, and the exact mark needs ``exact=1``
queries, so those two run only on the traces that carry them.
"""

import math
from dataclasses import replace

import pytest

from repro.scenario import (
    ScenarioEvent,
    ScenarioTrace,
    random_shard_plan,
    run_trace,
    traffic_trace,
)
from repro.scenario.trace import trace_version
from repro.service import DegradationReason, MissingLabel, QueryService
from repro.service.client import CircuitBreaker
from repro.service.store import ShardedLabelStore


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


def inflated_attempts(service, outcome):
    return replace(outcome, attempts=outcome.attempts + 10_000)


def degraded_after_recovery(service, outcome):
    store = service.store
    if outcome.exact and all(
        store.health(shard).healthy for shard in range(store.num_shards)
    ):
        return _degrade(outcome, 0.0,
                        DegradationReason.FAULT_LABELS_UNAVAILABLE)
    return outcome


#: judge mutation -> a phrase its violation must contain
MUTATIONS = {
    plus_one: "silently wrong",
    above_bound: "silently wrong",
    lower_bound_above_truth: "exceeds the true distance",
    certainly_unreachable: "certainly unreachable",
    missing_reason: "without an explicit reason",
    uncommitted_generation: "unknown label generation 99",
}


def skip_shard_action(monkeypatch):
    """The store silently drops the first shard action it is handed."""
    original = ShardedLabelStore.apply_event
    fired = []

    def apply_event(self, event, rng=None):
        if not fired:
            fired.append(event)
            return None
        return original(self, event, rng=rng)

    monkeypatch.setattr(ShardedLabelStore, "apply_event", apply_event)


def forced_breaker_trip(monkeypatch):
    """Every breaker that sees a successful fetch claims one trip."""
    original = CircuitBreaker.record_success

    def record_success(self, now):
        original(self, now)
        self.trips = max(self.trips, 1)

    monkeypatch.setattr(CircuitBreaker, "record_success", record_success)


@pytest.fixture()
def inject(monkeypatch):
    def install(mutation):
        original = QueryService.query

        def query(self, *args, **kwargs):
            return mutation(self, original(self, *args, **kwargs))

        monkeypatch.setattr(QueryService, "query", query)

    return install


def library_trace() -> ScenarioTrace:
    # adjacent pairs (d = 1) make a +1 error leave the stretch window
    trace = ScenarioTrace(
        name="mutations", graph_spec="grid:4x4", duration_ms=120.0,
        seed=5, base_rate_per_ms=0.2, window_ms=60.0,
        events=(
            ScenarioEvent(at_ms=20.0, kind="probe", s=0, t=1),
            ScenarioEvent(at_ms=30.0, kind="shard_down", shard=1),
            ScenarioEvent(at_ms=40.0, kind="probe", s=5, t=9,
                          faults=(6,)),
            ScenarioEvent(at_ms=60.0, kind="shard_recover", shard=1),
        ),
    )
    assert trace_version(trace) == 1
    return trace


#: the three trace kinds, each small enough for one fast replay; the
#: traffic trace runs past 400 ms so its shard outage begins
TRACES = {
    "scenario": library_trace,
    "traffic": lambda: traffic_trace(
        seed=1, duration_ms=420.0, multiplier=0.25
    ),
    "serve-chaos": lambda: random_shard_plan(
        "grid:4x4", seed=3, num_events=16
    ),
}

RUNNERS = {
    name: (lambda make=make: run_trace(make()).violations)
    for name, make in TRACES.items()
}

#: runner-invariant mutation -> (installer, phrase, traces it applies to)
RULE_MUTATIONS = {
    "skip_shard_action": (
        skip_shard_action, "but the action stream says", sorted(RUNNERS),
    ),
    "forced_breaker_trip": (
        forced_breaker_trip, "no action made it unhealthy", sorted(RUNNERS),
    ),
    "inflated_attempts": (
        inflated_attempts, "fetch attempts exceeds the bound",
        sorted(RUNNERS),
    ),
    "degraded_after_recovery": (
        degraded_after_recovery, "marked exact but answered degraded",
        ["serve-chaos"],
    ),
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


@pytest.mark.parametrize(
    "name, runner",
    [
        (name, runner)
        for name, (_, _, runners) in RULE_MUTATIONS.items()
        for runner in runners
    ],
    ids=lambda value: value,
)
def test_runner_rule_mutation_is_flagged(inject, monkeypatch, name, runner):
    installer, phrase, _ = RULE_MUTATIONS[name]
    if installer in (skip_shard_action, forced_breaker_trip):
        installer(monkeypatch)
    else:
        inject(installer)
    violations = RUNNERS[runner]()
    assert any(phrase in v for v in violations), violations[:5]


@pytest.mark.parametrize("runner", ["scenario", "traffic"])
def test_late_reply_is_flagged(inject, runner):
    inject(late_first_reply)
    violations = RUNNERS[runner]()
    assert any("silent timeout" in v for v in violations), violations[:5]


def scripted(graph_spec, *rows, seed):
    """A serve-chaos style trace of the given scripted rows."""
    return ScenarioTrace(
        name="scripted", graph_spec=graph_spec, duration_ms=100.0,
        seed=seed, base_rate_per_ms=0.0, cache_capacity=None,
        service_deadline_ms=150.0,
        events=tuple(ScenarioEvent(None, kind, **fields)
                     for kind, fields in rows),
    )


def test_serve_chaos_judges_zero_distance(inject):
    """``s = t`` is a real query; its exact answer must be exactly 0."""
    inject(lambda service, outcome: replace(
        outcome, distance=outcome.distance + 2
    ) if outcome.exact else outcome)
    trace = scripted(
        "grid:4x4",
        ("query", dict(s=3, t=3)),
        ("query", dict(s=0, t=5)),
        seed=3,
    )
    violations = run_trace(trace).violations
    assert len(violations) == 2, violations
    assert "query(3, 3)" in violations[0]
    assert "query(0, 5)" in violations[1]


def test_serve_chaos_flags_every_answer_from_an_unknown_generation(inject):
    inject(uncommitted_generation)
    trace = scripted(
        "grid:4x4",
        ("rollout_begin", dict(edge=(0, 1))),
        ("query", dict(s=0, t=5)),
        ("query", dict(s=0, t=15)),
        ("rollout_commit", {}),
        ("query", dict(s=0, t=1)),
        seed=4,
    )
    violations = run_trace(trace).violations
    assert len(violations) == 3, violations
    assert all("unknown label generation 99" in v for v in violations)


def test_serve_chaos_judges_post_recovery_probes(inject):
    """Probes after healing are judged on truth, not only on status."""
    inject(above_bound)
    trace = scripted(
        "grid:2x2",
        ("shard_down", dict(shard=0)),
        ("shard_recover", dict(shard=0)),
        ("advance", dict(duration_ms=500.0)),
        ("query", dict(s=0, t=3, exact=True)),
        ("query", dict(s=1, t=2, exact=True)),
        ("query", dict(s=2, t=0, exact=True)),
        seed=6,
    )
    violations = run_trace(trace).violations
    assert violations
    assert all("exact query(" in v for v in violations)
