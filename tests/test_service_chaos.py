"""Serve-chaos schedules: shard actions and queries as scenario traces.

Serve-chaos schedules are v2 scenario traces of scripted rows
(:func:`repro.scenario.random_shard_plan`), replayed by the one
:class:`~repro.scenario.ScenarioRunner`.  The fast smoke subset runs in
the default test run; the full acceptance battery (20 mixed shard-fault
schedules) carries the ``chaos`` marker.
"""

import pytest

from repro.exceptions import ScenarioError
from repro.scenario import (
    EVENT_KINDS,
    NETWORK_KINDS,
    ScenarioEvent,
    ScenarioTrace,
    compile_trace,
    random_shard_plan,
    recovery_probes,
    run_trace,
    serve_chaos_suite,
)
from repro.scenario.compile import build_graph
from repro.scenario.runner import ScenarioRunner
from repro.scenario.trace import SCRIPT_ONLY_KINDS, V1_KINDS
from repro.service import SHARD_EVENT_KINDS


def row(kind, **fields):
    return ScenarioEvent(None, kind, **fields)


def schedule(graph_spec, rows, seed, num_shards=4, replication=2):
    """A serve-chaos style trace: scripted rows, no open-loop traffic.

    Like every generated schedule it ends with the healed tier's check:
    two breaker cooldowns, then three probes that must be exact.
    """
    closing = recovery_probes(build_graph(graph_spec).num_vertices, seed)
    return ScenarioTrace(
        name="scripted", graph_spec=graph_spec, duration_ms=1100.0,
        seed=seed, base_rate_per_ms=0.0, num_shards=num_shards,
        replication=replication, events=(*rows, *closing),
        cache_capacity=None, service_deadline_ms=150.0,
    )


def replay(trace):
    runner = ScenarioRunner(compile_trace(trace))
    return runner, runner.run()


def all_healthy(store):
    return all(store.health(s).healthy for s in range(store.num_shards))


class TestShardEventDSL:
    def test_kind_partition_is_disjoint_and_complete(self):
        # shard rows are serving rows; network rows are scripted-only
        # kinds no v1 file carries
        assert SHARD_EVENT_KINDS < EVENT_KINDS - NETWORK_KINDS
        assert NETWORK_KINDS < SCRIPT_ONLY_KINDS
        assert NETWORK_KINDS & V1_KINDS == frozenset()

    def test_shard_events_validated(self):
        with pytest.raises(ScenarioError):
            row("shard_down")  # no shard
        with pytest.raises(ScenarioError):
            row("shard_slow", shard=0)  # no latency
        with pytest.raises(ScenarioError):
            row("shard_slow", shard=0, latency_ms=-1.0)
        with pytest.raises(ScenarioError):
            row("shard_flaky", shard=0, probability=1.5)
        with pytest.raises(ScenarioError):
            row("shard_corrupt", shard=0, fraction=0.0)
        with pytest.raises(ScenarioError):
            row("query", s=0)  # no t
        with pytest.raises(ScenarioError):
            row("advance")  # no duration_ms

    def test_random_shard_plan_deterministic(self):
        a = random_shard_plan("grid:4x4", seed=11, num_events=30)
        b = random_shard_plan("grid:4x4", seed=11, num_events=30)
        assert a == b
        c = random_shard_plan("grid:4x4", seed=12, num_events=30)
        assert a.events != c.events

    def test_random_shard_plan_events_valid(self):
        trace = random_shard_plan(
            "grid:4x4", num_shards=3, seed=2, num_events=50
        )
        down: set[int] = set()
        for event in trace.events:
            assert event.scripted
            assert event.kind in SHARD_EVENT_KINDS | {"query", "advance"}
            if event.kind == "shard_down":
                assert event.shard not in down  # no double-down
                down.add(event.shard)
            elif event.kind == "shard_recover":
                down.discard(event.shard)
            elif event.kind == "query":
                assert event.s != event.t
                assert event.s not in event.faults
                assert event.t not in event.faults
        assert not down  # stabilize tail healed everything

    def test_stabilize_tail_ends_with_probes(self):
        trace = random_shard_plan("grid:4x4", seed=4, num_events=20)
        tail = trace.events[-9:]
        assert tail[0].kind == "advance"
        assert all(e.kind == "query" and not e.exact for e in tail[1:5])
        # the healed tier's check: two cooldowns, three exact probes
        assert tail[5:] == recovery_probes(16, trace.seed)
        assert tail[5].kind == "advance" and tail[5].duration_ms == 500.0
        assert all(e.kind == "query" and e.exact for e in tail[6:])

    def test_random_plans_exercise_crash_and_restart(self):
        kinds: set[str] = set()
        for seed in range(8):
            trace = random_shard_plan("grid:4x4", seed=seed, num_events=40)
            kinds |= {e.kind for e in trace.events}
            crashed: set[int] = set()
            for event in trace.events:
                if event.kind == "shard_crash":
                    crashed.add(event.shard)
                elif event.kind in ("shard_restart", "shard_recover"):
                    crashed.discard(event.shard)
            assert not crashed  # every crash is eventually restarted
        assert "shard_crash" in kinds
        assert "shard_restart" in kinds


class TestServiceChaosRunner:
    def test_scripted_outage_window(self):
        """Down both replicas of a vertex, query, recover, query again."""
        runner, report = replay(schedule("grid:4x4", [
            row("query", s=0, t=15),
            row("shard_down", shard=0),
            row("shard_down", shard=1),
            row("query", s=0, t=15),  # vertex 0 lives on shards {0, 1}
            row("shard_recover", shard=0),
            row("shard_recover", shard=1),
            row("advance", duration_ms=600.0),
            row("query", s=0, t=15),
        ], seed=5))
        assert report.ok, report.violations
        assert report.exact >= 2 + 3
        assert report.degraded == 1
        assert all_healthy(runner.service.store)

    def test_scripted_crash_restart_window(self):
        """Crash both replicas of a vertex, restart, and demand exact answers.

        A restart forces a genuine reload from the simulated disk: the
        runner attaches a :class:`SimulatedFS` durability root, so the
        shard's labels round-trip through the WAL + snapshot on the way
        back, and post-restart probes must match the pristine answers.
        """
        runner, report = replay(schedule("grid:4x4", [
            row("query", s=0, t=15),
            row("shard_crash", shard=0),
            row("shard_crash", shard=1),
            row("query", s=0, t=15),  # vertex 0 lives on shards {0, 1}
            row("shard_restart", shard=0),
            row("shard_restart", shard=1),
            row("advance", duration_ms=600.0),
            row("query", s=0, t=15),
            row("query", s=3, t=12),
        ], seed=6))
        assert report.ok, report.violations
        assert report.exact >= 3 + 3
        assert report.degraded == 1
        assert all_healthy(runner.service.store)

    def test_crash_then_recover_event_requires_restart_semantics(self):
        """A mixed schedule interleaving crashes with classic faults."""
        report = run_trace(schedule("cycle:12", [
            row("shard_slow", shard=2, latency_ms=40.0),
            row("shard_crash", shard=0),
            row("query", s=1, t=7),
            row("shard_restart", shard=0),
            row("shard_recover", shard=2),
            row("advance", duration_ms=600.0),
            row("query", s=1, t=7),
        ], seed=7, num_shards=3))
        assert report.ok, report.violations
        assert report.queries == 2 + 3

    def test_smoke_schedules_zero_violations(self):
        for seed in (1, 2):
            trace = random_shard_plan(
                "grid:4x4", num_shards=4, num_events=25, seed=seed
            )
            runner, report = replay(trace)
            assert report.ok, report.violations
            assert report.queries > 0
            # the service counted every scripted query, probes included
            assert runner.service.metrics.queries == report.queries

    def test_unreplicated_outage_degrades_not_lies(self):
        report = run_trace(schedule("cycle:12", [
            row("shard_down", shard=0),
            row("query", s=0, t=6),
            row("query", s=1, t=7),
            row("shard_recover", shard=0),
            row("advance", duration_ms=600.0),
        ], seed=9, num_shards=3, replication=1))
        assert report.ok, report.violations
        assert report.degraded >= 1
        assert report.queries == 2 + 3

    def test_runner_rejects_network_events(self):
        # network rows replay on the network simulator, never the stack
        trace = ScenarioTrace(
            name="network", graph_spec="grid:4x4", duration_ms=1.0,
            base_rate_per_ms=0.0, events=(row("fail_vertex", vertex=3),),
        )
        with pytest.raises(ScenarioError, match="is a network row"):
            replay(trace)

    def test_report_summary_mentions_counts(self):
        report = run_trace(random_shard_plan("grid:4x4", seed=6,
                                             num_events=20))
        text = report.summary()
        assert "requests" in text and "breaker trips" in text


@pytest.mark.chaos
class TestServiceAcceptanceBattery:
    """20 seeded schedules over the standard matrix, zero violations."""

    def test_standard_suite_clean(self):
        reports = [
            run_trace(trace)
            for trace in serve_chaos_suite(num_schedules=20, num_events=60,
                                           seed=0)
        ]
        assert len(reports) == 20
        violations = [v for r in reports for v in r.violations]
        assert violations == []
        # the battery must actually exercise both outcomes and recovery
        assert sum(r.degraded for r in reports) > 0
        assert sum(r.exact for r in reports) > 0
        assert all(r.queries > 0 for r in reports)
