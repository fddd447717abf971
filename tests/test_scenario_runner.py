"""Tests for scenario compilation and full-stack replay."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.exceptions import ScenarioError
from repro.gateway import GatewayConfig, QuotaPolicy, TrafficGenerator
from repro.graphs.traversal import bfs_distances
from repro.obs import Registry, render_prometheus
from repro.scenario import (
    ScenarioEvent,
    ScenarioTrace,
    TraceTenant,
    catalogue,
    compile_trace,
    load_scenario,
    parse_trace,
    run_trace,
    scenario_paths,
    serialize_trace,
    traffic_trace,
)
from repro.scenario.compile import PROBE_TENANT
from repro.scenario.trace import TraceBurst, TraceSLO

#: replay reports of the committed library, one ``<name>.json`` each;
#: regenerate (only after a deliberate behaviour change) with
#:   for f in scenarios/*.scenario; do
#:     PYTHONPATH=src python -m repro scenario run "$f" --format json \
#:       > "tests/golden/scenarios/$(basename "$f" .scenario).json"
#:   done
GOLDEN_DIR = Path(__file__).parent / "golden" / "scenarios"


def small_trace(**overrides) -> ScenarioTrace:
    values = dict(
        name="small",
        graph_spec="grid:5x5",
        duration_ms=200.0,
        seed=3,
        base_rate_per_ms=0.3,
        window_ms=50.0,
        events=(
            ScenarioEvent(at_ms=40.0, kind="ball_outage", center=12,
                          radius=1, duration_ms=80.0),
            ScenarioEvent(at_ms=60.0, kind="probe", s=0, t=24,
                          faults=(12,)),
            ScenarioEvent(at_ms=100.0, kind="shard_down", shard=0),
            ScenarioEvent(at_ms=150.0, kind="shard_recover", shard=0),
        ),
    )
    values.update(overrides)
    return ScenarioTrace(**values)


class TestCompile:
    def test_outage_resolves_ball(self):
        # B(12, 1) on grid:5x5: every fault drawn in the 40-120 ms window
        # lies inside the ball, and the window does draw faults
        trace = small_trace()
        stream = TrafficGenerator(
            compile_trace(trace).graph, trace, seed=3
        ).generate()
        inside = [
            set(timed.request.vertex_faults) for timed in stream
            if 40.0 <= timed.at_ms < 120.0
        ]
        assert any(inside)
        assert set().union(*inside) <= {7, 11, 12, 13, 17}

    def test_flash_crowd_tiles_duration(self):
        # 3x the base rate inside [50, 110), the base rate around it
        trace = small_trace(events=(
            ScenarioEvent(at_ms=50.0, kind="flash_crowd", multiplier=3.0,
                          duration_ms=60.0),
        ))
        stream = TrafficGenerator(
            compile_trace(trace).graph, trace, seed=3
        ).generate()
        inside = sum(1 for timed in stream if 50.0 <= timed.at_ms < 110.0)
        outside = len(stream) - inside
        assert inside / 60.0 > 2 * outside / 140.0

    def test_overlapping_flash_crowds_rejected(self):
        trace_events = (
            ScenarioEvent(at_ms=50.0, kind="flash_crowd", multiplier=2.0,
                          duration_ms=100.0),
            ScenarioEvent(at_ms=100.0, kind="flash_crowd", multiplier=3.0,
                          duration_ms=50.0),
        )
        with pytest.raises(ScenarioError, match="overlap"):
            compile_trace(small_trace(events=trace_events))

    def test_maintenance_unrolls_to_rolling_windows(self):
        trace = small_trace(events=(
            ScenarioEvent(at_ms=20.0, kind="maintenance", shards=(0, 1),
                          window_ms=30.0),
        ))
        compiled = compile_trace(trace)
        rows = [(a.at_ms, a.kind, a.shard) for a in compiled.actions]
        assert rows == [
            (20.0, "shard_down", 0),
            (50.0, "shard_recover", 0),
            (50.0, "shard_down", 1),
            (80.0, "shard_recover", 1),
        ]

    def test_vertex_out_of_range_rejected(self):
        trace = small_trace(events=(
            ScenarioEvent(at_ms=10.0, kind="ball_outage", center=99,
                          radius=1, duration_ms=20.0),
        ))
        with pytest.raises(ScenarioError, match="outside the graph"):
            compile_trace(trace)

    def test_rollout_edge_must_exist(self):
        trace = small_trace(events=(
            ScenarioEvent(at_ms=10.0, kind="rollout_begin", edge=(0, 24)),
            ScenarioEvent(at_ms=20.0, kind="rollout_commit"),
        ))
        with pytest.raises(ScenarioError, match="not in the graph"):
            compile_trace(trace)

    def test_probe_tenant_reserved(self):
        trace = small_trace(tenants=(TraceTenant(PROBE_TENANT),))
        with pytest.raises(ScenarioError, match="reserved"):
            compile_trace(trace)

    def test_maintenance_sweep_must_end_within_the_run(self):
        # 850 + 2 x 100 = 1050 > 900: the second shard's window would be
        # cut off, leaving shard 0 down and shard 1 never touched
        trace = ScenarioTrace(
            name="late-sweep", graph_spec="grid:4x4", duration_ms=900.0,
            events=(ScenarioEvent(at_ms=850.0, kind="maintenance",
                                  shards=(0, 1), window_ms=100.0),),
        )
        with pytest.raises(ScenarioError, match="after the scenario") as err:
            compile_trace(trace)
        assert err.value.field == "window_ms"
        # a sweep that ends exactly at the duration still compiles
        compile_trace(replace(trace, duration_ms=1050.0))

    def test_scripted_rows_keep_file_order(self):
        trace = small_trace(base_rate_per_ms=0.0, events=(
            ScenarioEvent(None, "shard_down", shard=0),
            ScenarioEvent(None, "query", s=0, t=24, exact=True),
            ScenarioEvent(None, "shard_slow", shard=1, latency_ms=40.0),
            ScenarioEvent(None, "advance", duration_ms=30.0),
            ScenarioEvent(None, "shard_corrupt", shard=2, fraction=0.5),
        ))
        compiled = compile_trace(trace)
        assert compiled.actions == () and compiled.probes == ()
        assert compiled.script == trace.events
        assert [r.kind for r in compiled.script] == [
            "shard_down", "query", "shard_slow", "advance", "shard_corrupt",
        ]
        assert compiled.script[4].fraction == 0.5

    @pytest.mark.parametrize("shaping, what", [
        (dict(events=(ScenarioEvent(at_ms=40.0, kind="ball_outage",
                                    center=12, radius=1,
                                    duration_ms=80.0),)),
         "event 0 (ball_outage)"),
        (dict(events=(ScenarioEvent(at_ms=40.0, kind="outage",
                                    vertices=(11, 12), duration_ms=80.0),)),
         "event 0 (outage)"),
        (dict(events=(ScenarioEvent(at_ms=50.0, kind="flash_crowd",
                                    multiplier=3.0, duration_ms=60.0),)),
         "event 0 (flash_crowd)"),
        (dict(events=(), burst=TraceBurst(at_ms=10.0, duration_ms=50.0,
                                          radius=1, fault_rate=0.5)),
         "burst"),
        (dict(events=(), tenants=(TraceTenant("batch"),)), "tenant rows"),
        (dict(events=(), tenants=(
            TraceTenant("default", quota_rate=1.0, quota_burst=10.0),
        )), "tenant rows"),
    ])
    def test_rate_zero_rejects_traffic_shaping(self, shaping, what):
        # with no open-loop traffic these would replay as if absent
        with pytest.raises(ScenarioError, match="but rate 0 has none") \
                as err:
            compile_trace(small_trace(base_rate_per_ms=0.0, **shaping))
        assert what in str(err.value)
        # the same trace with traffic compiles
        compile_trace(small_trace(**shaping))

    def test_gateway_header_and_quotas_lower_to_the_config(self):
        trace = traffic_trace(seed=0, duration_ms=150.0)
        gateway = compile_trace(trace).gateway
        assert gateway.per_tenant_capacity == 24
        assert gateway.default_quota == QuotaPolicy(2.0, 40.0)
        assert dict(gateway.tenant_quotas) == {
            "aggregator": QuotaPolicy(1.0, 30.0)
        }
        # a v1 trace replays behind the default gateway
        assert compile_trace(small_trace()).gateway == GatewayConfig()

    def test_drawn_burst_lowers_without_a_center(self):
        # the burst header opens 450-700 ms around a drawn center, and
        # each request's fault count is capped by its tenant
        trace = traffic_trace(seed=0, duration_ms=1000.0)
        graph = compile_trace(trace).graph
        cap = {tenant.name: tenant.max_faults for tenant in trace.tenants}
        in_burst = [
            timed.request
            for timed in TrafficGenerator(graph, trace, seed=2).generate()
            if 450.0 <= timed.at_ms < 700.0 and timed.request.vertex_faults
        ]
        assert in_burst
        for request in in_burst:
            assert len(request.vertex_faults) <= cap[request.tenant]
        faults = set().union(*(r.vertex_faults for r in in_burst))
        assert any(
            faults <= set(bfs_distances(graph, center, radius=2))
            for center in range(graph.num_vertices)
        )


class TestReplay:
    def test_replay_is_clean_and_judged(self):
        report = run_trace(small_trace())
        assert report.ok, report.violations
        assert report.submitted > 0
        assert report.probes == 1
        assert report.exact + report.degraded + report.shed \
            == report.submitted
        # one judgment per outcome, one truth check per served one, one
        # health check per applied action and one breaker check
        assert report.checks_performed \
            == report.submitted + report.exact + report.degraded \
            + report.events_applied + 1

    def test_replay_is_byte_deterministic(self):
        first = run_trace(small_trace())
        second = run_trace(small_trace())
        assert first.to_json() == second.to_json()

    def test_seed_changes_the_replay(self):
        first = run_trace(small_trace())
        second = run_trace(small_trace().with_seed(4))
        assert first.to_json() != second.to_json()

    def test_windows_tile_the_duration(self):
        report = run_trace(small_trace())
        assert len(report.windows) == 4
        assert report.windows[0].start_ms == 0.0
        assert report.windows[-1].end_ms == 200.0
        assert sum(row.submitted for row in report.windows) \
            == report.submitted - report.shed + sum(
                row.shed for row in report.windows
            )

    def test_probe_detour_is_observed(self):
        # faults 11,12,13 wall off the middle row around the probe path
        trace = small_trace(events=(
            ScenarioEvent(at_ms=40.0, kind="outage", vertices=(11, 12, 13),
                          duration_ms=100.0),
            ScenarioEvent(at_ms=60.0, kind="probe", s=10, t=14,
                          faults=(11, 12, 13)),
        ))
        report = run_trace(trace)
        assert report.ok, report.violations
        # fault-free 10->14 is 4; the wall forces a detour of 8
        assert report.worst_detour == pytest.approx(2.0)

    def test_rollout_mid_replay_judged_per_version(self):
        trace = small_trace(events=(
            ScenarioEvent(at_ms=40.0, kind="rollout_begin", edge=(0, 1)),
            ScenarioEvent(at_ms=100.0, kind="rollout_commit"),
            ScenarioEvent(at_ms=150.0, kind="probe", s=0, t=24),
        ))
        report = run_trace(trace)
        assert report.ok, report.violations
        assert report.events_applied == 2

    def test_metrics_exported(self):
        obs = Registry()
        run_trace(small_trace(), obs=obs)
        text = render_prometheus(obs)
        assert "repro_scenario_availability" in text
        assert "repro_scenario_worst_detour" in text
        assert "repro_chaos_events_total" in text


class TestScriptedRows:
    def test_a_query_delays_the_rows_after_it(self):
        # every shard slow: the first query alone takes > 30 ms, so the
        # second one starts in a later 10 ms window although no gap
        # separates them
        rows = [
            ScenarioEvent(None, "shard_slow", shard=shard, latency_ms=40.0)
            for shard in range(4)
        ] + [
            ScenarioEvent(None, "query", s=0, t=24),
            ScenarioEvent(None, "query", s=4, t=20),
            ScenarioEvent(None, "advance", duration_ms=5.0),
        ]
        report = run_trace(small_trace(
            base_rate_per_ms=0.0, window_ms=10.0, events=tuple(rows),
        ))
        assert report.ok, report.violations
        assert report.queries == 2 and report.submitted == 2
        assert report.windows[0].submitted == 1
        assert sum(row.submitted for row in report.windows[3:]) == 1
        assert report.events_applied == 4

    def test_runner_invariants_hold_on_a_v1_replay(self):
        report = run_trace(small_trace())
        assert report.ok, report.violations
        # shard 0 went down and came back: two health checks, and the
        # breakers were checked once
        assert report.events_applied == 2
        assert report.client["attempts"] > 0

    def test_slo_gate_is_opt_in(self):
        assert run_trace(small_trace()).ok
        strict = TraceSLO(p99_ms=0.001, shed_rate=1.0, goodput=0.0,
                          fairness=1000.0, service_fraction=0.0)
        report = run_trace(small_trace(slo=strict))
        assert any(v.startswith("SLO: p99") for v in report.violations)


class TestLibrary:
    def test_library_is_discoverable(self):
        paths = scenario_paths()
        assert len(paths) >= 6
        names = {path.stem for path in paths}
        assert {
            "regional-ball-outage", "cascading-double-ball",
            "rolling-maintenance", "flash-crowd-during-outage",
            "crash-storm-mid-rollout", "adversarial-found",
        } <= names

    def test_every_library_file_parses_and_compiles(self):
        for name, path, trace in catalogue():
            compiled = compile_trace(trace)
            assert compiled.trace.name == name

    def test_library_files_are_canonical_bytes(self):
        for path in scenario_paths():
            text = path.read_text(encoding="utf-8")
            assert serialize_trace(parse_trace(text)) == text, path

    def test_load_scenario_missing_file(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario("/nonexistent/path.scenario")

    @pytest.mark.chaos
    def test_full_library_battery_replays_clean_and_deterministic(self):
        for name, path, trace in catalogue():
            first = run_trace(trace)
            assert first.ok, (name, first.violations)
            second = run_trace(trace)
            assert first.to_json() == second.to_json(), name
            golden = (GOLDEN_DIR / f"{path.stem}.json").read_text(
                encoding="utf-8"
            )
            assert first.to_json() == golden, name
