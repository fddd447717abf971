"""Tests for scenario compilation and full-stack replay."""

from pathlib import Path

import pytest

from repro.chaos.plan import FaultPlan
from repro.exceptions import ScenarioError
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
)
from repro.scenario.compile import PROBE_TENANT

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
        compiled = compile_trace(small_trace())
        (window,) = compiled.outages
        assert 12 in window.vertices
        assert set(window.vertices) == {7, 11, 12, 13, 17}

    def test_flash_crowd_tiles_duration(self):
        trace = small_trace(events=(
            ScenarioEvent(at_ms=50.0, kind="flash_crowd", multiplier=3.0,
                          duration_ms=60.0),
        ))
        compiled = compile_trace(trace)
        phases = compiled.traffic.phases
        assert [p.duration_ms for p in phases] == [50.0, 60.0, 90.0]
        assert [p.rate_multiplier for p in phases] == [1.0, 3.0, 1.0]

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
        rows = [(a.at_ms, a.event.kind, a.event.shard)
                for a in compiled.actions]
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

    def test_fault_plan_lowering_round_trips_as_json(self):
        plan = compile_trace(small_trace()).fault_plan()
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        kinds = {event.kind for event in plan.events}
        assert "query" in kinds  # probes + seeded in-window queries
        assert "shard_down" in kinds


class TestReplay:
    def test_replay_is_clean_and_judged(self):
        report = run_trace(small_trace())
        assert report.ok, report.violations
        assert report.submitted > 0
        assert report.probes == 1
        assert report.exact + report.degraded + report.shed \
            == report.submitted
        # one judgment per outcome plus one truth check per served one
        assert report.checks_performed \
            == report.submitted + report.exact + report.degraded

    def test_replay_is_byte_deterministic(self):
        first = run_trace(small_trace())
        second = run_trace(small_trace())
        assert first.to_json() == second.to_json()
        assert first.fingerprint == second.fingerprint

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
        assert "repro_scenario_events_total" in text


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
