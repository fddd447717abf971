"""The exhaustive kill-point crash battery and its CLI.

The smoke tests run a reduced battery (small graph, one churn round);
the full acceptance battery — every kill-point of the default workload
under every crash mode, ≥ 200 crashes — carries the ``chaos`` marker.
"""

import pytest

from repro.cli import main
from repro.durability import CRASH_MODES, build_workload, exhaustive_crash_battery
from repro.durability.battery import prefix_states
from repro.graphs.generators import grid_graph, path_graph


class TestWorkload:
    def test_deterministic_under_seed(self):
        vertices = list(range(9))
        assert build_workload(vertices, seed=4) == build_workload(vertices, seed=4)
        assert build_workload(vertices, seed=4) != build_workload(vertices, seed=5)

    def test_prefix_states_track_ops(self):
        payloads = {0: b"a", 1: b"b", 2: b"c"}
        ops = build_workload([0, 1, 2], seed=0, churn_rounds=1)
        states = prefix_states(ops, payloads)
        assert states[0] == {}
        assert len(states) == len(ops) + 1
        # after the bulk load every vertex is present
        assert states[3] == payloads
        # churn deletes then re-puts, so the final state is full again
        assert states[-1] == payloads


class TestBatterySmoke:
    def test_small_battery_passes(self):
        report = exhaustive_crash_battery(
            path_graph(6), epsilon=1.0, seed=1, churn_rounds=1
        )
        assert report.passed, report.violations[:5]
        assert report.crashes_fired == report.kill_points
        assert report.kill_points == report.fs_ops * len(CRASH_MODES)
        # every mode actually exercised, and recovery had real work to do
        assert all(report.mode_counts[m] > 0 for m in CRASH_MODES)
        assert report.torn_tails_truncated > 0
        assert report.tmp_files_swept > 0
        assert report.probe_queries > 0

    def test_probe_past_the_stretch_bound_fails(self, monkeypatch):
        """Stretch 1.9 lies inside 1 + ε = 2 but outside the scheme's
        ``stretch_bound()`` of 1.75 at ε = 1, which the judge enforces."""
        import repro.durability.battery as battery

        honest = battery.KernelDecoder.decode

        def stretched(self, label_s, label_t, faults=None, tracer=None):
            result = honest(self, label_s, label_t, faults, tracer)
            return type(result)(
                1.9 * result.distance, result.path, result.sketch_vertices,
                result.sketch_edges,
            )

        monkeypatch.setattr(battery.KernelDecoder, "decode", stretched)
        report = exhaustive_crash_battery(
            path_graph(6), epsilon=1.0, seed=1, churn_rounds=1
        )
        assert not report.passed
        assert report.probe_queries > 0
        assert all(
            "1.750×" in v and "silently wrong" in v for v in report.violations
        ), report.violations[:3]

    def test_battery_deterministic(self):
        a = exhaustive_crash_battery(path_graph(5), seed=2, churn_rounds=1)
        b = exhaustive_crash_battery(path_graph(5), seed=2, churn_rounds=1)
        assert a == b


@pytest.mark.chaos
class TestBatteryFull:
    def test_default_battery_meets_acceptance(self):
        """≥ 200 kill-points across all three modes, zero violations."""
        report = exhaustive_crash_battery(grid_graph(4, 4), epsilon=1.0, seed=0)
        assert report.kill_points >= 200
        assert report.crashes_fired == report.kill_points
        assert report.passed, report.violations[:10]

    def test_battery_passes_across_seeds(self):
        for seed in range(3):
            report = exhaustive_crash_battery(
                grid_graph(3, 3), epsilon=1.0, seed=seed, churn_rounds=2
            )
            assert report.passed, (seed, report.violations[:5])


class TestCrashBatteryCli:
    def test_cli_smoke(self, capsys):
        code = main([
            "crash-battery", "grid:3x3", "--seed", "3", "--churn-rounds", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "durability:   OK" in out
        assert "kill-points:" in out

    def test_cli_reports_modes(self, capsys):
        code = main([
            "crash-battery", "path:5", "--churn-rounds", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for mode in CRASH_MODES:
            assert mode in out
