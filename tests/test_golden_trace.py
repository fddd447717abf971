"""Golden-trace regression test for the observed serve-chaos battery.

The observability layer promises *bit-determinism*: a seeded chaos
battery with every hook live must export byte-identical metrics JSON
on every run, on every host.  ``tests/golden/serve_chaos_metrics.json``
pins one such export; any drift in event scheduling, retry policy,
metric arithmetic or exporter rendering shows up here as a readable
JSON diff instead of a silent behavior change.

Updating the golden (only after deliberately changing observed
behavior — never to paper over nondeterminism):

    PYTHONPATH=src python -m repro metrics --schedules 4 --events 30 \\
        --seed 0 --format json > tests/golden/serve_chaos_metrics.json

then inspect the diff and explain it in the commit message.  The same
recipe is documented in docs/observability.md.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.registry import Registry
from repro.scenario import run_trace, serve_chaos_suite

GOLDEN_PATH = Path(__file__).parent / "golden" / "serve_chaos_metrics.json"

GOLDEN_SCHEDULES = 4
GOLDEN_EVENTS = 30
GOLDEN_SEED = 0


def metrics_json(capsys, schedules: int, events: int, seed: int) -> str:
    """What ``repro metrics --format json`` prints (it must exit 0)."""
    capsys.readouterr()
    argv = ["metrics", "--schedules", str(schedules), "--events",
            str(events), "--seed", str(seed), "--format", "json"]
    assert main(argv) == 0
    return capsys.readouterr().out


def test_export_matches_committed_golden(capsys):
    fresh = metrics_json(capsys, GOLDEN_SCHEDULES, GOLDEN_EVENTS, GOLDEN_SEED)
    committed = GOLDEN_PATH.read_text(encoding="utf-8")
    if fresh != committed:
        fresh_names = set(
            m["name"] for m in json.loads(fresh)["metrics"]
        )
        committed_names = set(
            m["name"] for m in json.loads(committed)["metrics"]
        )
        pytest.fail(
            "metrics export drifted from tests/golden/serve_chaos_metrics.json"
            f" (added: {sorted(fresh_names - committed_names)},"
            f" removed: {sorted(committed_names - fresh_names)},"
            " changed values: diff the file; update path in module docstring)"
        )


def test_golden_battery_is_clean():
    registry = Registry()
    reports = [
        run_trace(trace, obs=registry)
        for trace in serve_chaos_suite(
            num_schedules=GOLDEN_SCHEDULES,
            num_events=GOLDEN_EVENTS,
            seed=GOLDEN_SEED,
        )
    ]
    assert all(not report.violations for report in reports)
    assert registry.total("repro_queries_total") > 0
    assert registry.total("repro_scenario_violations_total") == 0


def test_acceptance_battery_bit_identical_across_runs(capsys):
    """The full 20-schedule battery, run twice, exports byte-identical
    metrics JSON."""
    one = metrics_json(capsys, 20, 60, 0)
    two = metrics_json(capsys, 20, 60, 0)
    assert one == two
