"""Acceptance battery for the overload-resilient gateway.

The traffic battery is a generated scenario trace
(:func:`repro.scenario.traffic_trace`) replayed by the one
:class:`~repro.scenario.ScenarioRunner`.  The headline guarantees under
4x offered overload with a concurrent shard outage and a fault burst:

* every non-exact outcome carries an explicit ``DegradationReason`` —
  no silent timeouts, no silent wrong answers (exact answers are
  re-checked against BFS ground truth with the faults applied);
* per-tenant goodput stays within the fairness bound among genuinely
  backlogged tenants;
* the whole run is bit-identical for a fixed seed.

A moderate smoke run executes by default; the full-length battery and
the expensive double-run identity checks carry the ``chaos`` marker.
"""

import json
from dataclasses import replace

import pytest

from repro.obs.export import render_prometheus
from repro.obs.registry import Registry
from repro.scenario import compile_trace, run_trace, traffic_trace
from repro.scenario.runner import ScenarioRunner
from repro.service import SHED_REASONS


def battery(seed, duration_ms, obs=None):
    return run_trace(traffic_trace(seed=seed, duration_ms=duration_ms),
                     obs=obs)


@pytest.fixture(scope="module")
def smoke_report():
    # 500 virtual ms reaches the outage window (400-700 ms) and the
    # fault burst (450-700 ms), so degradations and all shed paths
    # are exercised, at roughly half the full battery's wall cost
    return battery(seed=0, duration_ms=500.0)


class TestSmokeRun:
    def test_battery_is_clean(self, smoke_report):
        assert smoke_report.ok, smoke_report.violations[:10]

    def test_real_overload_was_applied(self, smoke_report):
        # the run must actually be an overload test, not a breeze
        assert smoke_report.submitted > 1000
        assert smoke_report.shed > 0
        assert 0.0 < smoke_report.shed_rate < 1.0

    def test_all_shed_reasons_occur(self, smoke_report):
        expected = {str(reason) for reason in SHED_REASONS}
        assert set(smoke_report.shed_by_reason) == expected
        assert all(n > 0 for n in smoke_report.shed_by_reason.values())

    def test_every_served_outcome_was_judged(self, smoke_report):
        # one structural judgment per outcome (sheds included), one
        # ground-truth check per served (non-shed) request, one health
        # check per applied action and one breaker-attribution check
        served = smoke_report.exact + smoke_report.degraded
        assert served > 0
        assert smoke_report.events_applied == 1  # shard 0 down at 400 ms
        assert (
            smoke_report.checks_performed
            == smoke_report.submitted + served
            + smoke_report.events_applied + 1
        )

    def test_shed_accounting_is_complete(self, smoke_report):
        assert (
            smoke_report.exact + smoke_report.degraded + smoke_report.shed
            == smoke_report.submitted
        )
        assert (
            sum(smoke_report.shed_by_reason.values()) == smoke_report.shed
        )

    def test_outage_produced_explicit_degradations(self, smoke_report):
        # shard 0 is down 400-700 ms with no replica: some answers
        # must degrade, and each carries a reason (else .ok would be
        # False via the per-outcome judge)
        assert smoke_report.degraded > 0

    def test_fairness_held_among_backlogged_tenants(self, smoke_report):
        assert smoke_report.fairness_ratio <= 3.0

    def test_stretch_never_exceeded_the_scheme_bound(self, smoke_report):
        assert smoke_report.worst_stretch >= 1.0
        assert smoke_report.ok  # stretch violations would land here

    def test_report_roundtrips_through_json(self, smoke_report):
        blob = json.dumps(smoke_report.to_dict(), sort_keys=True)
        assert json.loads(blob)["ok"] is True
        assert json.loads(blob)["seed"] == 0
        assert "OK" in smoke_report.summary()


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        first = battery(seed=3, duration_ms=250.0)
        second = battery(seed=3, duration_ms=250.0)
        assert first.ok, first.violations[:10]
        assert first.to_json() == second.to_json()

    def test_different_seed_different_stream(self):
        first = battery(seed=3, duration_ms=250.0)
        other = battery(seed=4, duration_ms=250.0)
        assert other.ok, other.violations[:10]
        assert first.to_json() != other.to_json()


class TestExport:
    def test_slo_gauges_land_in_prometheus_text(self):
        obs = Registry()
        report = battery(seed=1, duration_ms=250.0, obs=obs)
        text = render_prometheus(obs)
        assert "repro_scenario_p99_total_ms" in text
        assert "repro_scenario_goodput_fraction" in text
        assert "repro_scenario_fairness_ratio" in text
        assert "repro_scenario_violations_total" in text
        # gateway-level families ride along on the same registry
        assert "repro_gateway_requests_total" in text
        assert report.ok, report.violations[:10]


@pytest.mark.chaos
class TestFullBattery:
    def test_full_second_at_4x_overload_is_clean(self):
        report = battery(seed=0, duration_ms=1000.0)
        assert report.ok, report.violations[:10]
        assert report.submitted > 3000
        expected = {str(reason) for reason in SHED_REASONS}
        assert set(report.shed_by_reason) == expected
        assert report.fairness_ratio <= 3.0

    def test_full_run_is_bit_identical(self):
        first = battery(seed=0, duration_ms=1000.0)
        second = battery(seed=0, duration_ms=1000.0)
        assert first.to_json() == second.to_json()

    def test_coalescing_and_cache_change_work_not_answers(self):
        trace = traffic_trace(seed=2, duration_ms=400.0)
        baseline = run_trace(trace)
        compiled = compile_trace(replace(trace, cache_capacity=None))
        stripped = ScenarioRunner(
            replace(compiled, gateway=replace(compiled.gateway,
                                              coalescing=False)),
        ).run()
        assert baseline.ok, baseline.violations[:10]
        assert stripped.ok, stripped.violations[:10]
        assert stripped.cache == {} and stripped.coalesced == 0
        # same offered stream either way; correctness never depends
        # on the optimisations being on
        assert baseline.submitted == stripped.submitted
