"""Chaos-injection tests: hostile schedules, hostile timing, hostile bytes.

The fast smoke subset runs in the default test run; the full acceptance
battery (20 churn schedules, 1000-trial corruption fuzz) carries the
``chaos`` marker.
"""

import io

import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosRunner,
    FaultPlan,
    MUTATION_KINDS,
    fuzz_database,
    mutate,
    random_churn_plan,
    run_plan,
    standard_suite,
)
from repro.exceptions import EncodingError, QueryError
from repro.graphs.generators import cycle_graph, grid_graph, path_graph
from repro.labeling import ForbiddenSetLabeling
from repro.oracle.persistence import LabelDatabase, save_labels


@pytest.fixture(scope="module")
def db_blob():
    graph = grid_graph(5, 5)
    scheme = ForbiddenSetLabeling(graph, epsilon=1.0)
    buffer = io.BytesIO()
    save_labels(scheme, buffer)
    return graph, buffer.getvalue()


PROBES = [(0, 24, ()), (0, 24, (12,)), (4, 20, (10, 14)), (2, 22, ())]


class TestFaultPlanDSL:
    def test_fluent_chain_records_events_in_order(self):
        plan = (
            FaultPlan()
            .fail_vertex(3)
            .fail_edge(0, 1)
            .propagate(2)
            .send(0, 8)
            .recover_edge(0, 1)
            .recover_vertex(3)
        )
        assert [e.kind for e in plan] == [
            "fail_vertex", "fail_edge", "propagate", "send",
            "recover_edge", "recover_vertex",
        ]
        assert plan.events[3].s == 0 and plan.events[3].t == 8
        assert len(plan) == 6

    def test_partition_normalizes_edge_orientation(self):
        plan = FaultPlan().partition([(5, 2), (1, 3)])
        assert plan.events[0].edges == ((2, 5), (1, 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            ChaosEvent(kind="explode")

    def test_missing_payload_rejected(self):
        with pytest.raises(QueryError):
            ChaosEvent(kind="send", s=0)
        with pytest.raises(QueryError):
            ChaosEvent(kind="fail_vertex")
        with pytest.raises(QueryError):
            ChaosEvent(kind="partition")

    def test_drop_probability_validated(self):
        with pytest.raises(QueryError):
            FaultPlan(drop_probability=1.5)

    def test_with_loss_copies_schedule(self):
        plan = FaultPlan().fail_vertex(1)
        lossy = plan.with_loss(0.5)
        assert lossy.drop_probability == 0.5
        assert lossy.events == plan.events
        assert plan.drop_probability == 0.0

    def test_random_plan_deterministic(self):
        g = grid_graph(4, 4)
        a = random_churn_plan(g, num_events=50, seed=9)
        b = random_churn_plan(g, num_events=50, seed=9)
        c = random_churn_plan(g, num_events=50, seed=10)
        assert a.events == b.events and a.seed == b.seed
        assert a.events != c.events

    def test_random_plan_events_are_valid(self):
        g = grid_graph(5, 5)
        plan = random_churn_plan(g, num_events=120, seed=3)
        failed_v, failed_e = set(), set()
        for event in plan:
            if event.kind == "fail_vertex":
                assert event.vertex not in failed_v
                failed_v.add(event.vertex)
            elif event.kind == "recover_vertex":
                assert event.vertex in failed_v
                failed_v.discard(event.vertex)
            elif event.kind == "fail_edge":
                assert event.edge not in failed_e
                failed_e.add(event.edge)
            elif event.kind == "recover_edge":
                assert event.edge in failed_e
                failed_e.discard(event.edge)
            elif event.kind == "partition":
                assert not set(event.edges) & failed_e
                failed_e.update(event.edges)
            elif event.kind == "heal_partition":
                assert set(event.edges) <= failed_e
                failed_e.difference_update(event.edges)
            elif event.kind == "send":
                assert event.s not in failed_v
                assert event.t not in failed_v

    def test_tiny_graph_rejected(self):
        with pytest.raises(QueryError):
            random_churn_plan(path_graph(3))


class TestChaosRunner:
    def test_scripted_reroute_around_known_failure(self):
        plan = (
            FaultPlan(name="reroute")
            .fail_vertex(4)
            .propagate(16)
            .send(0, 8)
        )
        report = run_plan(cycle_graph(16), plan)
        assert report.ok, report.violations
        assert report.packets_delivered == 1
        assert report.stretch_samples == 1  # flood saturated -> aware send

    def test_scripted_cut_is_detected_not_crossed(self):
        plan = FaultPlan(name="cut").fail_vertex(5).send(0, 9)
        report = run_plan(path_graph(10), plan)
        assert report.ok, report.violations
        assert report.packets_undeliverable == 1

    def test_send_to_failed_endpoint_must_be_rejected(self):
        plan = FaultPlan(name="bad endpoint").fail_vertex(4).send(0, 4)
        report = run_plan(path_graph(6), plan)
        assert report.ok, report.violations
        assert report.packets_sent == 0  # rejected loudly, never routed

    def test_recovery_and_partition_window_roundtrip(self):
        g = grid_graph(4, 4)
        cut = [(1, 5), (2, 6), (0, 4), (3, 7)]  # row 0 vs rest
        plan = (
            FaultPlan(name="partition window")
            .partition(cut)
            .propagate(8)
            .send(0, 15)
            .heal_partition(cut)
            .propagate(8)
            .send(0, 15)
        )
        report = run_plan(g, plan)
        assert report.ok, report.violations
        assert report.packets_undeliverable == 1
        assert report.packets_delivered == 1

    def test_misinformation_is_flagged(self):
        g = grid_graph(4, 4)
        runner = ChaosRunner(g, FaultPlan())
        runner.simulator.view(3).vertices.add(7)  # believe a healthy router dead
        runner._check_consistency(0, ChaosEvent(kind="propagate"))
        assert any("nonexistent" in v for v in runner._report.violations)

    def test_truth_divergence_is_flagged(self):
        g = grid_graph(4, 4)
        runner = ChaosRunner(g, FaultPlan())
        runner.simulator.fail_vertex(5)  # behind the runner's back
        runner._check_consistency(0, ChaosEvent(kind="propagate"))
        assert any("diverged" in v for v in runner._report.violations)

    def test_smoke_random_schedules(self):
        for i, graph in enumerate([grid_graph(5, 5), cycle_graph(20)]):
            plan = random_churn_plan(
                graph, num_events=40, seed=21 + i,
                drop_probability=0.2 * i,
                name=f"smoke {i}",
            )
            report = run_plan(graph, plan, probe_on_failure=i == 0)
            assert report.ok, report.violations
            assert report.packets_sent > 0


@pytest.mark.chaos
class TestChaosAcceptance:
    def test_standard_suite_runs_clean(self):
        reports = standard_suite(num_schedules=20, num_events=100, seed=0)
        assert len(reports) == 20
        violations = [v for r in reports for v in r.violations]
        assert not violations, violations[:10]
        assert all(r.events_applied >= 100 for r in reports)
        assert sum(r.packets_sent for r in reports) > 200
        assert sum(r.stretch_samples for r in reports) > 0


class TestCorruption:
    def test_mutate_deterministic(self, db_blob):
        _, blob = db_blob
        a = mutate(blob, rng=5)
        b = mutate(blob, rng=5)
        assert a == b

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_every_kind_changes_the_blob(self, db_blob, kind):
        _, blob = db_blob
        for seed in range(10):
            damaged, mutation = mutate(blob, rng=seed, kind=kind)
            assert damaged != blob
            assert mutation.kind == kind

    def test_unknown_kind_rejected(self, db_blob):
        _, blob = db_blob
        with pytest.raises(QueryError):
            mutate(blob, kind="cosmic_ray")

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_strict_load_rejects_all_kinds(self, db_blob, kind):
        _, blob = db_blob
        for seed in range(10):
            damaged, _ = mutate(blob, rng=seed, kind=kind)
            with pytest.raises(EncodingError):
                LabelDatabase.load(io.BytesIO(damaged), strict=True)

    def test_fuzz_smoke(self, db_blob):
        _, blob = db_blob
        report = fuzz_database(blob, PROBES, trials=150, seed=1)
        assert report.ok, report.silent_wrong[:5]
        assert report.trials == 150
        assert report.rejected_at_load == 150  # v2 catches every mutation

    def test_fuzz_quarantine_path_exercised(self, db_blob):
        _, blob = db_blob
        report = fuzz_database(blob, PROBES, trials=150, seed=1)
        # some mutations must have degraded gracefully and then answered
        # or refused per-label — never silently wrong
        assert report.quarantined_loads > 0
        assert report.exact_answers > 0
        assert report.rejected_at_query > 0


@pytest.mark.chaos
class TestCorruptionAcceptance:
    def test_thousand_seeded_mutations_never_silently_wrong(self, db_blob):
        _, blob = db_blob
        report = fuzz_database(blob, PROBES, trials=1000, seed=0)
        assert report.trials == 1000
        assert report.ok, report.silent_wrong[:10]
