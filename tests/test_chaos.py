"""Chaos-injection tests: hostile schedules, hostile timing, hostile bytes.

Network schedules are scenario traces of network rows, replayed by
:class:`~repro.chaos.ChaosRunner`.  The fast smoke subset runs in the
default test run; the full acceptance battery (20 churn schedules,
1000-trial corruption fuzz) carries the ``chaos`` marker.
"""

import io
from dataclasses import replace

import pytest

from repro.chaos import (
    ChaosRunner,
    MUTATION_KINDS,
    fuzz_database,
    mutate,
    run_plan,
    standard_suite,
)
from repro.exceptions import EncodingError, QueryError, ScenarioError
from repro.graphs.generators import grid_graph
from repro.labeling import ForbiddenSetLabeling
from repro.oracle.persistence import LabelDatabase, save_labels
from repro.scenario import (
    ScenarioEvent,
    ScenarioTrace,
    churn_suite,
    churn_trace,
    parse_trace,
    serialize_trace,
)


@pytest.fixture(scope="module")
def db_blob():
    graph = grid_graph(5, 5)
    scheme = ForbiddenSetLabeling(graph, epsilon=1.0)
    buffer = io.BytesIO()
    save_labels(scheme, buffer)
    return graph, buffer.getvalue()


PROBES = [(0, 24, ()), (0, 24, (12,)), (4, 20, (10, 14)), (2, 22, ())]


def row(kind, **fields):
    return ScenarioEvent(None, kind, **fields)


def network_trace(graph_spec, *rows, loss=0.0):
    """A scripted network trace: no open-loop traffic, a nominal clock."""
    return ScenarioTrace(
        name="scripted", graph_spec=graph_spec, duration_ms=1.0,
        base_rate_per_ms=0.0, events=rows, loss=loss,
    )


class TestNetworkRows:
    def test_rows_keep_file_order(self):
        trace = network_trace(
            "grid:4x4",
            row("fail_vertex", vertex=3),
            row("fail_edge", edge=(0, 1)),
            row("propagate", rounds=2),
            row("send", s=0, t=8),
            row("recover_edge", edge=(0, 1)),
            row("recover_vertex", vertex=3),
        )
        parsed = parse_trace(serialize_trace(trace))
        assert [e.kind for e in parsed.events] == [
            "fail_vertex", "fail_edge", "propagate", "send",
            "recover_edge", "recover_vertex",
        ]
        assert parsed.events[3].s == 0 and parsed.events[3].t == 8
        assert len(parsed.events) == 6
        assert "> partition edges=1-5,2-6" in serialize_trace(network_trace(
            "grid:4x4", row("partition", edges=((1, 5), (2, 6)))
        ))

    def test_partition_edges_either_way_round(self):
        cut = ((5, 1), (2, 6))
        runner = ChaosRunner(network_trace(
            "grid:4x4", row("partition", edges=cut), row("propagate", rounds=4)
        ))
        report = runner.run()
        assert report.ok, report.violations
        assert runner.simulator.ground_truth().edges == {(1, 5), (2, 6)}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown event kind"):
            row("explode")

    def test_missing_payload_rejected(self):
        with pytest.raises(ScenarioError, match="needs field 't'"):
            row("send", s=0)
        with pytest.raises(ScenarioError, match="needs field 'vertex'"):
            row("fail_vertex")
        with pytest.raises(ScenarioError, match="needs field 'edges'"):
            row("partition")
        with pytest.raises(ScenarioError, match="rounds must be >= 1"):
            row("propagate", rounds=0)

    def test_network_rows_are_scripted_only(self):
        with pytest.raises(ScenarioError, match="scripted row"):
            ScenarioEvent(0.0, "fail_vertex", vertex=1)

    def test_loss_validated(self):
        with pytest.raises(ScenarioError, match="loss must be in"):
            network_trace("grid:4x4", row("propagate", rounds=1), loss=1.5)

    def test_loss_needs_network_rows(self):
        with pytest.raises(ScenarioError, match="no row is a network row"):
            network_trace("grid:4x4", row("advance", duration_ms=1.0),
                          loss=0.2)

    def test_network_and_serving_rows_never_mix(self):
        with pytest.raises(ScenarioError, match="never both"):
            network_trace("grid:4x4", row("send", s=0, t=5),
                          row("query", s=0, t=5))
        with pytest.raises(ScenarioError, match="never both"):
            network_trace("grid:4x4", row("shard_down", shard=0),
                          row("fail_vertex", vertex=1))
        with pytest.raises(ScenarioError, match="rate 0"):
            ScenarioTrace(name="x", graph_spec="grid:4x4", duration_ms=1.0,
                          events=(row("send", s=0, t=5),))

    def test_chaos_runner_rejects_serving_rows(self):
        trace = network_trace("grid:4x4", row("query", s=0, t=5))
        with pytest.raises(ScenarioError, match="is a serving row"):
            ChaosRunner(trace)

    @pytest.mark.parametrize("bad, phrase", [
        (row("fail_vertex", vertex=16), "vertex 16 outside the graph"),
        (row("send", s=0, t=99), "vertex 99 outside the graph"),
        (row("fail_edge", edge=(0, 5)), "edge 0-5 is not in the graph"),
        (row("recover_edge", edge=(0, 5)), "edge 0-5 is not in the graph"),
        (row("partition", edges=((0, 1), (0, 2))),
         "edge 0-2 is not in the graph"),
    ], ids=["vertex", "send", "fail_edge", "recover_edge", "partition"])
    def test_chaos_runner_checks_rows_against_the_graph(self, bad, phrase):
        trace = network_trace("grid:4x4", bad)
        with pytest.raises(ScenarioError, match=phrase):
            ChaosRunner(trace)

    def test_churn_trace_deterministic(self):
        a = churn_trace("grid:4x4", num_events=50, seed=9)
        b = churn_trace("grid:4x4", num_events=50, seed=9)
        c = churn_trace("grid:4x4", num_events=50, seed=10)
        assert a.events == b.events and a.seed == b.seed
        assert a.events != c.events

    def test_churn_trace_rows_are_valid(self):
        trace = churn_trace("grid:5x5", num_events=120, seed=3)
        failed_v, failed_e = set(), set()
        for event in trace.events:
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
        with pytest.raises(ScenarioError, match="at least 4 vertices"):
            churn_trace("path:3")


class TestChaosRunner:
    def test_scripted_reroute_around_known_failure(self):
        trace = network_trace(
            "cycle:16",
            row("fail_vertex", vertex=4),
            row("propagate", rounds=16),
            row("send", s=0, t=8),
        )
        report = run_plan(trace)
        assert report.ok, report.violations
        assert report.packets_delivered == 1
        assert report.stretch_samples == 1  # flood saturated -> aware send

    def test_scripted_cut_is_detected_not_crossed(self):
        trace = network_trace(
            "path:10", row("fail_vertex", vertex=5), row("send", s=0, t=9)
        )
        report = run_plan(trace)
        assert report.ok, report.violations
        assert report.packets_undeliverable == 1

    def test_send_to_failed_endpoint_must_be_rejected(self):
        trace = network_trace(
            "path:6", row("fail_vertex", vertex=4), row("send", s=0, t=4)
        )
        report = run_plan(trace)
        assert report.ok, report.violations
        assert report.packets_sent == 0  # rejected loudly, never routed

    def test_recovery_and_partition_window_roundtrip(self):
        cut = ((1, 5), (2, 6), (0, 4), (3, 7))  # row 0 vs rest
        trace = network_trace(
            "grid:4x4",
            row("partition", edges=cut),
            row("propagate", rounds=8),
            row("send", s=0, t=15),
            row("heal_partition", edges=cut),
            row("propagate", rounds=8),
            row("send", s=0, t=15),
        )
        report = run_plan(trace)
        assert report.ok, report.violations
        assert report.packets_undeliverable == 1
        assert report.packets_delivered == 1

    def test_misinformation_is_flagged(self):
        runner = ChaosRunner(network_trace("grid:4x4"))
        runner.simulator.view(3).vertices.add(7)  # believe a healthy router dead
        runner._check_consistency(0, row("propagate", rounds=1))
        assert any("nonexistent" in v for v in runner._report.violations)

    def test_truth_divergence_is_flagged(self):
        runner = ChaosRunner(network_trace("grid:4x4"))
        runner.simulator.fail_vertex(5)  # behind the runner's back
        runner._check_consistency(0, row("propagate", rounds=1))
        assert any("diverged" in v for v in runner._report.violations)

    def test_smoke_random_schedules(self):
        for i, spec in enumerate(["grid:5x5", "cycle:20"]):
            trace = churn_trace(
                spec, num_events=40, seed=21 + i, loss=0.2 * i,
                name=f"smoke-{i}",
            )
            report = run_plan(trace, probe_on_failure=i == 0)
            assert report.ok, report.violations
            assert report.packets_sent > 0


@pytest.fixture(scope="module")
def standard_reports():
    return standard_suite(num_schedules=20, num_events=100, seed=0)


def test_standard_churn_traces_round_trip(standard_reports):
    """Every standard-suite trace serializes, parses back equal and
    replays to the same report as the suite's own run."""
    traces = churn_suite(num_schedules=20, num_events=100, seed=0)
    lossy_windows = 0
    for i, trace in enumerate(traces):
        parsed = parse_trace(serialize_trace(trace))
        assert parsed == trace
        report = standard_reports[i]
        replayed = run_plan(parsed, probe_on_failure=i % 2 == 0)
        assert replace(replayed, name=report.name) == report
        kinds = {event.kind for event in trace.events}
        lossy_windows += trace.loss > 0 and "partition" in kinds
    assert lossy_windows > 0


@pytest.mark.chaos
class TestChaosAcceptance:
    def test_standard_suite_runs_clean(self, standard_reports):
        reports = standard_reports
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
