"""Tests for the network recovery simulator (paper applications section)."""

import pytest

from repro.exceptions import QueryError, RoutingError
from repro.graphs.generators import cycle_graph, grid_graph, path_graph
from repro.routing.network_sim import Knowledge, NetworkSimulator


class TestKnowledge:
    def test_merge_reports_novelty(self):
        a = Knowledge(vertices={1})
        b = Knowledge(vertices={1, 2}, edges={(3, 4)})
        assert a.merge(b)
        assert a.vertices == {1, 2} and a.edges == {(3, 4)}
        assert not a.merge(b)  # nothing new the second time

    def test_copy_is_independent(self):
        a = Knowledge(vertices={1})
        b = a.copy()
        b.vertices.add(2)
        assert a.vertices == {1}


class TestHealthyDelivery:
    def test_shortest_delivery(self):
        sim = NetworkSimulator(grid_graph(6, 6))
        report = sim.send_packet(0, 35)
        assert report.delivered and report.hops == 10
        assert report.route[0] == 0 and report.route[-1] == 35

    def test_endpoint_failed_rejected(self):
        sim = NetworkSimulator(path_graph(5))
        sim.fail_vertex(4)
        with pytest.raises(QueryError):
            sim.send_packet(0, 4)


class TestEventValidation:
    def test_fail_unknown_vertex_rejected(self):
        sim = NetworkSimulator(path_graph(5))
        with pytest.raises(QueryError):
            sim.fail_vertex(5)
        with pytest.raises(QueryError):
            sim.fail_vertex(-1)

    def test_fail_unknown_edge_rejected(self):
        sim = NetworkSimulator(path_graph(5))
        with pytest.raises(QueryError):
            sim.fail_edge(0, 2)

    def test_ground_truth_is_a_copy(self):
        sim = NetworkSimulator(path_graph(5))
        sim.fail_vertex(2)
        truth = sim.ground_truth()
        truth.vertices.add(3)
        assert sim.ground_truth().vertices == {2}

    def test_apply_event_dispatch(self):
        from repro.scenario import ScenarioEvent

        g = grid_graph(3, 3)
        sim = NetworkSimulator(g)
        sim.apply_event(ScenarioEvent(None, "fail_vertex", vertex=4))
        sim.apply_event(ScenarioEvent(None, "fail_edge", edge=(0, 1)))
        assert sim.ground_truth().vertices == {4}
        assert sim.ground_truth().edges == {(0, 1)}
        sim.apply_event(ScenarioEvent(None, "recover_vertex", vertex=4))
        sim.apply_event(ScenarioEvent(None, "recover_edge", edge=(0, 1)))
        assert sim.awareness() == 1.0
        cut = ((0, 1), (3, 4))
        sim.apply_event(ScenarioEvent(None, "partition", edges=cut))
        assert sim.ground_truth().edges == set(cut)
        sim.apply_event(ScenarioEvent(None, "heal_partition", edges=cut))
        assert sim.ground_truth().edges == set()

    def test_apply_event_rejects_send_and_unknown(self):
        from repro.scenario import ScenarioEvent

        sim = NetworkSimulator(path_graph(5))
        with pytest.raises(QueryError):
            sim.apply_event(ScenarioEvent(None, "send", s=0, t=1))


class TestLossyPropagation:
    def test_total_loss_learns_nothing(self):
        g = grid_graph(5, 5)
        sim = NetworkSimulator(g, probe_on_failure=False)
        sim.fail_vertex(12)
        sim.view(11).vertices.add(12)  # one witness, links all lossy
        assert sim.propagate(rounds=5, drop_probability=1.0) == 0
        assert all(
            12 not in sim.view(u).vertices
            for u in g.vertices()
            if u not in (11, 12)
        )

    def test_partial_loss_slows_flooding(self):
        def awareness_after(drop):
            sim = NetworkSimulator(cycle_graph(20), probe_on_failure=False)
            sim.fail_vertex(10)
            sim.view(9).vertices.add(10)
            sim.propagate(rounds=4, drop_probability=drop, rng=7)
            return sim.awareness()

        assert awareness_after(0.9) < awareness_after(0.0)

    def test_lossy_flood_is_seeded(self):
        def run(seed):
            sim = NetworkSimulator(grid_graph(4, 4), probe_on_failure=False)
            sim.fail_vertex(5)
            sim.view(4).vertices.add(5)
            sim.propagate(rounds=3, drop_probability=0.5, rng=seed)
            return {
                u: frozenset(sim.view(u).vertices) for u in range(16)
            }

        assert run(3) == run(3)

    def test_bad_drop_probability_rejected(self):
        sim = NetworkSimulator(path_graph(5))
        with pytest.raises(ValueError):
            sim.propagate(drop_probability=1.5)

    def test_lossless_default_unchanged(self):
        sim = NetworkSimulator(cycle_graph(12))
        sim.fail_vertex(6)
        sim.propagate(rounds=12)
        assert sim.awareness() == 1.0


class TestProbing:
    def test_neighbors_learn_on_failure(self):
        g = grid_graph(5, 5)
        sim = NetworkSimulator(g)
        sim.fail_vertex(12)
        for u in g.neighbors(12):
            assert 12 in sim.view(u).vertices
        assert 12 not in sim.view(0).vertices  # distant router unaware

    def test_silent_failure_mode(self):
        g = grid_graph(5, 5)
        sim = NetworkSimulator(g, probe_on_failure=False)
        sim.fail_vertex(12)
        assert all(12 not in sim.view(u).vertices for u in g.vertices() if u != 12)


class TestPropagation:
    def test_flooding_increases_awareness(self):
        sim = NetworkSimulator(grid_graph(6, 6))
        sim.fail_vertex(14)
        before = sim.awareness()
        sim.propagate(rounds=2)
        after = sim.awareness()
        assert after > before

    def test_flooding_saturates(self):
        sim = NetworkSimulator(cycle_graph(12))
        sim.fail_vertex(6)
        sim.propagate(rounds=12)
        assert sim.awareness() == 1.0
        assert sim.propagate(rounds=1) == 0  # nothing left to learn

    def test_awareness_trivial_cases(self):
        sim = NetworkSimulator(path_graph(4))
        assert sim.awareness() == 1.0  # no failures


class TestReroutingAroundFailures:
    def test_packet_avoids_known_failure(self):
        g = cycle_graph(16)
        sim = NetworkSimulator(g)
        sim.fail_vertex(4)
        sim.propagate(rounds=16)  # everyone knows
        report = sim.send_packet(0, 8)
        assert report.delivered
        assert 4 not in report.route
        assert report.hops == 8  # forced the long way around

    def test_silent_failure_discovered_mid_flight(self):
        g = path_graph(20)
        # a side branch so vertex 10's failure is discoverable yet fatal;
        # use a cycle instead so delivery remains possible
        g = cycle_graph(20)
        sim = NetworkSimulator(g, probe_on_failure=False)
        sim.fail_vertex(5)
        report = sim.send_packet(0, 10)
        assert report.delivered
        assert 5 not in report.route
        assert report.discoveries >= 1  # learned the hard way
        assert report.requeries >= 2  # replanned after discovery

    def test_failed_link_rerouted(self):
        g = grid_graph(6, 6)
        sim = NetworkSimulator(g)
        sim.fail_edge(0, 1)
        report = sim.send_packet(0, 5)
        assert report.delivered
        assert (0, 1) not in set(
            (min(a, b), max(a, b)) for a, b in zip(report.route, report.route[1:])
        )

    def test_route_never_crosses_true_failures(self):
        g = grid_graph(7, 7)
        sim = NetworkSimulator(g, probe_on_failure=False)
        for v in (24, 25, 17):
            sim.fail_vertex(v)
        report = sim.send_packet(0, 48)
        assert report.delivered
        assert not set(report.route) & {24, 25, 17}

    def test_undeliverable_reported(self):
        g = grid_graph(5, 5)
        sim = NetworkSimulator(g)
        for v in (10, 11, 12, 13, 14):  # a full wall
            sim.fail_vertex(v)
        report = sim.send_packet(0, 24)
        assert not report.delivered

    def test_recovery_restores_delivery(self):
        g = path_graph(10)
        sim = NetworkSimulator(g)
        sim.fail_vertex(5)
        assert not sim.send_packet(0, 9).delivered
        sim.recover_vertex(5)
        assert sim.send_packet(0, 9).delivered

    def test_recover_edge(self):
        g = path_graph(6)
        sim = NetworkSimulator(g)
        sim.fail_edge(2, 3)
        assert not sim.send_packet(0, 5).delivered
        sim.recover_edge(2, 3)
        assert sim.send_packet(0, 5).delivered

    def test_knowledge_piggybacks_to_destination(self):
        g = cycle_graph(16)
        sim = NetworkSimulator(g)
        sim.fail_vertex(4)
        report = sim.send_packet(0, 8)
        assert report.delivered
        # the destination now knows about the failure without flooding
        assert 4 in sim.view(8).vertices

    def test_ttl_guard(self):
        g = grid_graph(4, 4)
        sim = NetworkSimulator(g)
        with pytest.raises(RoutingError):
            sim.send_packet(0, 15, ttl=1)
