"""Stress and failure-injection tests: large fault sets, degenerate inputs,
duplicate/overlapping faults, and hostile fault geometry."""

import math

import pytest

from repro.baselines import ExactRecomputeOracle
from repro.exceptions import QueryError
from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    hypercube_graph,
)
from repro.labeling import FaultSet, ForbiddenSetLabeling, decode_distance
from tests.graph_families import (
    caterpillar,
    complete_graph,
    grid_with_obstacles,
    star_graph,
)


def sandwich(graph, scheme, s, t, vf=(), ef=()):
    exact = ExactRecomputeOracle(graph)
    d_true = exact.query(s, t, vertex_faults=vf, edge_faults=ef)
    d_hat = scheme.query(s, t, vertex_faults=vf, edge_faults=ef).distance
    if math.isinf(d_true):
        assert math.isinf(d_hat)
    else:
        assert d_true <= d_hat <= scheme.stretch_bound() * d_true + 1e-9
    return d_true, d_hat


class TestMassiveFaultSets:
    def test_third_of_grid_forbidden(self):
        g = grid_graph(7, 7)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        faults = [v for v in range(49) if v % 3 == 1 and v not in (0, 48)]
        sandwich(g, scheme, 0, 48, vf=faults)

    def test_everywhere_failure(self):
        """F = V \\ {s, t}: the reconstruction-attack workload."""
        g = cycle_graph(12)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        for s, t in [(0, 1), (0, 6), (3, 4)]:
            faults = [v for v in range(12) if v not in (s, t)]
            d_true, d_hat = sandwich(g, scheme, s, t, vf=faults)
            assert math.isinf(d_true) == (not g.has_edge(s, t))

    def test_all_edges_but_one_forbidden(self):
        g = cycle_graph(8)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        edges = list(g.edges())
        keep = (0, 1)
        faults = [e for e in edges if e != keep]
        sandwich(g, scheme, 0, 1, ef=faults)
        assert scheme.query(0, 1, edge_faults=faults).distance == 1

    def test_half_the_cycle_fails(self):
        g = cycle_graph(40)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        faults = list(range(2, 19))
        sandwich(g, scheme, 0, 20, vf=faults)


class TestOverlappingFaults:
    def test_duplicate_vertex_fault(self):
        g = grid_graph(5, 5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        once = scheme.query(0, 24, vertex_faults=[12]).distance
        twice = scheme.query(0, 24, vertex_faults=[12, 12]).distance
        assert once == twice

    def test_edge_fault_incident_to_vertex_fault(self):
        g = grid_graph(5, 5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        sandwich(g, scheme, 0, 24, vf=[12], ef=[(12, 13)])

    def test_two_edge_faults_sharing_endpoint(self):
        g = grid_graph(5, 5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        sandwich(g, scheme, 0, 24, ef=[(12, 13), (12, 11)])

    def test_fault_adjacent_to_source(self):
        g = grid_graph(5, 5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        sandwich(g, scheme, 0, 24, vf=list(set(g.neighbors(0)) - {24}))

    def test_fault_adjacent_to_target(self):
        g = grid_graph(5, 5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        ring = [v for v in g.neighbors(24)]
        assert math.isinf(scheme.query(0, 24, vertex_faults=ring).distance)


class TestHostileTopologies:
    def test_star_all_queries(self):
        g = star_graph(8)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        sandwich(g, scheme, 1, 2)
        sandwich(g, scheme, 1, 2, vf=[3, 4])
        assert math.isinf(scheme.query(1, 2, vertex_faults=[0]).distance)

    def test_complete_graph(self):
        g = complete_graph(10)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        sandwich(g, scheme, 0, 9, vf=[1, 2, 3, 4])
        assert scheme.query(0, 9, vertex_faults=[1, 2, 3]).distance == 1

    def test_hypercube(self):
        g = hypercube_graph(5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        sandwich(g, scheme, 0, 31, vf=[1, 2, 4])

    def test_caterpillar_leg_faults(self):
        g = caterpillar(8, 2)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        # legs of spine vertex 3 are ids 8 + 3*2, 8 + 3*2 + 1
        sandwich(g, scheme, 8, 23, vf=[3])

    def test_obstacle_grid(self):
        g = grid_with_obstacles(8, 8, [(2, 2, 5, 5)])
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        sandwich(g, scheme, 0, 63, vf=[8])

    def test_two_vertex_graph(self):
        g = Graph(2)
        g.add_edge(0, 1)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        assert scheme.query(0, 1).distance == 1
        assert math.isinf(scheme.query(0, 1, edge_faults=[(0, 1)]).distance)

    def test_tiny_epsilon(self):
        g = cycle_graph(16)
        scheme = ForbiddenSetLabeling(g, epsilon=0.05)
        sandwich(g, scheme, 0, 8, vf=[4])


class TestDegenerateQueries:
    def test_empty_fault_set_object(self):
        g = cycle_graph(8)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        result = decode_distance(scheme.label(0), scheme.label(4), FaultSet())
        assert result.distance == 4

    def test_none_fault_set(self):
        g = cycle_graph(8)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        assert decode_distance(scheme.label(0), scheme.label(4)).distance == 4

    def test_fault_label_of_endpoint_rejected(self):
        g = cycle_graph(8)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        faults = FaultSet(vertex_labels=[scheme.label(0)])
        with pytest.raises(QueryError):
            decode_distance(scheme.label(0), scheme.label(4), faults)
