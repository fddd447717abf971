"""Tests for the weighted-graph extension."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, QueryError
from repro.graphs.generators import cycle_graph, grid_graph, path_graph, random_tree
from repro.graphs.weighted import (
    WeightedGraph,
    log2_ceil,
    multi_source_weighted_distances,
    weighted_distances,
    weighted_distances_avoiding,
)
from repro.labeling.weighted import WeightedForbiddenSetLabeling
from repro.nets.weighted_hierarchy import (
    WeightedNetHierarchy,
    weighted_greedy_dominating_set,
)


def randomize_weights(graph, max_weight, seed):
    rng = random.Random(seed)
    wg = WeightedGraph(graph.num_vertices)
    for u, v in graph.edges():
        wg.add_edge(u, v, rng.randint(1, max_weight))
    return wg


class TestWeightedGraph:
    def test_add_and_inspect(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 5)
        assert g.has_edge(1, 0)
        assert g.neighbors(0) == [(1, 5)]
        assert list(g.edges()) == [(0, 1, 5)]

    def test_invalid_weight(self):
        g = WeightedGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 0)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 1.5)

    def test_self_loop_and_duplicate(self):
        g = WeightedGraph(2)
        g.add_edge(0, 1, 1)
        with pytest.raises(GraphError):
            g.add_edge(0, 0, 1)
        with pytest.raises(GraphError):
            g.add_edge(1, 0, 2)

    def test_from_unweighted(self):
        g = WeightedGraph.from_unweighted(path_graph(4), weight=3)
        assert weighted_distances(g, 0)[3] == 9

    def test_max_weight_and_bound(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 7), (1, 2, 2)])
        assert g.max_weight() == 7
        assert g.distance_upper_bound() == 14

    def test_log2_ceil(self):
        assert [log2_ceil(v) for v in (1, 2, 3, 4, 5, 8)] == [0, 1, 2, 2, 3, 3]
        with pytest.raises(GraphError):
            log2_ceil(0)


class TestWeightedTraversal:
    def test_dijkstra_prefers_light_path(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
        assert weighted_distances(g, 0)[2] == 2

    def test_radius_truncation(self):
        g = WeightedGraph.from_unweighted(path_graph(10), weight=2)
        dist = weighted_distances(g, 0, radius=5)
        assert set(dist) == {0, 1, 2}  # distances 0, 2, 4

    def test_avoiding(self):
        g = WeightedGraph.from_unweighted(cycle_graph(6))
        dist = weighted_distances_avoiding(g, 0, forbidden_vertices=[1])
        assert dist[2] == 4

    def test_avoiding_edges_and_source(self):
        g = WeightedGraph.from_unweighted(cycle_graph(6))
        assert weighted_distances_avoiding(g, 0, forbidden_vertices=[0]) == {}
        dist = weighted_distances_avoiding(g, 0, forbidden_edges=[(0, 1)])
        assert dist[1] == 5

    def test_multi_source_attribution(self):
        g = WeightedGraph.from_unweighted(path_graph(7))
        nearest = multi_source_weighted_distances(g, {0, 6})
        assert nearest[1] == (0, 1)
        assert nearest[5] == (6, 1)

    def test_eccentricity(self):
        g = WeightedGraph.from_unweighted(path_graph(5), weight=3)
        assert max(weighted_distances(g, 0).values()) == 12

    def test_matches_bfs_on_unit_weights(self):
        from repro.graphs import bfs_distances

        base = grid_graph(6, 6)
        g = WeightedGraph.from_unweighted(base)
        assert weighted_distances(g, 0) == bfs_distances(base, 0)


class TestWeightedNets:
    def test_dominating_set_properties(self):
        g = randomize_weights(grid_graph(6, 6), 3, seed=1)
        for r in (2, 4, 8):
            w = weighted_greedy_dominating_set(g, r)
            # r-dominating
            nearest = multi_source_weighted_distances(g, w)
            assert all(dist <= r for _, dist in nearest.values())
            # pairwise separation >= r
            for p in w:
                ball = weighted_distances(g, p, radius=r - 1)
                assert all(q == p or q not in w for q in ball)

    def test_hierarchy_validates(self):
        for seed in (1, 2):
            g = randomize_weights(random_tree(40, seed), 4, seed)
            WeightedNetHierarchy(g).validate()

    def test_nearest_net_point_bound(self):
        g = randomize_weights(cycle_graph(24), 5, seed=3)
        h = WeightedNetHierarchy(g)
        for level in range(h.top_level + 1):
            for v in g.vertices():
                point, dist = h.nearest_net_point(level, v)
                assert point in h.net(level)
                assert dist <= (1 << level)

    def test_net_sizes_shrink(self):
        g = randomize_weights(grid_graph(7, 7), 2, seed=4)
        sizes = WeightedNetHierarchy(g).net_sizes()
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestWeightedScheme:
    def test_exact_without_faults_small(self):
        g = WeightedGraph.from_edges(
            4, [(0, 1, 3), (1, 2, 4), (2, 3, 2), (0, 3, 20)]
        )
        scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
        assert scheme.query(0, 3).distance == 9
        assert scheme.query(0, 3, vertex_faults=[1]).distance == 20
        assert scheme.query(0, 3, vertex_faults=[1], edge_faults=[(0, 3)]).distance == math.inf

    def test_heavy_edge_usable_next_to_fault(self):
        # the heavy edge exceeds lambda at the lowest level, but the
        # graph-edge clause must keep it usable when a fault forces it
        g = WeightedGraph.from_edges(
            5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 50)]
        )
        scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
        assert scheme.query(0, 4, vertex_faults=[2]).distance == 50

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sandwich_randomized(self, seed):
        base = grid_graph(6, 6)
        g = randomize_weights(base, 4, seed)
        scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
        bound = scheme.stretch_bound()
        rng = random.Random(seed)
        for _ in range(25):
            s, t = rng.sample(range(36), 2)
            vf = [v for v in rng.sample(range(36), 3) if v not in (s, t)]
            d_true = weighted_distances_avoiding(g, s, vf).get(t, math.inf)
            d_hat = scheme.query(s, t, vertex_faults=vf).distance
            if math.isinf(d_true):
                assert math.isinf(d_hat)
            else:
                assert d_true <= d_hat <= bound * d_true + 1e-9

    def test_connectivity_exact(self):
        g = randomize_weights(cycle_graph(16), 6, seed=5)
        scheme = WeightedForbiddenSetLabeling(g, epsilon=2.0)
        assert scheme.connectivity(0, 8)
        assert not scheme.connectivity(0, 8, vertex_faults=[4, 12])

    def test_bad_forbidden_edge(self):
        g = WeightedGraph.from_unweighted(path_graph(4))
        scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
        with pytest.raises(QueryError):
            scheme.query(0, 3, edge_faults=[(0, 2)])

    def test_fault_set_is_normalized(self):
        """Duplicate faults and both orientations of an edge collapse to one."""
        g = WeightedGraph.from_unweighted(path_graph(6))
        scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
        faults = scheme.fault_set([5, 5], [(2, 1), (1, 2)])
        assert len(faults.vertex_labels) == 1
        assert len(faults.edge_labels) == 1
        with pytest.raises(QueryError, match="self-loop"):
            scheme.fault_set(edge_faults=[(3, 3)])

    def test_labels_roundtrip_through_codec(self):
        from repro.labeling import decode_label, encode_label

        g = randomize_weights(cycle_graph(12), 3, seed=6)
        scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
        label = scheme.label(0)
        restored = decode_label(encode_label(label))
        assert restored.levels.keys() == label.levels.keys()
        for i in label.levels:
            assert restored.levels[i].points == label.levels[i].points
            assert restored.levels[i].graph_edges == label.levels[i].graph_edges

    def test_unit_mode(self):
        from repro.labeling import LabelingOptions

        g = randomize_weights(grid_graph(5, 5), 2, seed=7)
        scheme = WeightedForbiddenSetLabeling(
            g, epsilon=1.0, options=LabelingOptions(low_level="unit")
        )
        d_true = weighted_distances_avoiding(g, 0, [12]).get(24, math.inf)
        d_hat = scheme.query(0, 24, vertex_faults=[12]).distance
        if math.isinf(d_true):
            assert math.isinf(d_hat)
        else:
            assert d_true <= d_hat <= scheme.stretch_bound() * d_true


@settings(max_examples=10, deadline=None)
@given(st.integers(4, 30), st.integers(1, 6), st.integers(0, 10**6))
def test_weighted_sandwich_property(n, max_weight, seed):
    g = randomize_weights(random_tree(n, seed), max_weight, seed)
    scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
    rng = random.Random(seed)
    s, t = rng.sample(range(n), 2)
    faults = [v for v in rng.sample(range(n), min(2, n - 2)) if v not in (s, t)]
    d_true = weighted_distances_avoiding(g, s, faults).get(t, math.inf)
    d_hat = scheme.query(s, t, vertex_faults=faults).distance
    if math.isinf(d_true):
        assert math.isinf(d_hat)
    else:
        assert d_true <= d_hat <= scheme.stretch_bound() * d_true + 1e-9
