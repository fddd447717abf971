"""Unit tests for BFS/Dijkstra primitives, cross-checked against networkx."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    bfs_distances,
    bfs_distances_avoiding,
    bfs_first_hops,
    bfs_parents,
    dijkstra,
    shortest_path,
    to_networkx,
)
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.graphs.traversal import eccentricity, multi_source_distances
from tests.reference_decoder import dijkstra_with_paths


class TestBfs:
    def test_distances_on_path(self):
        g = path_graph(5)
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_radius_bound(self):
        g = path_graph(10)
        dist = bfs_distances(g, 0, radius=3)
        assert set(dist) == {0, 1, 2, 3}

    def test_disconnected_component_not_reached(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert set(bfs_distances(g, 0)) == {0, 1}

    def test_matches_networkx_on_grid(self):
        g = grid_graph(5, 7)
        expected = nx.single_source_shortest_path_length(to_networkx(g), 0)
        assert bfs_distances(g, 0) == dict(expected)


class TestMultiSource:
    @pytest.mark.parametrize("radius", [0, 1, 2, 5])
    def test_nearest_source_within_radius(self, radius):
        g = grid_graph(5, 5)
        sources = {0, 12, 19}
        expected = {}
        for s in sources:
            for v, d in bfs_distances(g, s, radius=radius).items():
                expected[v] = min(d, expected.get(v, d))
        assert multi_source_distances(g, sources, radius) == expected


class TestBfsAvoiding:
    def test_avoids_vertices(self):
        g = cycle_graph(6)
        dist = bfs_distances_avoiding(g, 0, forbidden_vertices=[1])
        assert dist[2] == 4  # must go the long way around

    def test_avoids_edges(self):
        g = cycle_graph(6)
        dist = bfs_distances_avoiding(g, 0, forbidden_edges=[(0, 1)])
        assert dist[1] == 5

    def test_forbidden_source_empty(self):
        g = path_graph(3)
        assert bfs_distances_avoiding(g, 1, forbidden_vertices=[1]) == {}

    def test_cut_vertex_disconnects(self):
        g = path_graph(5)
        dist = bfs_distances_avoiding(g, 0, forbidden_vertices=[2])
        assert 4 not in dist and 3 not in dist


class TestBfsTrees:
    def test_parents_reconstruct_shortest_paths(self):
        g = grid_graph(4, 4)
        dist, parent = bfs_parents(g, 0)
        for v in g.vertices():
            if v == 0:
                continue
            assert dist[parent[v]] == dist[v] - 1

    def test_first_hops_are_source_neighbors(self):
        g = grid_graph(4, 4)
        dist, hop = bfs_first_hops(g, 5)
        for v, h in hop.items():
            assert h in g.neighbors(5)
            # stepping to the first hop makes progress
            assert bfs_distances(g, h)[v] == dist[v] - 1

    def test_shortest_path_endpoints_and_length(self):
        g = grid_graph(5, 5)
        path = shortest_path(g, 0, 24)
        assert path[0] == 0 and path[-1] == 24
        assert len(path) - 1 == bfs_distances(g, 0)[24]
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)

    def test_shortest_path_trivial_and_disconnected(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert shortest_path(g, 0, 0) == [0]
        assert shortest_path(g, 0, 2) is None

    def test_eccentricity_path(self):
        assert eccentricity(path_graph(7), 0) == 6
        assert eccentricity(path_graph(7), 3) == 3


class TestDijkstra:
    def test_simple_weighted(self):
        adj = {
            "s": [("a", 1), ("b", 4)],
            "a": [("b", 1), ("t", 10)],
            "b": [("t", 2)],
            "t": [],
        }
        dist = dijkstra(adj, "s")
        assert dist["t"] == 4

    def test_target_early_exit(self):
        adj = {0: [(1, 1)], 1: [(2, 1)], 2: [(3, 1)], 3: []}
        dist = dijkstra(adj, 0, target=2)
        assert dist[2] == 2

    def test_negative_weight_rejected(self):
        adj = {0: [(1, -1)], 1: []}
        with pytest.raises(ValueError):
            dijkstra(adj, 0)

    def test_with_paths_unreachable(self):
        dist, path = dijkstra_with_paths({0: [], 1: []}, 0, 1)
        assert dist == math.inf and path == []

    def test_with_paths_reconstruction(self):
        adj = {0: [(1, 2), (2, 5)], 1: [(2, 2)], 2: []}
        dist, path = dijkstra_with_paths(adj, 0, 2)
        assert dist == 4 and path == [0, 1, 2]

    def test_matches_bfs_on_unit_weights(self):
        g = grid_graph(6, 6)
        adj = {u: [(v, 1) for v in g.neighbors(u)] for u in g.vertices()}
        assert dijkstra(adj, 0) == bfs_distances(g, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**30))
def test_bfs_matches_networkx_on_random_trees(n, seed):
    g = random_tree(n, seed)
    source = seed % n
    expected = nx.single_source_shortest_path_length(to_networkx(g), source)
    assert bfs_distances(g, source) == dict(expected)
