"""Tests for graph generators, including the Section 3 constructions."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs import bfs_distances, is_connected
from repro.graphs.generators import (
    balanced_tree,
    cycle_graph,
    grid_graph,
    grid_index,
    half_king_grid,
    hypercube_graph,
    king_grid,
    path_graph,
    random_geometric_graph,
    random_tree,
    road_like_graph,
    sample_family_graph,
    torus_graph,
)
from tests.graph_families import caterpillar, complete_graph, star_graph


class TestElementary:
    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4 and is_connected(g)

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(4)
        assert g.degree(0) == 4 and g.num_edges == 4

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10

    def test_balanced_tree_size(self):
        g = balanced_tree(2, 3)
        assert g.num_vertices == 15 and g.num_edges == 14 and is_connected(g)

    def test_random_tree_is_tree(self):
        g = random_tree(40, seed=7)
        assert g.num_edges == 39 and is_connected(g)

    def test_random_tree_deterministic(self):
        a = random_tree(20, seed=3)
        b = random_tree(20, seed=3)
        assert list(a.edges()) == list(b.edges())

    def test_caterpillar(self):
        g = caterpillar(5, 2)
        assert g.num_vertices == 15 and is_connected(g)
        assert g.num_edges == 14  # a tree


class TestGrids:
    def test_grid_index_roundtrip(self):
        # row-major: the coordinate tuples in lexicographic order are
        # exactly the indices 0..59
        dims = (3, 4, 5)
        coords = itertools.product(*(range(size) for size in dims))
        assert [grid_index(c, dims) for c in coords] == list(range(60))

    def test_grid_2d_structure(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # vertical + horizontal

    def test_grid_distances_are_manhattan(self):
        g = grid_graph(5, 5)
        dist = bfs_distances(g, grid_index((0, 0), (5, 5)))
        for x in range(5):
            for y in range(5):
                assert dist[grid_index((x, y), (5, 5))] == x + y

    def test_grid_3d(self):
        g = grid_graph(3, 3, 3)
        assert g.num_vertices == 27 and is_connected(g)

    def test_torus_regular(self):
        g = torus_graph(4, 5)
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_torus_axis_too_small(self):
        with pytest.raises(GraphError):
            torus_graph(2, 5)

    def test_bad_grid_shape(self):
        with pytest.raises(GraphError):
            grid_graph()


class TestGeometric:
    def test_geometric_deterministic(self):
        g1, p1 = random_geometric_graph(50, 0.3, seed=1)
        g2, p2 = random_geometric_graph(50, 0.3, seed=1)
        assert p1 == p2 and sorted(g1.edges()) == sorted(g2.edges())

    def test_geometric_edges_respect_radius(self):
        g, points = random_geometric_graph(80, 0.25, seed=2)
        for u, v in g.edges():
            dx = points[u][0] - points[v][0]
            dy = points[u][1] - points[v][1]
            assert dx * dx + dy * dy <= 0.25**2 + 1e-12

    def test_geometric_no_missing_edges(self):
        g, points = random_geometric_graph(60, 0.3, seed=3)
        present = set(g.edges())
        for u in range(60):
            for v in range(u + 1, 60):
                dx = points[u][0] - points[v][0]
                dy = points[u][1] - points[v][1]
                if dx * dx + dy * dy <= 0.3**2 - 1e-12:
                    assert (u, v) in present

    def test_road_like_connected(self):
        g = road_like_graph(8, 8, removal_fraction=0.15, seed=4)
        assert is_connected(g)
        assert g.num_vertices == 64


class TestLowerBoundConstructions:
    def test_king_grid_2d_degrees(self):
        g = king_grid(4, 2)
        # corner vertices of a king grid have degree 3
        assert g.degree(grid_index((0, 0), (4, 4))) == 3
        # interior vertices have degree 8
        assert g.degree(grid_index((1, 1), (4, 4))) == 8

    def test_half_king_grid_is_subgraph(self):
        g = king_grid(3, 2)
        h = half_king_grid(3, 2)
        g_edges = set(g.edges())
        assert all(e in g_edges for e in h.edges())

    def test_half_king_grid_drops_constant_edge_fraction(self):
        # the paper's |E(H)| <= m/2 holds asymptotically in p and d; at
        # small sizes boundary effects inflate the ratio, but a constant
        # fraction of G's edges must be missing (that fraction is what the
        # counting argument of Theorem 3.1 exponentiates)
        for p, d in ((3, 4), (4, 4), (5, 2)):
            g = king_grid(p, d)
            h = half_king_grid(p, d)
            ratio = h.num_edges / g.num_edges
            assert ratio <= 0.6
        # and the ratio decreases toward 1/2 as p grows
        r3 = half_king_grid(3, 4).num_edges / king_grid(3, 4).num_edges
        r4 = half_king_grid(4, 4).num_edges / king_grid(4, 4).num_edges
        assert r4 < r3

    def test_half_king_is_2_spanner(self):
        g = king_grid(4, 2)
        h = half_king_grid(4, 2)
        for u, v in g.edges():
            assert bfs_distances(h, u, radius=2).get(v, 99) <= 2

    def test_half_king_odd_d_rejected(self):
        with pytest.raises(GraphError):
            half_king_grid(3, 3)

    def test_sampled_family_between_h_and_g(self):
        g = king_grid(3, 2)
        h = half_king_grid(3, 2)
        sample = sample_family_graph(3, 2, seed=5)
        g_edges, h_edges = set(g.edges()), set(h.edges())
        sample_edges = set(sample.edges())
        assert h_edges <= sample_edges <= g_edges

    def test_hypercube(self):
        g = hypercube_graph(4)
        assert g.num_vertices == 16
        assert all(g.degree(v) == 4 for v in g.vertices())


class TestSierpinski:
    def test_counts_match_theory(self):
        from repro.graphs.generators import sierpinski_graph

        for depth in range(5):
            g = sierpinski_graph(depth)
            assert g.num_vertices == 3 * (3**depth + 1) // 2
            assert g.num_edges == 3 ** (depth + 1)
            assert is_connected(g)

    def test_degree_profile(self):
        from repro.graphs.generators import sierpinski_graph

        g = sierpinski_graph(3)
        degrees = sorted(g.degree(v) for v in g.vertices())
        # exactly the three outer corners have degree 2; the rest degree 4
        assert degrees.count(2) == 3
        assert degrees.count(4) == g.num_vertices - 3

    def test_negative_depth_rejected(self):
        from repro.graphs.generators import sierpinski_graph

        with pytest.raises(GraphError):
            sierpinski_graph(-1)

    def test_scheme_works_on_fractal(self):
        import math as _math

        from repro.baselines import ExactRecomputeOracle
        from repro.graphs.generators import sierpinski_graph
        from repro.labeling import ForbiddenSetLabeling

        g = sierpinski_graph(4)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        exact = ExactRecomputeOracle(g)
        for s, t, faults in [(0, 1, [2]), (0, 50, [10, 20]), (3, 100, [])]:
            d_true = exact.query(s, t, vertex_faults=faults)
            d_hat = scheme.query(s, t, vertex_faults=faults).distance
            if _math.isinf(d_true):
                assert _math.isinf(d_hat)
            else:
                assert d_true <= d_hat <= 2 * d_true


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_grid_is_connected_property(w, h):
    assert is_connected(grid_graph(w, h))
