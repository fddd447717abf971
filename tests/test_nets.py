"""Tests for r-dominating sets (Fact 1) and the net hierarchy (Lemma 2.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, LabelingError
from repro.graphs import Graph, bfs_distances
from repro.graphs.doubling import (
    doubling_dimension_estimate,
    greedy_ball_cover,
    packing_bound_holds,
)
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.nets import (
    NetHierarchy,
    greedy_dominating_set,
    is_r_dominating,
    min_pairwise_distance_at_least,
)
from tests.graph_families import complete_graph


class TestGreedyDominatingSet:
    def test_r1_selects_everything(self):
        g = path_graph(6)
        assert greedy_dominating_set(g, 1) == set(range(6))

    def test_radius_validation(self):
        with pytest.raises(GraphError):
            greedy_dominating_set(path_graph(3), 0)

    def test_fact1_guarantees_on_path(self):
        g = path_graph(33)
        for r in (2, 4, 8):
            w = greedy_dominating_set(g, r)
            assert is_r_dominating(g, w, r - 1)  # (r-1)-dominating
            assert min_pairwise_distance_at_least(g, w, r)  # packing

    def test_fact1_guarantees_on_grid(self):
        g = grid_graph(9, 9)
        for r in (2, 4):
            w = greedy_dominating_set(g, r)
            assert is_r_dominating(g, w, r - 1)
            assert min_pairwise_distance_at_least(g, w, r)

    def test_custom_order_changes_selection(self):
        g = path_graph(5)
        w_forward = greedy_dominating_set(g, 3)
        w_backward = greedy_dominating_set(g, 3, order=range(4, -1, -1))
        assert 0 in w_forward and 4 in w_backward

    def test_is_r_dominating_empty_candidates(self):
        assert not is_r_dominating(path_graph(2), [], 5)
        assert is_r_dominating(Graph(0), [], 5)


class TestNetHierarchy:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            NetHierarchy(Graph(0))

    def test_properties_validate_on_families(self):
        for g in (path_graph(40), cycle_graph(30), grid_graph(7, 7), random_tree(50, 1)):
            NetHierarchy(g).validate()

    def test_n0_is_all_vertices(self):
        h = NetHierarchy(path_graph(10))
        assert h.net(0) == set(range(10))

    def test_nets_shrink(self):
        h = NetHierarchy(grid_graph(8, 8))
        sizes = h.net_sizes()
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == 64

    def test_nearest_net_point_distance_bound(self):
        g = grid_graph(8, 8)
        h = NetHierarchy(g)
        for level in range(h.top_level + 1):
            for v in g.vertices():
                point, dist = h.nearest_net_point(level, v)
                assert point in h.net(level)
                assert dist < (1 << level)
                assert bfs_distances(g, v)[point] == dist

    def test_level_out_of_range(self):
        h = NetHierarchy(path_graph(4))
        with pytest.raises(LabelingError):
            h.net(h.top_level + 1)
        with pytest.raises(LabelingError):
            h.nearest_net_point(-1, 0)

    def test_single_vertex_graph(self):
        h = NetHierarchy(Graph(1))
        assert h.net(0) == {0}
        assert h.nearest_net_point(h.top_level, 0) == (0, 0)

    def test_lemma_2_2_packing_bound(self):
        # |B(v, R) ∩ N_i| <= 2 (4R / 2^i)^alpha with alpha ~ 1 on paths,
        # ~2 on grids
        g = path_graph(64)
        h = NetHierarchy(g)
        for level in range(1, h.top_level + 1):
            for v in (0, 31, 63):
                for radius in (2, 8, 32):
                    ball = bfs_distances(g, v, radius=radius)
                    count = sum(1 for u in ball if u in h.net(level))
                    assert count <= 2 * max(1.0, (4 * radius / (1 << level))) ** 1.0


class TestDoublingEstimation:
    def test_path_estimate_small(self):
        assert doubling_dimension_estimate(path_graph(64), seed=0) <= 2.0

    def test_grid_estimate_moderate(self):
        est = doubling_dimension_estimate(grid_graph(10, 10), seed=0)
        assert 1.0 <= est <= 3.5

    def test_complete_graph_estimate(self):
        # K_n: B(v, 2) is everything and a single radius-1 ball covers it
        assert doubling_dimension_estimate(complete_graph(16), seed=0) <= 1.0

    def test_edgeless(self):
        assert doubling_dimension_estimate(Graph(5)) == 0.0

    def test_greedy_ball_cover_covers(self):
        g = grid_graph(7, 7)
        centers = greedy_ball_cover(g, 24, 4, 2)
        covered = set()
        for center in centers:
            covered.update(bfs_distances(g, center, radius=2))
        assert covered >= set(bfs_distances(g, 24, radius=4))

    def test_packing_bound_holds_for_net(self):
        g = grid_graph(8, 8)
        net = greedy_dominating_set(g, 4)
        assert packing_bound_holds(g, net, spacing=4, alpha=2.5, seed=0)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 50), st.integers(0, 10**6))
def test_hierarchy_properties_on_random_trees(n, seed):
    g = random_tree(n, seed)
    h = NetHierarchy(g)
    h.validate()
    # top net dominates within 2^top - 1
    top = h.top_level
    for v in range(0, n, max(1, n // 7)):
        _, dist = h.nearest_net_point(top, v)
        assert dist < (1 << top)
