"""Tests for the failure-free (1+eps) labeling scheme (Section 2.1 overview)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ExactRecomputeOracle
from repro.exceptions import LabelingError
from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.labeling import FailureFreeLabeling


class TestConstruction:
    def test_bad_epsilon(self):
        with pytest.raises(LabelingError):
            FailureFreeLabeling(path_graph(4), epsilon=0)

    def test_empty_graph(self):
        with pytest.raises(LabelingError):
            FailureFreeLabeling(Graph(0), epsilon=1)

    def test_c_formula(self):
        # c = max(0, ceil(log2(2/eps)))
        assert FailureFreeLabeling(path_graph(8), epsilon=2.0).c == 0
        assert FailureFreeLabeling(path_graph(8), epsilon=1.0).c == 1
        assert FailureFreeLabeling(path_graph(8), epsilon=0.5).c == 2

    def test_label_contains_nearest_net_point(self):
        g = grid_graph(6, 6)
        scheme = FailureFreeLabeling(g, epsilon=1.0)
        label = scheme.label(14)
        for i in scheme.levels():
            point, dist = label.nearest_point(i)
            assert dist < 2 ** max(i - scheme.c, 0) or dist == 0

    def test_label_distances_are_exact(self):
        from repro.graphs import bfs_distances

        g = cycle_graph(20)
        scheme = FailureFreeLabeling(g, epsilon=1.0)
        true_dist = bfs_distances(g, 3)
        label = scheme.label(3)
        for ball in label.balls.values():
            for point, dist in ball.items():
                assert dist == true_dist[point]


class TestQueries:
    def test_same_vertex(self):
        scheme = FailureFreeLabeling(path_graph(8), epsilon=1.0)
        assert scheme.query(3, 3) == 0

    def test_disconnected_returns_inf(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        scheme = FailureFreeLabeling(g, epsilon=1.0)
        assert math.isinf(scheme.query(0, 3))

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 4.0])
    def test_stretch_bound_all_pairs_grid(self, epsilon):
        g = grid_graph(7, 7)
        scheme = FailureFreeLabeling(g, epsilon=epsilon)
        exact = ExactRecomputeOracle(g)
        for s in range(0, 49, 5):
            for t in range(49):
                if s == t:
                    continue
                d_true = exact.query(s, t)
                d_hat = scheme.query(s, t)
                assert d_true <= d_hat <= (1 + epsilon) * d_true

    def test_stretch_bound_all_pairs_cycle(self):
        g = cycle_graph(40)
        scheme = FailureFreeLabeling(g, epsilon=0.5)
        exact = ExactRecomputeOracle(g)
        for s in range(0, 40, 4):
            for t in range(40):
                if s == t:
                    continue
                d_true = exact.query(s, t)
                assert d_true <= scheme.query(s, t) <= 1.5 * d_true

    def test_decoder_uses_labels_only(self):
        g = path_graph(32)
        scheme = FailureFreeLabeling(g, epsilon=1.0)
        label_a, label_b = scheme.label(2), scheme.label(29)
        # query from detached labels (no scheme/graph access)
        d = FailureFreeLabeling.query_from_labels(label_a, label_b)
        assert 27 <= d <= 2 * 27

    def test_build_all_labels_size(self):
        g = path_graph(32)
        scheme = FailureFreeLabeling(g, epsilon=1.0)
        labels = {v: scheme.label(v) for v in g.vertices()}
        assert len(labels) == 32
        assert all(lbl.size_entries() > 0 for lbl in labels.values())


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6))
def test_stretch_on_random_trees_property(n, seed):
    g = random_tree(n, seed)
    scheme = FailureFreeLabeling(g, epsilon=1.0)
    exact = ExactRecomputeOracle(g)
    s, t = 0, n - 1
    d_true = exact.query(s, t)
    d_hat = scheme.query(s, t)
    assert d_true <= d_hat <= 2 * d_true
