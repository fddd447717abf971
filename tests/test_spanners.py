"""Tests for spanner utilities and their role in Section 3."""

import math

from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    half_king_grid,
    king_grid,
    path_graph,
)
from tests.spanners import is_spanner, is_subgraph, spanner_stretch


class TestSubgraph:
    def test_subgraph_of_itself(self):
        g = cycle_graph(6)
        assert is_subgraph(g, g.copy())

    def test_not_subgraph_extra_edge(self):
        g = path_graph(4)
        h = path_graph(4)
        h.add_edge(0, 3)
        assert not is_subgraph(g, h)

    def test_different_sizes(self):
        assert not is_subgraph(path_graph(4), path_graph(5))


class TestStretch:
    def test_identity_stretch_one(self):
        g = cycle_graph(8)
        assert spanner_stretch(g, g.copy()) == 1.0

    def test_cycle_minus_edge(self):
        g = cycle_graph(8)
        h = g.subgraph_without(removed_edges=[(0, 7)])
        assert spanner_stretch(g, h) == 7.0

    def test_disconnected_candidate_inf(self):
        g = path_graph(4)
        h = Graph(4)  # no edges at all
        assert math.isinf(spanner_stretch(g, h))

    def test_half_king_is_2_spanner_of_king(self):
        """The cornerstone of Theorem 3.1's construction."""
        for p, d in ((4, 2), (3, 4)):
            g = king_grid(p, d)
            h = half_king_grid(p, d)
            assert is_spanner(g, h, 2)

    def test_spanner_predicate_rejects_too_small_stretch(self):
        g = cycle_graph(8)
        h = g.subgraph_without(removed_edges=[(0, 7)])
        assert not is_spanner(g, h, 2)
        assert is_spanner(g, h, 7)
