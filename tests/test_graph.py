"""Unit tests for the core Graph class."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs import Graph, from_edge_list, from_networkx, to_networkx
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    road_like_graph,
)


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_add_edge_and_neighbors(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 3)
        assert sorted(g.neighbors(1)) == [0, 3]
        assert g.num_edges == 2

    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_duplicate_edge_rejected(self):
        g = Graph(2)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.add_edge(1, 0)

    def test_out_of_range_vertex_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 2)

    def test_add_edges_bulk(self):
        g = Graph(3)
        g.add_edges([(0, 1), (1, 2)])
        assert g.num_edges == 2


class TestInspection:
    def test_has_edge_symmetric(self):
        g = Graph(3)
        g.add_edge(0, 2)
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_edges_iterates_once_per_edge(self):
        g = cycle_graph(5)
        edges = list(g.edges())
        assert len(edges) == 5
        assert all(u < v for u, v in edges)

    def test_degree(self):
        g = path_graph(3)
        assert g.degree(0) == 1
        assert g.degree(1) == 2

    def test_repr(self):
        assert repr(path_graph(3)) == "Graph(n=3, m=2)"


class TestPorts:
    def test_port_roundtrip(self):
        g = Graph(4)
        g.add_edges([(0, 1), (0, 2), (0, 3)])
        for v in (1, 2, 3):
            port = g.port_to(0, v)
            assert g.neighbor_by_port(0, port) == v

    def test_port_to_missing_edge_raises(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.port_to(0, 2)

    def test_bad_port_raises(self):
        g = path_graph(2)
        with pytest.raises(GraphError):
            g.neighbor_by_port(0, 5)


class TestSubgraphWithout:
    def test_vertex_removal_isolates_vertex(self):
        g = path_graph(4)
        h = g.subgraph_without(removed_vertices=[1])
        assert h.num_vertices == 4
        assert h.degree(1) == 0
        assert h.has_edge(2, 3)
        assert not h.has_edge(0, 1)

    def test_edge_removal_any_orientation(self):
        g = path_graph(3)
        h = g.subgraph_without(removed_edges=[(2, 1)])
        assert h.has_edge(0, 1)
        assert not h.has_edge(1, 2)

    def test_copy_is_independent(self):
        g = path_graph(3)
        h = g.copy()
        h.add_edge(0, 2)
        assert not g.has_edge(0, 2)


def test_from_edge_list_dedupes():
    g = from_edge_list(3, [(0, 1), (1, 0), (1, 1), (1, 2)])
    assert g.num_edges == 2


@given(st.integers(2, 40), st.data())
def test_random_graph_handshake_property(n, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80
        )
    )
    g = from_edge_list(n, pairs)
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges
    # each listed edge appears in both adjacency lists
    for u, v in g.edges():
        assert u in g.neighbors(v) and v in g.neighbors(u)


@pytest.mark.parametrize("graph", [
    grid_graph(4, 5), cycle_graph(9), road_like_graph(6, 6, seed=2), Graph(3),
], ids=["grid", "cycle", "road", "edgeless"])
def test_networkx_round_trip(graph):
    back, node_to_id, id_to_node = from_networkx(to_networkx(graph))
    assert back.num_vertices == graph.num_vertices
    assert sorted(back.edges()) == sorted(graph.edges())
    assert id_to_node == list(graph.vertices())
    assert node_to_id == {v: v for v in graph.vertices()}


def test_from_networkx_relabels_and_drops_self_loops():
    import networkx as nx

    nx_graph = nx.MultiGraph()
    nx_graph.add_edges_from([("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")])
    graph, node_to_id, id_to_node = from_networkx(nx_graph)
    assert id_to_node == ["a", "b", "c"]
    assert node_to_id == {"a": 0, "b": 1, "c": 2}
    assert sorted(graph.edges()) == [(0, 1), (1, 2)]
    nx_back = to_networkx(graph)
    assert sorted(nx_back.edges()) == [(0, 1), (1, 2)]
