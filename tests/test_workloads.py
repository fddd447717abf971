"""Tests for workload generators."""

from repro.graphs import shortest_path
from repro.graphs.generators import cycle_graph, grid_graph, path_graph
from repro.workloads import (
    adversarial_queries,
    clustered_fault_queries,
    random_queries,
)


class TestRandomQueries:
    def test_counts_and_validity(self):
        g = grid_graph(6, 6)
        queries = random_queries(g, 25, max_vertex_faults=3, max_edge_faults=2, seed=1)
        assert len(queries) == 25
        for q in queries:
            assert q.s != q.t
            assert q.s not in q.vertex_faults and q.t not in q.vertex_faults
            for a, b in q.edge_faults:
                assert g.has_edge(a, b)

    def test_deterministic(self):
        g = cycle_graph(12)
        assert random_queries(g, 10, seed=7) == random_queries(g, 10, seed=7)

    def test_num_faults(self):
        g = path_graph(10)
        queries = random_queries(g, 10, max_vertex_faults=2, max_edge_faults=1, seed=2)
        assert all(q.num_faults <= 3 for q in queries)


class TestAdversarialQueries:
    def test_faults_on_shortest_path(self):
        g = grid_graph(7, 7)
        queries = adversarial_queries(g, 15, faults_per_query=2, seed=3)
        assert queries
        for q in queries:
            path = shortest_path(g, q.s, q.t)
            # every fault must lie on *a* shortest path interior; our
            # generator picked it from one concrete path, so verify via
            # the distance identity
            from repro.graphs import bfs_distances

            d_st = bfs_distances(g, q.s)[q.t]
            for f in q.vertex_faults:
                d_sf = bfs_distances(g, q.s)[f]
                d_ft = bfs_distances(g, f)[q.t]
                assert d_sf + d_ft == d_st

    def test_skips_too_close_pairs(self):
        g = path_graph(3)  # all pairs have path length <= 2: no interior >= 2
        assert adversarial_queries(g, 5, seed=0) == []


class TestClusteredQueries:
    def test_cluster_is_ball(self):
        g = grid_graph(8, 8)
        queries = clustered_fault_queries(g, 10, cluster_radius=1, seed=4)
        from repro.graphs import bfs_distances

        for q in queries:
            faults = set(q.vertex_faults)
            # some center must dominate the cluster within the radius
            assert any(
                faults == set(bfs_distances(g, center, radius=1))
                for center in faults
            )

    def test_endpoints_outside_cluster(self):
        g = grid_graph(8, 8)
        for q in clustered_fault_queries(g, 10, cluster_radius=2, seed=5):
            assert q.s not in q.vertex_faults and q.t not in q.vertex_faults
