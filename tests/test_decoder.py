"""Tests for the sketch-graph decoder (the 'Distance Queries' paragraph).

The pivotal properties:

* **soundness** (Lemma 2.3): every sketch edge corresponds to a
  fault-free path of exactly its weight, so the decoded distance never
  undershoots ``d_{G\\F}``;
* **stretch** (Lemma 2.4): the decoded distance never exceeds
  ``(1+ε)·d_{G\\F}``;
* **connectivity exactness**: ``δ < ∞`` iff ``s`` and ``t`` are
  connected in ``G \\ F``.
"""

import math
import random

import pytest

from repro.baselines import ExactRecomputeOracle
from repro.exceptions import QueryError
from repro.graphs import Graph
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    road_like_graph,
)
from repro.labeling import (
    FaultSet,
    ForbiddenSetLabeling,
    LabelingOptions,
    decode_distance,
)
from tests.graph_families import star_graph
from tests.reference_decoder import build_sketch_graph


def check_random_queries(
    graph,
    scheme,
    num_queries,
    max_vertex_faults,
    max_edge_faults=0,
    seed=0,
):
    """Shared harness: sandwich d_true <= d_hat <= (1+eps) d_true."""
    exact = ExactRecomputeOracle(graph)
    rng = random.Random(seed)
    n = graph.num_vertices
    edges = list(graph.edges())
    bound = scheme.stretch_bound()
    for _ in range(num_queries):
        s, t = rng.sample(range(n), 2)
        vf = [
            v
            for v in rng.sample(range(n), min(n - 2, rng.randint(0, max_vertex_faults)))
            if v not in (s, t)
        ]
        ef = rng.sample(edges, rng.randint(0, max_edge_faults)) if max_edge_faults else []
        d_true = exact.query(s, t, vertex_faults=vf, edge_faults=ef)
        d_hat = scheme.query(s, t, vertex_faults=vf, edge_faults=ef).distance
        if math.isinf(d_true):
            assert math.isinf(d_hat), (s, t, vf, ef)
        else:
            assert d_true <= d_hat <= bound * d_true + 1e-9, (s, t, vf, ef, d_true, d_hat)


class TestBasicQueries:
    def test_identity_query(self):
        scheme = ForbiddenSetLabeling(path_graph(8), epsilon=1.0)
        result = scheme.query(2, 2)
        assert result.distance == 0 and result.path == (2,)

    def test_no_fault_distance_exact_on_path(self):
        scheme = ForbiddenSetLabeling(path_graph(32), epsilon=1.0)
        assert scheme.query(0, 31).distance >= 31

    def test_endpoint_in_fault_set_rejected(self):
        scheme = ForbiddenSetLabeling(path_graph(8), epsilon=1.0)
        with pytest.raises(QueryError):
            scheme.query(0, 3, vertex_faults=[3])
        with pytest.raises(QueryError):
            scheme.query(3, 0, vertex_faults=[3])

    def test_identity_query_with_endpoint_fault_rejected(self):
        scheme = ForbiddenSetLabeling(path_graph(8), epsilon=1.0)
        with pytest.raises(QueryError):
            scheme.query(3, 3, vertex_faults=[3])

    def test_nonexistent_forbidden_edge_rejected(self):
        scheme = ForbiddenSetLabeling(path_graph(8), epsilon=1.0)
        with pytest.raises(QueryError):
            scheme.query(0, 3, edge_faults=[(0, 5)])

    def test_mismatched_labels_rejected(self):
        a = ForbiddenSetLabeling(path_graph(64), epsilon=1.0)
        b = ForbiddenSetLabeling(path_graph(64), epsilon=0.25)
        with pytest.raises(QueryError):
            decode_distance(a.label(0), b.label(5))

    def test_cut_vertex_disconnects(self):
        scheme = ForbiddenSetLabeling(path_graph(16), epsilon=1.0)
        result = scheme.query(0, 15, vertex_faults=[8])
        assert math.isinf(result.distance)
        assert result.path == ()

    def test_cut_edge_disconnects(self):
        scheme = ForbiddenSetLabeling(path_graph(16), epsilon=1.0)
        assert math.isinf(scheme.query(0, 15, edge_faults=[(7, 8)]).distance)

    def test_cycle_reroutes_around_fault(self):
        scheme = ForbiddenSetLabeling(cycle_graph(32), epsilon=1.0)
        exact = ExactRecomputeOracle(cycle_graph(32))
        d_true = exact.query(0, 4, vertex_faults=[2])
        d_hat = scheme.query(0, 4, vertex_faults=[2]).distance
        assert d_true == 28
        assert 28 <= d_hat <= 2 * 28

    def test_star_center_fault_disconnects_leaves(self):
        scheme = ForbiddenSetLabeling(star_graph(6), epsilon=1.0)
        assert math.isinf(scheme.query(1, 2, vertex_faults=[0]).distance)

    def test_result_path_endpoints(self):
        scheme = ForbiddenSetLabeling(grid_graph(6, 6), epsilon=1.0)
        result = scheme.query(0, 35, vertex_faults=[7])
        assert result.path[0] == 0 and result.path[-1] == 35

    def test_result_sketch_sizes_positive(self):
        scheme = ForbiddenSetLabeling(grid_graph(5, 5), epsilon=1.0)
        result = scheme.query(0, 24)
        assert result.sketch_vertices > 0 and result.sketch_edges > 0


class TestSoundness:
    """The decoded distance never undershoots (Lemma 2.3)."""

    def test_sketch_edges_avoid_faults(self):
        g = grid_graph(7, 7)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        exact = ExactRecomputeOracle(g)
        faults = [24, 10, 38]
        fs = scheme.fault_set(vertex_faults=faults)
        adjacency = build_sketch_graph(scheme.label(0), scheme.label(48), fs)
        for x, nbrs in adjacency.items():
            for y, weight in nbrs:
                # the weight must be realizable in G \ F
                d_gf = exact.query(x, y, vertex_faults=faults)
                assert d_gf <= weight, (x, y, weight, d_gf)

    def test_sketch_edge_weights_match_g_distance(self):
        from repro.graphs import bfs_distances

        g = grid_graph(7, 7)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        fs = scheme.fault_set(vertex_faults=[24])
        adjacency = build_sketch_graph(scheme.label(0), scheme.label(48), fs)
        for x, nbrs in adjacency.items():
            truth = bfs_distances(g, x)
            for y, weight in nbrs:
                assert truth[y] == weight

    def test_faulty_vertices_isolated_in_sketch(self):
        g = grid_graph(7, 7)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        fs = scheme.fault_set(vertex_faults=[24, 25])
        adjacency = build_sketch_graph(scheme.label(0), scheme.label(48), fs)
        assert adjacency.get(24, []) == []
        assert adjacency.get(25, []) == []
        for nbrs in adjacency.values():
            assert all(y not in (24, 25) for y, _ in nbrs)

    def test_forbidden_edge_not_in_sketch(self):
        g = cycle_graph(16)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        fs = scheme.fault_set(edge_faults=[(3, 4)])
        adjacency = build_sketch_graph(scheme.label(0), scheme.label(8), fs)
        assert all(y != 4 or w > 1 for y, w in adjacency.get(3, []))


class TestStretchRandomized:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 4.0])
    def test_grid_vertex_faults(self, epsilon):
        g = grid_graph(9, 9)
        scheme = ForbiddenSetLabeling(g, epsilon=epsilon)
        check_random_queries(g, scheme, 40, max_vertex_faults=5, seed=1)

    def test_grid_mixed_faults(self):
        g = grid_graph(8, 8)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        check_random_queries(
            g, scheme, 40, max_vertex_faults=3, max_edge_faults=3, seed=2
        )

    def test_cycle_edge_faults(self):
        g = cycle_graph(48)
        scheme = ForbiddenSetLabeling(g, epsilon=0.5)
        check_random_queries(
            g, scheme, 40, max_vertex_faults=0, max_edge_faults=2, seed=3
        )

    def test_tree_vertex_faults(self):
        g = random_tree(70, seed=4)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        check_random_queries(g, scheme, 40, max_vertex_faults=4, seed=4)

    def test_road_like_mixed_faults(self):
        g = road_like_graph(8, 8, removal_fraction=0.1, seed=5)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        check_random_queries(
            g, scheme, 40, max_vertex_faults=4, max_edge_faults=2, seed=5
        )

    def test_unit_mode_same_guarantees(self):
        g = grid_graph(9, 9)
        scheme = ForbiddenSetLabeling(
            g, epsilon=1.0, options=LabelingOptions(low_level="unit")
        )
        check_random_queries(
            g, scheme, 40, max_vertex_faults=5, max_edge_faults=2, seed=6
        )

    def test_disconnected_graph_components(self):
        g = Graph(8)
        g.add_edges([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        assert math.isinf(scheme.query(0, 7).distance)
        assert scheme.query(3, 7).distance == 4


class TestAdversarialFaults:
    """Faults placed exactly on the shortest path, forcing detours."""

    def test_shortest_path_blocked_on_grid(self):
        from repro.graphs import shortest_path

        g = grid_graph(9, 9)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        exact = ExactRecomputeOracle(g)
        s, t = 0, 80
        path = shortest_path(g, s, t)
        faults = path[len(path) // 2 : len(path) // 2 + 2]  # block the middle
        d_true = exact.query(s, t, vertex_faults=faults)
        d_hat = scheme.query(s, t, vertex_faults=faults).distance
        assert d_true <= d_hat <= 2 * d_true

    def test_repeated_blocking(self):
        """Iteratively forbid the returned path; distances must not shrink."""
        g = grid_graph(8, 8)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        exact = ExactRecomputeOracle(g)
        s, t = 0, 63
        faults: list[int] = []
        previous = 0
        for _ in range(4):
            d_true = exact.query(s, t, vertex_faults=faults)
            if math.isinf(d_true):
                break
            result = scheme.query(s, t, vertex_faults=faults)
            assert d_true <= result.distance <= 2 * d_true
            assert result.distance >= previous
            previous = d_true
            # forbid an interior vertex of the realized route
            interior = [v for v in result.path if v not in (s, t)]
            if not interior:
                break
            faults.append(interior[len(interior) // 2])

    def test_wall_of_faults(self):
        """A full column of faults in a grid forces inf."""
        g = grid_graph(6, 6)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        wall = [6 * 2 + y for y in range(6)]  # column x=2
        result = scheme.query(0, 35, vertex_faults=wall)
        assert math.isinf(result.distance)

    def test_wall_with_one_gap(self):
        g = grid_graph(6, 6)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        exact = ExactRecomputeOracle(g)
        wall = [6 * 2 + y for y in range(5)]  # gap at (2, 5)
        d_true = exact.query(0, 35, vertex_faults=wall)
        d_hat = scheme.query(0, 35, vertex_faults=wall).distance
        assert not math.isinf(d_true)
        assert d_true <= d_hat <= 2 * d_true


class TestNormalizeFaults:
    def test_dedup_preserves_first_seen_order(self):
        from repro.labeling import normalize_faults

        vertices, edges = normalize_faults(
            [4, 2, 4, 7, 2], [(3, 1), (1, 3), (9, 5)]
        )
        assert vertices == (4, 2, 7)
        assert edges == ((1, 3), (5, 9))

    def test_empty_inputs(self):
        from repro.labeling import normalize_faults

        assert normalize_faults((), ()) == ((), ())

    def test_self_loop_rejected(self):
        from repro.exceptions import QueryError
        from repro.labeling import normalize_faults

        with pytest.raises(QueryError):
            normalize_faults((), [(2, 2)])
