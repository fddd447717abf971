"""Tests for named, composable routing policies."""

import math
import time

import pytest

from repro.baselines import ExactRecomputeOracle
from repro.exceptions import QueryError
from repro.graphs.generators import cycle_graph, grid_graph, road_like_graph
from repro.labeling import ForbiddenSetLabeling, decode_distance
from repro.routing.policy import PolicyRouter
from repro.workloads import random_queries
from tests import reference_decoder


@pytest.fixture()
def router():
    r = PolicyRouter(grid_graph(6, 6), epsilon=1.0)
    r.define_policy("no-center", vertices=[14, 15, 20, 21])
    r.define_policy("no-top-row", vertices=[5, 11, 17, 23, 29])
    r.define_policy("no-first-link", edges=[(0, 1)])
    return r


class TestPolicyManagement:
    def test_names_listed(self, router):
        vertices, edges = router.combined_faults(
            ["no-center", "no-first-link", "no-top-row"]
        )
        assert vertices == {14, 15, 20, 21, 5, 11, 17, 23, 29}
        assert edges == {(0, 1)}
        with pytest.raises(QueryError):
            router.combined_faults(["no-such-policy"])

    def test_redefinition_replaces(self, router):
        router.define_policy("no-center", vertices=[7])
        vertices, _ = router.combined_faults(["no-center"])
        assert vertices == {7}

    def test_bad_policy_contents_rejected(self, router):
        with pytest.raises(QueryError):
            router.define_policy("bad-v", vertices=[999])
        with pytest.raises(QueryError):
            router.define_policy("bad-e", edges=[(0, 35)])

    def test_unknown_policy_rejected(self, router):
        with pytest.raises(QueryError):
            router.route(0, 35, policies=["nope"])

    def test_composition_is_union(self, router):
        vertices, edges = router.combined_faults(["no-center", "no-first-link"])
        assert vertices == {14, 15, 20, 21}
        assert edges == {(0, 1)}


class TestPolicyQueries:
    def test_no_policy_is_plain_routing(self, router):
        assert router.route(0, 35).hops == 10
        assert router.distance(0, 35).distance == 10

    def test_route_respects_policy(self, router):
        result = router.route(0, 35, policies=["no-center"])
        assert not set(result.route) & {14, 15, 20, 21}

    def test_distance_matches_exact_within_stretch(self, router):
        g = grid_graph(6, 6)
        exact = ExactRecomputeOracle(g)
        for policies in ([], ["no-center"], ["no-center", "no-top-row"]):
            vertices, edges = router.combined_faults(policies)
            d_true = exact.query(
                0, 35, vertex_faults=vertices, edge_faults=edges
            )
            d_hat = router.distance(0, 35, policies=policies).distance
            assert d_true <= d_hat <= 2 * d_true

    def test_edge_policy(self, router):
        result = router.route(0, 1, policies=["no-first-link"])
        used = {(min(a, b), max(a, b)) for a, b in zip(result.route, result.route[1:])}
        assert (0, 1) not in used

    def test_policy_blocking_endpoint_rejected(self, router):
        with pytest.raises(QueryError):
            router.distance(14, 35, policies=["no-center"])

    def test_disconnection_under_policies(self):
        r = PolicyRouter(cycle_graph(12), epsilon=1.0)
        r.define_policy("cut", vertices=[3, 9])
        assert math.isinf(r.distance(0, 6, policies=["cut"]).distance)

    def test_redefinition_invalidates_session(self, router):
        first = router.distance(0, 35, policies=["no-center"]).distance
        router.define_policy("no-center", vertices=[])
        second = router.distance(0, 35, policies=["no-center"]).distance
        assert second <= first


def reference_distance(scheme, s, t, vertices=(), edges=()):
    """The reference decoder's answer for the router's fault order."""
    faults = scheme.fault_set(
        vertex_faults=sorted(vertices), edge_faults=sorted(edges)
    )
    return reference_decoder.decode_distance(
        scheme.label(s), scheme.label(t), faults
    )


class TestDistanceMatchesReference:
    """``PolicyRouter.distance`` equals the reference decoder, query by query.

    The router answers every query on one long-lived kernel decoder, so
    these checks also run through its warm memos across queries.
    """

    @pytest.mark.parametrize("faults", [[], [24], [24, 10, 38]])
    def test_grid_vertex_faults(self, faults):
        g = grid_graph(7, 7)
        router = PolicyRouter(g, epsilon=1.0)
        router.define_policy("down", vertices=faults)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        for s, t in [(0, 48), (3, 45), (21, 27), (6, 42)]:
            expected = reference_distance(scheme, s, t, vertices=faults)
            assert router.distance(s, t, policies=["down"]) == expected

    def test_road_edge_faults(self):
        g = road_like_graph(7, 7, seed=2)
        edges = list(g.edges())[:3]
        router = PolicyRouter(g, epsilon=1.0)
        router.define_policy("cut", edges=edges)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        normalized = [(min(a, b), max(a, b)) for a, b in edges]
        for q in random_queries(g, 15, max_vertex_faults=0, seed=3):
            expected = reference_distance(scheme, q.s, q.t, edges=normalized)
            assert router.distance(q.s, q.t, policies=["cut"]) == expected

    def test_disconnection(self):
        g = cycle_graph(16)
        router = PolicyRouter(g, epsilon=1.0)
        router.define_policy("cut", vertices=[4, 12])
        result = router.distance(0, 8, policies=["cut"])
        assert math.isinf(result.distance)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        assert result == reference_distance(scheme, 0, 8, vertices=[4, 12])

    def test_identity_query(self):
        router = PolicyRouter(cycle_graph(8), epsilon=1.0)
        assert router.distance(3, 3).distance == 0

    def test_endpoint_in_faults_rejected(self):
        router = PolicyRouter(cycle_graph(8), epsilon=1.0)
        router.define_policy("down", vertices=[3])
        with pytest.raises(QueryError):
            router.distance(3, 5, policies=["down"])
        with pytest.raises(QueryError):
            router.distance(3, 3, policies=["down"])

    def test_queries_do_not_leak_into_each_other(self):
        """Endpoint fragments from one query must not affect the next."""
        router = PolicyRouter(grid_graph(6, 6), epsilon=1.0)
        router.define_policy("down", vertices=[14])
        first = router.distance(0, 35, policies=["down"])
        # unrelated queries in between, under other compositions too
        router.distance(5, 30, policies=["down"])
        router.distance(0, 35)
        assert router.distance(0, 35, policies=["down"]) == first

    def test_redefined_policy_matches_reference(self):
        g = grid_graph(6, 6)
        router = PolicyRouter(g, epsilon=1.0)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        for vertices in ([14, 15], [20, 21], [14, 15]):
            router.define_policy("down", vertices=vertices)
            expected = reference_distance(scheme, 0, 35, vertices=vertices)
            assert router.distance(0, 35, policies=["down"]) == expected

    def test_stream_is_faster_than_one_shot_decodes(self):
        """Repeated queries under one policy reuse the router's decoder."""
        g = grid_graph(9, 9)
        faults = [40, 41, 31, 49, 22, 58]
        router = PolicyRouter(g, epsilon=1.0)
        router.define_policy("down", vertices=faults)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        fault_set = scheme.fault_set(vertex_faults=sorted(faults))
        pairs = [(s, t) for s in (0, 8, 72) for t in (80, 44, 36)]
        labels = {v: scheme.label(v) for s, t in pairs for v in (s, t)}
        for s, t in pairs:  # materialize the router's labels
            router.distance(s, t, policies=["down"])

        start = time.perf_counter()
        one_shot = [
            decode_distance(labels[s], labels[t], fault_set) for s, t in pairs
        ]
        t_one_shot = time.perf_counter() - start
        start = time.perf_counter()
        stream = [router.distance(s, t, policies=["down"]) for s, t in pairs]
        t_stream = time.perf_counter() - start

        assert stream == one_shot
        assert t_stream < t_one_shot
