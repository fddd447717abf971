"""Tests for the centralized and dynamic oracles."""

import math

import pytest

from repro.baselines import ExactRecomputeOracle
from repro.exceptions import QueryError
from repro.graphs.generators import cycle_graph, grid_graph, path_graph
from repro.oracle import DynamicDistanceOracle, ForbiddenSetDistanceOracle
from repro.workloads import random_queries


class TestStaticOracle:
    @pytest.fixture(scope="class")
    def grid_oracle(self):
        g = grid_graph(6, 6)
        return g, ForbiddenSetDistanceOracle(g, epsilon=1.0)

    def test_matches_exact_within_stretch(self, grid_oracle):
        g, oracle = grid_oracle
        exact = ExactRecomputeOracle(g)
        for q in random_queries(g, 30, max_vertex_faults=3, max_edge_faults=1, seed=1):
            d_true = exact.query(
                q.s, q.t, vertex_faults=q.vertex_faults, edge_faults=q.edge_faults
            )
            d_hat = oracle.query(
                q.s, q.t, vertex_faults=q.vertex_faults, edge_faults=q.edge_faults
            ).distance
            if math.isinf(d_true):
                assert math.isinf(d_hat)
            else:
                assert d_true <= d_hat <= 2 * d_true

    def test_size_accounting(self, grid_oracle):
        _, oracle = grid_oracle
        max_label_bits = max(8 * len(oracle.encoded(v)) for v in range(36))
        assert oracle.size_bits() >= 36 * max_label_bits / 36
        assert max_label_bits > 0

    def test_is_the_database_of_its_scheme(self, grid_oracle):
        """Same stored bytes, answers and span trees as the saved table."""
        import io

        from repro.labeling import ForbiddenSetLabeling
        from repro.obs.trace import Tracer
        from repro.oracle.persistence import LabelDatabase, save_labels

        g, oracle = grid_oracle
        buffer = io.BytesIO()
        save_labels(ForbiddenSetLabeling(g, epsilon=1.0), buffer)
        db = LabelDatabase.load(io.BytesIO(buffer.getvalue()))
        assert isinstance(oracle, LabelDatabase)
        assert [oracle.encoded(v) for v in g.vertices()] == [
            db.encoded(v) for v in g.vertices()
        ]
        assert (oracle.epsilon, oracle.c, oracle.top_level) == (
            db.epsilon, db.c, db.top_level,
        )
        ours, theirs = Tracer(), Tracer()
        faults = {"vertex_faults": [14], "edge_faults": [(20, 21)]}
        assert oracle.query(0, 35, tracer=ours, **faults) == db.query(
            0, 35, tracer=theirs, **faults
        )
        assert ours.to_dicts() == theirs.to_dicts()

    def test_out_of_range_vertex(self, grid_oracle):
        _, oracle = grid_oracle
        with pytest.raises(QueryError):
            oracle.query(0, 99)

    def test_bad_forbidden_edge(self, grid_oracle):
        _, oracle = grid_oracle
        with pytest.raises(QueryError):
            oracle.query(0, 5, edge_faults=[(0, 35)])

    def test_oracle_size_independent_of_fault_count(self):
        """The headline property: one build serves any |F|."""
        g = cycle_graph(24)
        oracle = ForbiddenSetDistanceOracle(g, epsilon=1.0)
        size = oracle.size_bits()
        for k in (0, 1, 3, 6):
            faults = list(range(1, 1 + k))
            oracle.query(0, 12, vertex_faults=faults)
            assert oracle.size_bits() == size  # untouched by queries


class TestDynamicOracle:
    def test_delete_and_query(self):
        g = cycle_graph(20)
        dyn = DynamicDistanceOracle(g, epsilon=1.0)
        assert dyn.query(0, 5) == 5
        dyn.delete_vertex(2)
        d = dyn.query(0, 5)
        assert 15 <= d <= 30  # long way around, within stretch 2

    def test_delete_edge_and_restore(self):
        g = path_graph(10)
        dyn = DynamicDistanceOracle(g, epsilon=1.0)
        dyn.delete_edge(4, 5)
        assert math.isinf(dyn.query(0, 9))
        dyn.restore_edge(4, 5)
        assert dyn.query(0, 9) == 9

    def test_restore_vertex(self):
        g = cycle_graph(16)
        dyn = DynamicDistanceOracle(g, epsilon=1.0)
        dyn.delete_vertex(3)
        dyn.restore_vertex(3)
        assert dyn.query(0, 6) == 6

    def test_query_deleted_endpoint_rejected(self):
        dyn = DynamicDistanceOracle(path_graph(6), epsilon=1.0)
        dyn.delete_vertex(2)
        with pytest.raises(QueryError):
            dyn.query(2, 4)

    def test_delete_missing_edge_rejected(self):
        dyn = DynamicDistanceOracle(path_graph(6), epsilon=1.0)
        with pytest.raises(QueryError):
            dyn.delete_edge(0, 3)

    def test_rebuild_triggers_at_threshold(self):
        g = grid_graph(6, 6)
        dyn = DynamicDistanceOracle(g, epsilon=1.0, rebuild_threshold=3)
        for v in (7, 9, 21):
            dyn.delete_vertex(v)
        assert dyn.rebuilds == 0
        dyn.delete_vertex(27)  # 4 > 3 -> rebuild
        assert dyn.rebuilds == 1
        assert dyn.pending_fault_count() == 0

    def test_queries_correct_across_rebuilds(self):
        g = grid_graph(6, 6)
        dyn = DynamicDistanceOracle(g, epsilon=1.0, rebuild_threshold=2)
        exact = ExactRecomputeOracle(g)
        deleted = []
        for v in (7, 9, 21, 27, 14):
            dyn.delete_vertex(v)
            deleted.append(v)
            d_true = exact.query(0, 35, vertex_faults=deleted)
            d_hat = dyn.query(0, 35)
            if math.isinf(d_true):
                assert math.isinf(d_hat)
            else:
                assert d_true <= d_hat <= 2 * d_true

    def test_restore_after_bake_rebuilds(self):
        g = cycle_graph(16)
        dyn = DynamicDistanceOracle(g, epsilon=1.0, rebuild_threshold=1)
        dyn.delete_vertex(3)
        dyn.delete_vertex(8)  # exceeds threshold -> baked
        rebuilds = dyn.rebuilds
        assert rebuilds >= 1
        dyn.restore_vertex(3)
        assert dyn.rebuilds == rebuilds + 1
        assert dyn.query(2, 4) == 2

    def test_edge_fault_on_deleted_vertex_is_dropped(self):
        g = cycle_graph(12)
        dyn = DynamicDistanceOracle(g, epsilon=1.0, rebuild_threshold=1)
        dyn.delete_vertex(3)
        dyn.delete_vertex(7)  # bake both
        dyn.delete_edge(3, 4)  # incident to a deleted vertex
        exact = ExactRecomputeOracle(g)
        d_true = exact.query(0, 5, vertex_faults=[3, 7])
        d_hat = dyn.query(0, 5)
        if math.isinf(d_true):
            assert math.isinf(d_hat)
        else:
            assert d_true <= d_hat <= 2 * d_true


def count_parses(monkeypatch) -> list[int]:
    """The owner vertex of every label the decode kernel's loader parses."""
    import repro.labeling.kernel.arena as arena_module

    calls: list[int] = []
    real = arena_module.read_label

    def counting(data, read_edges=None):
        header, levels = real(data, read_edges)
        calls.append(header[0])
        return header, levels

    monkeypatch.setattr(arena_module, "read_label", counting)
    return calls


class TestDecodeEconomy:
    """Each serialized label is parsed at most once, across queries too."""

    def _counting_oracle(self, monkeypatch):
        g = grid_graph(4, 4)
        oracle = ForbiddenSetDistanceOracle(g, epsilon=1.0)
        return oracle, count_parses(monkeypatch)

    def test_plain_query_decodes_each_endpoint_once(self, monkeypatch):
        oracle, calls = self._counting_oracle(monkeypatch)
        oracle.query(0, 15)
        assert sorted(calls) == [0, 15]

    def test_overlapping_fault_roles_decode_once(self, monkeypatch):
        """Vertex 5 appears as vertex fault and twice via edge faults."""
        oracle, calls = self._counting_oracle(monkeypatch)
        oracle.query(
            0, 15,
            vertex_faults=[5, 5, 6],
            edge_faults=[(5, 1), (1, 5), (5, 9)],
        )
        assert len(calls) == len(set(calls))
        assert sorted(set(calls)) == [0, 1, 5, 6, 9, 15]

    def test_decode_counter_counts_real_decodes(self, monkeypatch):
        """Labels served from the cache count as hits, never as parses."""
        oracle = ForbiddenSetDistanceOracle(grid_graph(4, 4), epsilon=1.0)
        arena = oracle._decoder.arena
        calls = count_parses(monkeypatch)
        queries = [
            (0, 15, [5, 6], []),
            (0, 15, [5, 6], []),  # repeated
            (3, 12, [5], [(6, 10)]),  # overlaps the first two
            (0, 12, [], [(1, 5), (5, 9)]),  # 5 twice in one query
        ]
        loads = 0
        for s, t, vertex_faults, edge_faults in queries:
            oracle.query(
                s, t, vertex_faults=vertex_faults, edge_faults=edge_faults
            )
            loads += 2 + len(vertex_faults) + 2 * len(edge_faults)
        assert arena.parses == len(calls) == len(set(calls))
        assert arena.parses + arena.hits == loads

    def test_duplicate_faults_answer_unchanged(self):
        g = grid_graph(4, 4)
        oracle = ForbiddenSetDistanceOracle(g, epsilon=1.0)
        clean = oracle.query(0, 15, vertex_faults=[5, 6]).distance
        noisy = oracle.query(
            0, 15, vertex_faults=[5, 6, 5, 6, 6], edge_faults=[]
        ).distance
        assert clean == noisy

    def test_both_edge_orientations_collapse(self):
        g = grid_graph(4, 4)
        oracle = ForbiddenSetDistanceOracle(g, epsilon=1.0)
        a = oracle.query(0, 15, edge_faults=[(1, 5), (5, 1)]).distance
        b = oracle.query(0, 15, edge_faults=[(1, 5)]).distance
        assert a == b

    def test_self_loop_edge_fault_rejected(self):
        g = grid_graph(4, 4)
        oracle = ForbiddenSetDistanceOracle(g, epsilon=1.0)
        with pytest.raises(QueryError):
            oracle.query(0, 15, edge_faults=[(5, 5)])


class TestDynamicOracleProperties:
    """Seeded random churn against BFS ground truth on the survivor graph."""

    def test_random_churn_matches_exact(self):
        from repro.util.rng import make_rng

        g = grid_graph(5, 5)
        exact = ExactRecomputeOracle(g)
        dyn = DynamicDistanceOracle(g, epsilon=1.0, rebuild_threshold=3)
        rng = make_rng(42)
        deleted_v: set[int] = set()
        deleted_e: set[tuple[int, int]] = set()
        edges = sorted(g.edges())
        for step in range(40):
            roll = rng.random()
            if roll < 0.30 and len(deleted_v) < 4:
                v = rng.choice([u for u in range(g.num_vertices) if u not in deleted_v])
                dyn.delete_vertex(v)
                deleted_v.add(v)
            elif roll < 0.45 and deleted_v:
                v = rng.choice(sorted(deleted_v))
                dyn.restore_vertex(v)
                deleted_v.discard(v)
            elif roll < 0.60 and len(deleted_e) < 4:
                e = rng.choice([e for e in edges if e not in deleted_e])
                dyn.delete_edge(*e)
                deleted_e.add(e)
            elif roll < 0.70 and deleted_e:
                e = rng.choice(sorted(deleted_e))
                dyn.restore_edge(*e)
                deleted_e.discard(e)
            else:
                live = [u for u in range(g.num_vertices) if u not in deleted_v]
                s, t = rng.sample(live, 2)
                d_true = exact.query(
                    s, t, vertex_faults=deleted_v, edge_faults=deleted_e
                )
                d_hat = dyn.query(s, t)
                if math.isinf(d_true):
                    assert math.isinf(d_hat), (step, s, t)
                else:
                    assert d_true <= d_hat <= 2 * d_true, (step, s, t)
        assert dyn.rebuilds >= 1  # the threshold crossed at least once

    def test_restore_never_deleted_rejected(self):
        dyn = DynamicDistanceOracle(path_graph(8), epsilon=1.0)
        with pytest.raises(QueryError):
            dyn.restore_vertex(3)
        with pytest.raises(QueryError):
            dyn.restore_edge(3, 4)
        # restoring across a bake still works: the element stays in the
        # deleted set until explicitly restored
        dyn2 = DynamicDistanceOracle(cycle_graph(16), epsilon=1.0, rebuild_threshold=1)
        dyn2.delete_vertex(3)
        dyn2.delete_vertex(8)  # crosses the threshold -> baked
        dyn2.restore_vertex(3)
        with pytest.raises(QueryError):
            dyn2.restore_vertex(3)  # no longer deleted

    def test_observability_counters(self):
        from repro.obs.registry import Registry

        obs = Registry()
        dyn = DynamicDistanceOracle(
            grid_graph(4, 4), epsilon=1.0, rebuild_threshold=2, obs=obs
        )
        dyn.delete_vertex(5)
        dyn.delete_edge(0, 1)
        dyn.delete_vertex(9)  # 3 pending > 2 -> rebuild
        assert obs.get_counter_value(
            "repro_dynamic_deletions_total", kind="vertex"
        ) == 2
        assert obs.get_counter_value(
            "repro_dynamic_deletions_total", kind="edge"
        ) == 1
        assert obs.get_counter_value("repro_dynamic_rebuilds_total") == 1
        assert obs.gauge("repro_dynamic_pending_faults").value == 0
        dyn.restore_vertex(5)
        assert obs.get_counter_value(
            "repro_dynamic_restores_total", kind="vertex"
        ) == 1
