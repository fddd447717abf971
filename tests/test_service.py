"""Tests for the resilient sharded label-serving runtime."""

import io
import math

import pytest

from repro.baselines import ExactRecomputeOracle
from repro.exceptions import QueryError, ServiceError
from repro.graphs.generators import cycle_graph, grid_graph
from repro.labeling import ForbiddenSetLabeling
from repro.labeling.encoding import decode_label, encode_label
from repro.oracle import ForbiddenSetDistanceOracle
from repro.oracle.persistence import LabelDatabase, save_labels
from repro.service import (
    BreakerPolicy,
    CircuitBreaker,
    DegradationReason,
    QueryService,
    ResilientLabelClient,
    RetryPolicy,
    ShardedLabelStore,
    VirtualClock,
)


@pytest.fixture(scope="module")
def grid_setup():
    graph = grid_graph(5, 5)
    scheme = ForbiddenSetLabeling(graph, epsilon=1.0)
    labels = [encode_label(scheme.label(v)) for v in graph.vertices()]
    return graph, scheme, labels


def make_store(labels, **kwargs):
    kwargs.setdefault("num_shards", 4)
    kwargs.setdefault("replication", 2)
    kwargs.setdefault("seed", 5)
    return ShardedLabelStore(labels, **kwargs)


class TestVirtualClock:
    def test_advances_monotonically(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance(3.5)
        clock.advance(0.5)
        assert clock.now == 4.0

    def test_rejects_negative(self):
        with pytest.raises(QueryError):
            VirtualClock().advance(-1.0)


class TestShardedLabelStore:
    def test_replica_placement(self, grid_setup):
        _, _, labels = grid_setup
        store = make_store(labels, num_shards=4, replication=2)
        assert store.replicas(0) == (0, 1)
        assert store.replicas(6) == (2, 3)
        assert store.replicas(7) == (3, 0)

    def test_fetch_roundtrips_bytes(self, grid_setup):
        _, scheme, labels = grid_setup
        store = make_store(labels)
        for vertex in (0, 7, 24):
            for shard in store.replicas(vertex):
                result = store.fetch(shard, vertex)
                assert result.ok
                assert result.data == labels[vertex]
                decode_label(result.data)  # round-trips through the codec

    def test_fetch_wrong_shard_rejected(self, grid_setup):
        _, _, labels = grid_setup
        store = make_store(labels)
        wrong = next(
            s for s in range(store.num_shards) if s not in store.replicas(0)
        )
        with pytest.raises(QueryError):
            store.fetch(wrong, 0)

    def test_down_shard_fails_fast(self, grid_setup):
        _, _, labels = grid_setup
        store = make_store(labels)
        store.set_down(0)
        result = store.fetch(0, 0)
        assert not result.ok and result.error == "down"
        assert result.latency_ms < store.base_latency_ms

    def test_flaky_shard_fails_sometimes(self, grid_setup):
        _, _, labels = grid_setup
        store = make_store(labels, seed=9)
        store.set_flaky(0, 0.5)
        outcomes = {store.fetch(0, 0).ok for _ in range(50)}
        assert outcomes == {True, False}

    def test_corruption_never_decodes(self, grid_setup):
        """CRC turns every mutated record into an error, not garbage."""
        _, _, labels = grid_setup
        store = make_store(labels)
        hit = store.corrupt(0, fraction=1.0, rng=3)
        assert hit > 0
        assert store.health(0).corrupted_records == hit
        for vertex in range(len(labels)):
            if 0 in store.replicas(vertex):
                result = store.fetch(0, vertex)
                assert not result.ok
                assert result.error == "corrupt"

    def test_recover_restores_pristine_bytes(self, grid_setup):
        _, _, labels = grid_setup
        store = make_store(labels)
        store.corrupt(1, fraction=1.0, rng=3)
        store.set_down(1)
        store.recover(1)
        assert store.health(1).healthy
        vertex = next(v for v in range(len(labels)) if 1 in store.replicas(v))
        assert store.fetch(1, vertex).data == labels[vertex]

    def test_apply_event_rejects_network_kinds(self, grid_setup):
        _, _, labels = grid_setup
        from repro.scenario import ScenarioEvent

        store = make_store(labels)
        with pytest.raises(QueryError):
            store.apply_event(ScenarioEvent(None, "fail_vertex", vertex=0))

    def test_replication_bounds_validated(self, grid_setup):
        _, _, labels = grid_setup
        with pytest.raises(ServiceError):
            ShardedLabelStore(labels, num_shards=2, replication=3)
        with pytest.raises(ServiceError):
            ShardedLabelStore([])

    def test_recover_all_resets_latency_and_flakiness(self, grid_setup):
        """Recovery clears every injected condition, not just outages."""
        _, _, labels = grid_setup
        store = make_store(labels)
        store.set_slow(0, latency_ms=80.0)
        store.set_flaky(1, probability=0.9)
        store.corrupt(2, fraction=1.0, rng=7)
        store.set_down(3)
        store.recover_all()
        for shard in range(store.num_shards):
            health = store.health(shard)
            assert health.healthy
            assert health.latency_ms == store.base_latency_ms
            assert health.flaky_probability == 0.0
            assert health.corrupted_records == 0
        vertex = next(v for v in range(len(labels)) if 2 in store.replicas(v))
        assert store.fetch(2, vertex).data == labels[vertex]


class TestDurableStore:
    """shard_crash / shard_restart: genuine reload-from-disk recovery."""

    def make_durable_store(self, labels, **kwargs):
        from repro.durability import SimulatedFS

        store = make_store(labels, **kwargs)
        store.attach_durability(SimulatedFS(seed=9), "store-test")
        return store

    def test_crash_requires_durability(self, grid_setup):
        _, _, labels = grid_setup
        store = make_store(labels)
        with pytest.raises(ServiceError):
            store.crash(0)
        with pytest.raises(ServiceError):
            store.restart(0)

    def test_crashed_shard_fails_fast(self, grid_setup):
        _, _, labels = grid_setup
        store = self.make_durable_store(labels)
        store.crash(0)
        assert not store.health(0).healthy
        assert store.health(0).crashed
        vertex = next(v for v in range(len(labels)) if 0 in store.replicas(v))
        result = store.fetch(0, vertex)
        assert not result.ok
        assert result.error == "crashed"
        assert result.latency_ms < store.base_latency_ms

    def test_restart_reloads_records_from_disk(self, grid_setup):
        _, _, labels = grid_setup
        store = self.make_durable_store(labels)
        store.crash(2)
        report = store.restart(2)
        assert store.health(2).healthy
        assert report.recovered_vertices > 0
        for vertex in range(len(labels)):
            if 2 in store.replicas(vertex):
                assert store.fetch(2, vertex).data == labels[vertex]

    def test_restart_discards_injected_corruption(self, grid_setup):
        """A restart serves the durable (clean) bytes, not the damaged ones."""
        _, _, labels = grid_setup
        store = self.make_durable_store(labels)
        store.corrupt(1, fraction=1.0, rng=3)
        store.crash(1)
        store.restart(1)
        assert store.health(1).healthy
        for vertex in range(len(labels)):
            if 1 in store.replicas(vertex):
                assert store.fetch(1, vertex).data == labels[vertex]

    def test_recover_routes_through_restart_when_durable(self, grid_setup):
        _, _, labels = grid_setup
        store = self.make_durable_store(labels)
        store.corrupt(0, fraction=1.0, rng=5)
        store.recover(0)
        assert store.health(0).healthy
        vertex = next(v for v in range(len(labels)) if 0 in store.replicas(v))
        assert store.fetch(0, vertex).data == labels[vertex]

    def test_quarantined_labels_stay_poisoned_across_restart(self, grid_setup):
        """Untrustworthy-at-ingest labels must not resurrect on restart."""
        _, _, labels = grid_setup
        poisoned = list(labels)
        poisoned[3] = None
        store = self.make_durable_store(poisoned)
        shard = store.replicas(3)[0]
        store.crash(shard)
        store.restart(shard)
        result = store.fetch(shard, 3)
        assert not result.ok
        assert result.error == "quarantined"


class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        policy = BreakerPolicy(failure_threshold=3, cooldown_ms=100.0)
        breaker = CircuitBreaker(policy)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state(0.0) == "closed"
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "open"
        assert breaker.trips == 1
        # half-open probe after the cooldown, then closes on success
        assert breaker.state(100.0) == "half_open"
        breaker.record_success(100.0)
        assert breaker.state(100.0) == "closed"
        assert breaker.closes == 1

    def test_failed_probe_rearms_cooldown(self):
        policy = BreakerPolicy(failure_threshold=1, cooldown_ms=50.0)
        breaker = CircuitBreaker(policy)
        breaker.record_failure(0.0)
        assert breaker.state(50.0) == "half_open"
        breaker.record_failure(50.0)
        assert breaker.state(60.0) == "open"
        assert breaker.state(100.0) == "half_open"


class TestResilientClient:
    def make_client(self, labels, **kwargs):
        store = make_store(labels)
        return store, ResilientLabelClient(store, seed=7, **kwargs)

    def test_healthy_fetch(self, grid_setup):
        _, _, labels = grid_setup
        _, client = self.make_client(labels)
        assert client.fetch_label(3).data == labels[3]
        assert client.metrics.retries == 0

    def test_failover_to_replica(self, grid_setup):
        _, _, labels = grid_setup
        store, client = self.make_client(labels)
        store.set_down(store.replicas(0)[0])
        assert client.fetch_label(0).data == labels[0]
        assert client.metrics.failovers >= 1

    def test_all_replicas_down_fails_the_fetch(self, grid_setup):
        _, _, labels = grid_setup
        store, client = self.make_client(labels)
        for shard in store.replicas(0):
            store.set_down(shard)
        outcome = client.fetch_label(0)
        assert not outcome.ok
        assert client.metrics.fetch_failures == 1

    def test_attempts_bounded_by_policy(self, grid_setup):
        _, _, labels = grid_setup
        store, client = self.make_client(
            labels, retry=RetryPolicy(max_attempts=3, hedging=False)
        )
        for shard in store.replicas(0):
            store.set_down(shard)
        outcome = client.fetch_label(0)
        assert not outcome.ok
        assert outcome.attempts <= 3

    def test_deadline_exceeded(self, grid_setup):
        _, _, labels = grid_setup
        store, client = self.make_client(
            labels, retry=RetryPolicy(max_attempts=10, hedging=False)
        )
        store.set_slow(store.replicas(0)[0], 500.0)
        store.set_slow(store.replicas(0)[1], 500.0)
        outcome = client.fetch_label(0, deadline_ms=40.0)
        assert not outcome.ok
        assert outcome.error == "deadline"
        assert client.metrics.deadline_exhausted == 1

    def test_attempt_exhaustion_fails_the_fetch(self, grid_setup):
        _, _, labels = grid_setup
        store, client = self.make_client(labels)
        store.set_slow(store.replicas(0)[0], 500.0)
        store.set_slow(store.replicas(0)[1], 500.0)
        outcome = client.fetch_label(0, deadline_ms=40.0)
        assert not outcome.ok
        assert "timeout" in outcome.error

    def test_breaker_short_circuits_after_trips(self, grid_setup):
        _, _, labels = grid_setup
        store, client = self.make_client(labels)
        for shard in store.replicas(0):
            store.set_down(shard)
        for _ in range(4):
            client.fetch_label(0, deadline_ms=30.0)
        assert client.metrics.breaker_trips >= 1
        assert client.metrics.short_circuits >= 1

    def test_hedged_read_beats_slow_primary(self, grid_setup):
        _, _, labels = grid_setup
        store, client = self.make_client(
            labels,
            retry=RetryPolicy(hedge_after_ms=5.0, attempt_timeout_ms=60.0),
        )
        store.set_slow(store.replicas(0)[0], 40.0)
        outcome = client.fetch_label(0)
        assert outcome.ok
        assert client.metrics.hedges == 1
        assert client.metrics.hedge_wins == 1
        # the hedge finished long before the slow primary would have
        assert outcome.latency_ms < 40.0

    def test_seeded_determinism(self, grid_setup):
        _, _, labels = grid_setup

        def run():
            store = make_store(labels, seed=21)
            client = ResilientLabelClient(store, seed=22)
            store.set_flaky(0, 0.6)
            store.set_slow(1, 30.0)
            outcomes = [client.fetch_label(v) for v in range(10)]
            return [
                (o.ok, o.attempts, o.latency_ms) for o in outcomes
            ], client.metrics.snapshot()

        assert run() == run()


class TestQueryService:
    @pytest.fixture(scope="class")
    def oracle_service(self):
        graph = grid_graph(5, 5)
        oracle = ForbiddenSetDistanceOracle(graph, epsilon=1.0)
        service = QueryService.from_database(
            oracle, num_shards=4, replication=2, store_seed=5, seed=7
        )
        return graph, oracle, service

    def test_exact_matches_oracle(self, oracle_service):
        graph, oracle, service = oracle_service
        exact = ExactRecomputeOracle(graph)
        for s, t, faults in [(0, 24, ()), (0, 24, (12,)), (4, 20, (10, 14))]:
            outcome = service.query(s, t, vertex_faults=faults)
            assert outcome.exact and not outcome.missing
            d_true = exact.query(s, t, vertex_faults=list(faults))
            assert d_true <= outcome.distance <= 2 * d_true
            assert outcome.lower_bound <= d_true
            assert (
                outcome.distance
                == oracle.query(s, t, vertex_faults=list(faults)).distance
            )

    def test_duplicate_faults_collapse(self, oracle_service):
        _, _, service = oracle_service
        a = service.query(1, 23, vertex_faults=(7, 7, 7), edge_faults=[(2, 3)])
        b = service.query(1, 23, vertex_faults=(7,), edge_faults=[(3, 2)])
        assert a.distance == b.distance

    def test_endpoint_in_faults_rejected(self, oracle_service):
        _, _, service = oracle_service
        with pytest.raises(QueryError):
            service.query(0, 24, vertex_faults=(0,))

    def test_endpoint_unavailable_is_flagged(self, oracle_service):
        """Both replicas of an endpoint down: degraded, never a guess."""
        graph, oracle, service = oracle_service
        for shard in service.store.replicas(0):
            service.store.set_down(shard)
        outcome = service.query(0, 24)
        assert outcome.degraded
        assert outcome.distance is None
        assert outcome.reason == "endpoint_unavailable"
        assert outcome.lower_bound == 0.0
        assert outcome.retry_suggested
        assert any(m.role == "endpoint" for m in outcome.missing)
        # recovery restores exact answers, no rebuild needed
        service.store.recover_all()
        service.clock.advance(2 * service.client.breaker_policy.cooldown_ms)
        after = service.query(0, 24)
        assert after.exact
        assert after.distance == oracle.query(0, 24).distance

    def test_missing_fault_labels_give_certified_lower_bound(self):
        graph = grid_graph(5, 5)
        oracle = ForbiddenSetDistanceOracle(graph, epsilon=1.0)
        service = QueryService.from_database(
            oracle, num_shards=5, replication=1, store_seed=5, seed=7
        )
        fault = 12
        exact = ExactRecomputeOracle(graph)
        for shard in service.store.replicas(fault):
            service.store.set_down(shard)
        s, t = 0, 24
        assert shard not in (
            service.store.replicas(s) + service.store.replicas(t)
        )
        outcome = service.query(s, t, vertex_faults=(fault,))
        assert outcome.degraded
        assert outcome.reason == "fault_labels_unavailable"
        assert outcome.distance is None
        assert any(m.vertex == fault for m in outcome.missing)
        d_true = exact.query(s, t, vertex_faults=[fault])
        assert 0 < outcome.lower_bound <= d_true

    def test_metrics_summary_counts(self, oracle_service):
        _, _, service = oracle_service
        summary = service.metrics_summary()
        assert summary["queries"] == (
            summary["exact_answers"] + summary["degraded_answers"]
        )
        assert 0.0 <= summary["degraded_rate"] <= 1.0
        assert summary["attempts"] >= summary["queries"]

    def test_from_scheme_stretch_bound(self):
        graph = cycle_graph(16)
        scheme = ForbiddenSetLabeling(graph, epsilon=0.5)
        service = QueryService.from_scheme(scheme, num_shards=3)
        assert service.stretch_bound == scheme.stretch_bound()
        assert service.query(0, 8).exact


class TestQuarantineServing:
    """Satellite: .fsdl quarantine interplay with the serving tier."""

    def _quarantined_db(self):
        graph = grid_graph(5, 5)
        scheme = ForbiddenSetLabeling(graph, epsilon=1.0)
        buffer = io.BytesIO()
        save_labels(scheme, buffer)
        blob = bytearray(buffer.getvalue())
        # damage the first byte of label 0's payload (v2 layout:
        # 25-byte header + 4-byte count, then [len u32][crc u32][data])
        blob[29 + 8] ^= 0x01
        db = LabelDatabase.load(io.BytesIO(bytes(blob)), strict=False)
        assert list(db.quarantined) == [0]
        return graph, db

    def test_quarantined_label_degrades_never_decodes(self):
        graph, db = self._quarantined_db()
        service = QueryService.from_database(
            db, num_shards=4, replication=2, store_seed=5, seed=7
        )
        outcome = service.query(0, 24)
        assert outcome.degraded
        assert outcome.distance is None
        assert any(
            m.vertex == 0 and "quarantined" in m.error
            for m in outcome.missing
        )

    def test_quarantined_fault_label_yields_lower_bound(self):
        graph, db = self._quarantined_db()
        service = QueryService.from_database(
            db, num_shards=4, replication=2, store_seed=5, seed=7
        )
        exact = ExactRecomputeOracle(graph)
        outcome = service.query(6, 24, vertex_faults=(0,))
        assert outcome.degraded
        assert outcome.reason == "fault_labels_unavailable"
        assert outcome.lower_bound <= exact.query(6, 24, vertex_faults=[0])

    def test_clean_labels_still_serve_exactly(self):
        graph, db = self._quarantined_db()
        service = QueryService.from_database(
            db, num_shards=4, replication=2, store_seed=5, seed=7
        )
        pristine = ExactRecomputeOracle(graph)
        outcome = service.query(6, 24, vertex_faults=(12,))
        assert outcome.exact
        d_true = pristine.query(6, 24, vertex_faults=[12])
        assert d_true <= outcome.distance <= 2 * d_true


class TestDegradationReason:
    """The degradation vocabulary is a stable enum, string-compatible."""

    def test_members_are_stable(self):
        assert {reason.value for reason in DegradationReason} == {
            "endpoint_unavailable",
            "fault_labels_unavailable",
            "shed_overload",
            "quota_exceeded",
            "queue_deadline",
        }

    def test_shed_reasons_are_the_gateway_subset(self):
        from repro.service import SHED_REASONS

        assert SHED_REASONS == {
            DegradationReason.SHED_OVERLOAD,
            DegradationReason.QUOTA_EXCEEDED,
            DegradationReason.QUEUE_DEADLINE,
        }
        assert DegradationReason.ENDPOINT_UNAVAILABLE not in SHED_REASONS

    def test_string_compatibility(self):
        reason = DegradationReason.ENDPOINT_UNAVAILABLE
        assert reason == "endpoint_unavailable"
        assert str(reason) == "endpoint_unavailable"
        assert f"{reason}" == "endpoint_unavailable"
        assert isinstance(reason, str)

    def test_outcome_carries_enum_member(self):
        graph = grid_graph(4, 4)
        oracle = ForbiddenSetDistanceOracle(graph, epsilon=1.0)
        service = QueryService.from_database(
            oracle, num_shards=4, replication=2, store_seed=5, seed=7
        )
        healthy = service.query(0, 15)
        assert healthy.reason is None
        for shard in service.store.replicas(0):
            service.store.set_down(shard)
        outcome = service.query(0, 15)
        assert outcome.reason is DegradationReason.ENDPOINT_UNAVAILABLE
