"""Tests for the async gateway: loop, admission, cache, coalescing, sheds.

Everything runs on virtual time — no sleeps, no wall clock — and every
scenario is seeded, so each test is exactly reproducible.
"""

import pytest

from repro.exceptions import GatewayError, QueryError
from repro.gateway import (
    AsyncGateway,
    CachingLabelClient,
    Event,
    Future,
    GatewayConfig,
    GatewayRequest,
    LabelCache,
    QuotaPolicy,
    TokenBucket,
    VirtualLoop,
    WaitingRoom,
)
from repro.graphs.generators import grid_graph
from repro.labeling import ForbiddenSetLabeling
from repro.obs.export import render_prometheus
from repro.obs.registry import Registry
from repro.service import (
    SHED_REASONS,
    DegradationReason,
    QueryService,
    VirtualClock,
)
from repro.service.store import ShardedLabelStore


# ---------------------------------------------------------------------------
# VirtualClock waiter API
# ---------------------------------------------------------------------------


class TestClockWakeups:
    def test_sync_advance_is_unchanged_without_waiters(self):
        clock = VirtualClock()
        clock.advance(5.0)
        assert clock.now == 5.0
        with pytest.raises(QueryError):
            clock.advance(-1.0)

    def test_wakeups_fire_in_due_then_registration_order(self):
        clock = VirtualClock()
        fired = []
        clock.schedule_wakeup(10.0, lambda: fired.append("b"))
        clock.schedule_wakeup(5.0, lambda: fired.append("a"))
        clock.schedule_wakeup(10.0, lambda: fired.append("c"))
        clock.advance(20.0)
        assert fired == ["a", "b", "c"]
        assert clock.now == 20.0

    def test_clock_reads_due_time_inside_callback(self):
        clock = VirtualClock()
        seen = []
        clock.schedule_wakeup(3.0, lambda: seen.append(clock.now))
        clock.advance(10.0)
        assert seen == [3.0]

    def test_cancelled_wakeup_never_fires(self):
        clock = VirtualClock()
        fired = []
        wakeup = clock.schedule_wakeup(5.0, lambda: fired.append(1))
        wakeup.cancel()
        clock.advance(10.0)
        assert fired == []
        assert clock.next_wakeup() is None

    def test_next_wakeup_skips_cancelled_heads(self):
        clock = VirtualClock()
        first = clock.schedule_wakeup(5.0, lambda: None)
        clock.schedule_wakeup(8.0, lambda: None)
        assert clock.next_wakeup() == 5.0
        first.cancel()
        assert clock.next_wakeup() == 8.0

    def test_past_wakeup_clamps_to_now(self):
        clock = VirtualClock()
        clock.advance(10.0)
        fired = []
        clock.schedule_wakeup(3.0, lambda: fired.append(clock.now))
        clock.advance(0.0)
        assert fired == [10.0]


# ---------------------------------------------------------------------------
# VirtualLoop
# ---------------------------------------------------------------------------


class TestVirtualLoop:
    def test_tasks_resume_in_fifo_order(self):
        loop = VirtualLoop()
        order = []

        async def worker(tag):
            order.append(f"{tag}-start")
            await loop.sleep(0)
            order.append(f"{tag}-end")

        loop.create_task(worker("a"))
        loop.run_until_complete(loop.create_task(worker("b")))
        assert order == ["a-start", "b-start", "a-end", "b-end"]

    def test_sleep_orders_by_due_time(self):
        loop = VirtualLoop()
        order = []

        async def sleeper(tag, ms):
            await loop.sleep(ms)
            order.append((tag, loop.now))

        late = loop.create_task(sleeper("late", 20.0))
        loop.create_task(sleeper("early", 5.0))
        loop.run_until_complete(late)
        assert order == [("early", 5.0), ("late", 20.0)]

    def test_run_until_complete_returns_result(self):
        loop = VirtualLoop()

        async def compute():
            await loop.sleep(1.0)
            return 42

        assert loop.run_until_complete(compute()) == 42

    def test_task_exception_propagates_at_await(self):
        loop = VirtualLoop()

        async def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            loop.run_until_complete(boom())

    def test_deadlock_is_detected_not_hung(self):
        loop = VirtualLoop()

        async def forever():
            await Future(loop)

        with pytest.raises(GatewayError, match="deadlock"):
            loop.run_until_complete(forever())

    def test_awaiting_foreign_awaitable_is_rejected(self):
        loop = VirtualLoop()

        class Alien:
            def __await__(self):
                yield "not-a-future"

        async def bad():
            await Alien()

        with pytest.raises(GatewayError, match="not a VirtualLoop awaitable"):
            loop.run_until_complete(bad())

    def test_negative_sleep_raises(self):
        loop = VirtualLoop()

        async def bad():
            await loop.sleep(-1.0)

        with pytest.raises(GatewayError):
            loop.run_until_complete(bad())

    def test_future_double_resolve_raises(self):
        loop = VirtualLoop()
        future = Future(loop)
        future.set_result(1)
        with pytest.raises(GatewayError):
            future.set_result(2)

    def test_future_result_before_done_raises(self):
        loop = VirtualLoop()
        with pytest.raises(GatewayError):
            Future(loop).result()

    def test_event_is_edge_triggered(self):
        loop = VirtualLoop()
        event = Event(loop)
        woken = []

        async def waiter(tag):
            await event.wait()
            woken.append(tag)

        loop.create_task(waiter("a"))
        last = loop.create_task(waiter("b"))

        async def pulse():
            await loop.sleep(0)  # let both park first
            event.notify()

        loop.create_task(pulse())
        loop.run_until_complete(last)
        assert woken == ["a", "b"]

    def test_step_count_is_deterministic(self):
        def run():
            loop = VirtualLoop()

            async def busy():
                for _ in range(5):
                    await loop.sleep(1.0)

            for task in [loop.create_task(busy()) for _ in range(3)]:
                loop.run_until_complete(task)
            return loop.steps

        assert run() == run()


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_ms=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(1.0)  # one token refilled
        assert not bucket.try_take(1.0)

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate_per_ms=10.0, burst=3.0)
        assert bucket.tokens(100.0) == 3.0

    def test_rejected_take_leaves_tokens(self):
        bucket = TokenBucket(rate_per_ms=1.0, burst=2.0)
        assert not bucket.try_take(0.0, cost=5.0)
        assert bucket.tokens(0.0) == 2.0

    def test_invalid_knobs_raise(self):
        with pytest.raises(GatewayError):
            TokenBucket(rate_per_ms=0.0, burst=1.0)
        with pytest.raises(GatewayError):
            TokenBucket(rate_per_ms=1.0, burst=0.0)


class TestWaitingRoom:
    def test_global_bound_refuses(self):
        room = WaitingRoom(capacity=2)
        assert room.push("a", "x")
        assert room.push("b", "y")
        assert not room.push("a", "z")
        assert len(room) == 2

    def test_per_tenant_bound_refuses_independently(self):
        room = WaitingRoom(capacity=10, per_tenant_capacity=1)
        assert room.push("a", "x1")
        assert not room.push("a", "x2")
        assert room.push("b", "y1")

    def test_drr_interleaves_backlogged_tenants(self):
        room = WaitingRoom(capacity=100, quantum=1.0)
        for i in range(3):
            room.push("a", f"a{i}", cost=1.0)
            room.push("b", f"b{i}", cost=1.0)
        picked = [room.pick() for _ in range(6)]
        assert picked == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_drr_serves_cost_proportionally(self):
        # tenant "cheap" sends cost-1 requests, "dear" sends cost-4:
        # with quantum 4, one dear request should cost as much service
        # as four cheap ones — equal *cost*, not equal request counts
        room = WaitingRoom(capacity=100, quantum=4.0)
        for i in range(8):
            room.push("cheap", f"c{i}", cost=1.0)
        for i in range(2):
            room.push("dear", f"d{i}", cost=4.0)
        picked = [room.pick() for _ in range(10)]
        # first round: cheap earns 4 → serves 4; dear earns 4 → serves 1
        assert picked[:5] == ["c0", "c1", "c2", "c3", "d0"]
        assert picked[5:] == ["c4", "c5", "c6", "c7", "d1"]

    def test_idle_tenant_forfeits_deficit(self):
        room = WaitingRoom(capacity=10, quantum=10.0)
        room.push("a", "a0", cost=1.0)
        assert room.pick() == "a0"  # deficit 9 left, then forfeited
        room.push("a", "a1", cost=1.0)
        room.push("b", "b0", cost=1.0)
        # if the deficit had been hoarded, "a" could burst ahead; both
        # tenants start the round on equal footing instead
        assert room.pick() == "a1"
        assert room.pick() == "b0"
        assert room.pick() is None

    def test_zero_cost_push_raises(self):
        room = WaitingRoom(capacity=2)
        with pytest.raises(GatewayError):
            room.push("a", "x", cost=0.0)


# ---------------------------------------------------------------------------
# Label cache
# ---------------------------------------------------------------------------


class TestLabelCache:
    def test_lru_evicts_oldest(self):
        cache = LabelCache(capacity=2)
        cache.put(0, 1, b"one")
        cache.put(0, 2, b"two")
        cache.get(0, 1, now_ms=0.0)  # touch 1 → 2 becomes LRU
        cache.put(0, 3, b"three")
        assert cache.get(0, 2, now_ms=0.0) is None
        assert cache.get(0, 1, now_ms=0.0).data == b"one"
        assert cache.metrics.evictions == 1

    def test_negative_entry_expires_on_virtual_ttl(self):
        cache = LabelCache(capacity=4, negative_ttl_ms=50.0)
        cache.put_negative(0, 1, "down", now_ms=0.0)
        entry = cache.get(0, 1, now_ms=49.0)
        assert entry is not None and entry.error == "down"
        assert cache.get(0, 1, now_ms=50.0) is None
        assert cache.metrics.expired == 1

    def test_deadline_failures_are_never_negative_cached(self):
        cache = LabelCache(capacity=4, negative_ttl_ms=50.0)
        cache.put_negative(0, 1, "deadline", now_ms=0.0)
        assert cache.get(0, 1, now_ms=1.0) is None
        assert cache.metrics.negative_stores == 0

    def test_generation_keys_isolate_versions(self):
        cache = LabelCache(capacity=8)
        cache.put(0, 1, b"old")
        cache.put(1, 1, b"new")
        assert cache.get(0, 1, now_ms=0.0).data == b"old"
        assert cache.get(1, 1, now_ms=0.0).data == b"new"

    def test_retain_generations_drops_retired(self):
        cache = LabelCache(capacity=8)
        cache.put(0, 1, b"old")
        cache.put(0, 2, b"old2")
        cache.put(1, 1, b"new")
        dropped = cache.retain_generations({1})
        assert dropped == 2
        assert cache.get(0, 1, now_ms=0.0) is None
        assert cache.get(1, 1, now_ms=0.0).data == b"new"


# ---------------------------------------------------------------------------
# Gateway stack helpers
# ---------------------------------------------------------------------------


def build_stack(
    config=None,
    num_shards=4,
    replication=2,
    use_cache=True,
    obs=None,
    graph=None,
):
    """One gateway over a 4×4 grid, everything on one virtual clock."""
    graph = graph if graph is not None else grid_graph(4, 4)
    clock = VirtualClock()
    loop = VirtualLoop(clock)
    scheme = ForbiddenSetLabeling(graph, 1.0)
    store = ShardedLabelStore.from_scheme(
        scheme, num_shards=num_shards, replication=replication, seed=5
    )
    if use_cache:
        client = CachingLabelClient(store, clock=clock, seed=7, obs=obs)
    else:
        client = None
    service = QueryService(
        store,
        stretch_bound=scheme.stretch_bound(),
        client=client,
        obs=obs,
        clock=clock,
        seed=7,
    )
    gateway = AsyncGateway(service, loop, config, obs=obs)
    return loop, service, gateway


def run_one(loop, gateway, request):
    future = gateway.submit(request)
    loop.run_until_complete(loop.create_task(_drain(gateway)))
    assert future.done()
    return future.result()


async def _drain(gateway):
    await gateway.drain()


# ---------------------------------------------------------------------------
# AsyncGateway behaviour
# ---------------------------------------------------------------------------


class TestGateway:
    def test_exact_answer_flows_through(self):
        loop, service, gateway = build_stack()
        outcome = run_one(loop, gateway, GatewayRequest("t", 0, 15))
        assert outcome.status == "exact"
        assert outcome.reason is None
        assert outcome.outcome.exact
        assert outcome.total_ms <= gateway.config.default_deadline_ms

    def test_mismatched_clocks_are_rejected(self):
        loop, service, gateway = build_stack()
        with pytest.raises(GatewayError, match="share one"):
            AsyncGateway(service, VirtualLoop())
        loop.run_until_complete(loop.create_task(_drain(gateway)))

    def test_endpoint_in_forbidden_set_raises_at_submit(self):
        loop, service, gateway = build_stack()
        with pytest.raises(QueryError):
            gateway.submit(GatewayRequest("t", 0, 5, vertex_faults=(0,)))
        loop.run_until_complete(loop.create_task(_drain(gateway)))

    def test_submit_after_close_raises(self):
        loop, service, gateway = build_stack()
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        with pytest.raises(GatewayError, match="closed"):
            gateway.submit(GatewayRequest("t", 0, 5))

    def test_quota_exhaustion_sheds_explicitly(self):
        config = GatewayConfig(
            default_quota=QuotaPolicy(rate_per_ms=0.001, burst=2.0)
        )
        loop, service, gateway = build_stack(config)
        futures = [
            gateway.submit(GatewayRequest("t", 0, 15)) for _ in range(5)
        ]
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        outcomes = [f.result() for f in futures]
        shed = [o for o in outcomes if o.shed]
        assert len(shed) == 3
        assert all(
            o.reason is DegradationReason.QUOTA_EXCEEDED for o in shed
        )
        assert gateway.metrics.shed_by_reason == {"quota_exceeded": 3}

    def test_full_room_sheds_overload(self):
        config = GatewayConfig(
            queue_capacity=2,
            default_quota=QuotaPolicy(rate_per_ms=100.0, burst=100.0),
        )
        loop, service, gateway = build_stack(config)
        futures = [
            gateway.submit(GatewayRequest("t", 0, 15)) for _ in range(6)
        ]
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        reasons = [f.result().reason for f in futures if f.result().shed]
        assert reasons.count(DegradationReason.SHED_OVERLOAD) == len(reasons)
        assert len(reasons) >= 1
        # nothing vanished: every submit resolved exactly once
        assert gateway.metrics.completed == 6

    def test_expired_queue_deadline_sheds_not_serves(self):
        config = GatewayConfig(
            max_concurrency=1,
            default_deadline_ms=0.5,  # far below one backend query
            default_quota=QuotaPolicy(rate_per_ms=100.0, burst=100.0),
        )
        loop, service, gateway = build_stack(config, use_cache=False)
        futures = [
            gateway.submit(GatewayRequest("t", 0, 15)) for _ in range(3)
        ]
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        outcomes = [f.result() for f in futures]
        late = [
            o for o in outcomes
            if o.shed and o.reason is DegradationReason.QUEUE_DEADLINE
        ]
        # the head request gets the backend; the ones behind it expire
        assert len(late) >= 1
        for o in outcomes:
            if not o.shed:
                assert o.reason is None or o.status == "degraded"

    def test_coalescing_shares_one_backend_query(self):
        config = GatewayConfig(
            default_quota=QuotaPolicy(rate_per_ms=100.0, burst=100.0),
        )
        loop, service, gateway = build_stack(config)
        futures = [
            gateway.submit(GatewayRequest("t", 0, 15, vertex_faults=(5,)))
            for _ in range(4)
        ]
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        outcomes = [f.result() for f in futures]
        assert all(o.status == "exact" for o in outcomes)
        assert service.metrics.queries == 1
        assert gateway.metrics.coalesced == 3
        assert sum(o.coalesced for o in outcomes) == 3
        distances = {o.outcome.distance for o in outcomes}
        assert len(distances) == 1

    def test_coalescing_disabled_runs_every_query(self):
        config = GatewayConfig(
            coalescing=False,
            default_quota=QuotaPolicy(rate_per_ms=100.0, burst=100.0),
        )
        loop, service, gateway = build_stack(config)
        futures = [
            gateway.submit(GatewayRequest("t", 0, 15)) for _ in range(4)
        ]
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        assert service.metrics.queries == 4
        assert gateway.metrics.coalesced == 0
        assert all(f.result().status == "exact" for f in futures)

    def test_tight_deadline_follower_does_not_attach(self):
        # a follower with a much tighter deadline than the in-flight
        # leader must run its own query (or shed) — never receive the
        # leader's answer after its own deadline (a silent timeout)
        config = GatewayConfig(
            default_quota=QuotaPolicy(rate_per_ms=100.0, burst=100.0),
            default_deadline_ms=250.0,
        )
        loop, service, gateway = build_stack(config)
        slow = gateway.submit(GatewayRequest("t", 0, 15))
        fast = gateway.submit(GatewayRequest("t", 0, 15, deadline_ms=3.0))
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        fast_outcome = fast.result()
        assert slow.result().status == "exact"
        if not fast_outcome.shed:
            assert fast_outcome.total_ms <= 3.0 + (
                service.client.retry.attempt_timeout_ms * 2 + 1.0
            )

    def test_determinism_identical_runs_identical_metrics(self):
        def run():
            config = GatewayConfig(
                default_quota=QuotaPolicy(rate_per_ms=0.5, burst=10.0)
            )
            loop, service, gateway = build_stack(config)
            for i in range(20):
                gateway.submit(
                    GatewayRequest("t", i % 16, (i + 3) % 16)
                    if i % 16 != (i + 3) % 16
                    else GatewayRequest("t", 0, 15)
                )
            loop.run_until_complete(loop.create_task(_drain(gateway)))
            metrics = gateway.metrics
            return (
                metrics.submitted,
                metrics.completed,
                metrics.exact,
                metrics.degraded,
                metrics.shed,
                metrics.shed_rate,
                metrics.goodput_fraction,
                metrics.coalesced,
                sorted(metrics.shed_by_reason.items()),
                loop.steps,
                loop.now,
            )

        assert run() == run()


# ---------------------------------------------------------------------------
# Satellite (a): frontend metrics correctness
# ---------------------------------------------------------------------------


class TestFrontendMetricsAudit:
    def test_degraded_rate_safe_before_any_query(self):
        loop, service, gateway = build_stack()
        assert service.metrics.degraded_rate == 0.0
        summary = service.metrics_summary()
        assert summary["queries"] == 0
        assert summary["degraded_rate"] == 0.0
        loop.run_until_complete(loop.create_task(_drain(gateway)))

    def test_reason_counts_appear_in_summary(self):
        loop, service, gateway = build_stack(replication=1)
        for shard in range(service.store.num_shards):
            service.store.set_down(shard)
        outcome = run_one(loop, gateway, GatewayRequest("t", 0, 15))
        assert outcome.status == "degraded"
        assert outcome.reason is DegradationReason.ENDPOINT_UNAVAILABLE
        summary = service.metrics_summary()
        assert summary["reason_endpoint_unavailable"] == 1
        assert summary["degraded_rate"] == 1.0

    def test_shed_rows_join_queries_total_family(self):
        obs = Registry()
        config = GatewayConfig(
            default_quota=QuotaPolicy(rate_per_ms=0.001, burst=1.0)
        )
        loop, service, gateway = build_stack(config, obs=obs)
        for _ in range(3):
            gateway.submit(GatewayRequest("t", 0, 15))
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        export = render_prometheus(obs)
        assert (
            'repro_queries_total{reason="quota_exceeded",status="shed"} 2'
            in export
        )
        # the served row lives in the same family with the same help
        assert 'repro_queries_total{reason="",status="exact"} 1' in export

    def test_shed_reasons_is_exactly_the_shed_subset(self):
        assert DegradationReason.SHED_OVERLOAD in SHED_REASONS
        assert DegradationReason.QUOTA_EXCEEDED in SHED_REASONS
        assert DegradationReason.QUEUE_DEADLINE in SHED_REASONS
        assert DegradationReason.FAULT_LABELS_UNAVAILABLE not in SHED_REASONS


# ---------------------------------------------------------------------------
# CachingLabelClient + generations
# ---------------------------------------------------------------------------


class TestCachingClient:
    def test_repeat_queries_hit_the_cache(self):
        # two queries sharing endpoint 0 but with different faults:
        # distinct coalesce keys, shared label bytes
        loop, service, gateway = build_stack()
        f1 = gateway.submit(GatewayRequest("t", 0, 15, vertex_faults=(5,)))
        f2 = gateway.submit(GatewayRequest("t", 0, 15, vertex_faults=(6,)))
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        assert f1.result().status == "exact"
        assert f2.result().status == "exact"
        cache = service.client.cache
        assert cache.metrics.misses >= 3  # 0, 15, and each fault once
        assert cache.metrics.hits >= 2  # 0 and 15 reused by the second

    def test_cache_hits_skip_physical_fetches(self):
        loop, service, gateway = build_stack(GatewayConfig(coalescing=False))
        f1 = gateway.submit(GatewayRequest("t", 0, 15))
        f2 = gateway.submit(GatewayRequest("t", 0, 15))
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        assert f1.result().status == "exact"
        assert f2.result().status == "exact"
        cache = service.client.cache
        assert cache.metrics.hits >= 2  # second query reuses both labels
        # hit latency is far below a physical fetch (compare backend
        # service time; total_ms would include the queue wait)
        assert (
            f2.result().outcome.latency_ms < f1.result().outcome.latency_ms
        )
        assert f2.result().outcome.attempts == 0  # zero physical fetches

    def test_negative_hit_replays_failure_explicitly(self):
        loop, service, gateway = build_stack(
            GatewayConfig(coalescing=False), replication=1
        )
        for shard in range(service.store.num_shards):
            service.store.set_down(shard)
        f1 = gateway.submit(GatewayRequest("t", 0, 15))
        f2 = gateway.submit(GatewayRequest("t", 0, 15))
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        assert f1.result().status == "degraded"
        o2 = f2.result()
        assert o2.status == "degraded"
        assert o2.reason is DegradationReason.ENDPOINT_UNAVAILABLE
        if service.client.cache.metrics.negative_hits:
            missing_errors = [m.error for m in o2.outcome.missing]
            assert any("negative_cache(" in e for e in missing_errors)


# ---------------------------------------------------------------------------
# Satellite (c): resilient client under concurrent coalesced callers
# ---------------------------------------------------------------------------


class TestResilienceUnderConcurrency:
    def test_breaker_trips_once_under_coalesced_storm(self):
        # many concurrent identical queries against a dead tier: the
        # coalescer collapses them to one backend query, so the breaker
        # sees one failure episode, not one per caller (workers must
        # outnumber the callers or the tail dequeues after the window)
        loop, service, gateway = build_stack(
            GatewayConfig(max_concurrency=8), replication=1
        )
        for shard in range(service.store.num_shards):
            service.store.set_down(shard)
        futures = [
            gateway.submit(GatewayRequest("t", 0, 15)) for _ in range(6)
        ]
        loop.run_until_complete(loop.create_task(_drain(gateway)))
        outcomes = [f.result() for f in futures]
        assert all(o.status == "degraded" for o in outcomes if not o.shed)
        assert all(
            o.reason is not None for o in outcomes if o.status != "exact"
        )
        assert service.metrics.queries == 1
        assert gateway.metrics.coalesced == 5

    def test_hedged_reads_stay_deterministic_under_concurrency(self):
        def run():
            loop, service, gateway = build_stack(
                GatewayConfig(coalescing=False), replication=2
            )
            service.store.set_slow(0, 40.0)  # hedges fire to the replica
            futures = [
                gateway.submit(GatewayRequest("t", i, 15 - i))
                for i in range(6)
                if i != 15 - i
            ]
            loop.run_until_complete(loop.create_task(_drain(gateway)))
            snap = service.client.metrics.snapshot()
            return (
                [f.result().status for f in futures],
                snap["hedges"],
                snap["fetches"],
                loop.steps,
            )

        first, second = run(), run()
        assert first == second
        assert all(status == "exact" for status in first[0])

    def test_breaker_transitions_are_observable_mid_traffic(self):
        loop, service, gateway = build_stack(
            GatewayConfig(
                coalescing=False,
                default_quota=QuotaPolicy(rate_per_ms=100.0, burst=100.0),
            ),
            replication=1,
        )
        store = service.store
        client = service.client
        shard_of_0 = store.replicas(0)[0]
        for shard in range(store.num_shards):
            store.set_down(shard)
        for _ in range(3):
            f = gateway.submit(GatewayRequest("t", 0, 15))
            loop.run_until_complete(f)
        assert client.breaker(shard_of_0).trips >= 1
        assert client.breaker(shard_of_0).state(loop.now) == "open"
        store.recover_all()
        loop.clock.advance(2 * client.breaker_policy.cooldown_ms)
        outcome = run_one(loop, gateway, GatewayRequest("t", 0, 15))
        assert outcome.status == "exact"
