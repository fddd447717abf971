"""Tests for the seeded open-loop traffic generator.

The generator is the front half of the battery's bit-identity
guarantee: identical ``(graph, trace, seed)`` triples must produce
identical request streams, and every structural promise the model
makes (Zipf popularity, rate windows, fault-window locality, valid
endpoints) must hold on the stream it emits.  The stream's shape comes
straight off a scenario trace, so the rules on that shape are trace
rules (``TRAFFIC_RULES`` in ``tests/test_scenario.py``).
"""

import pytest

from repro.exceptions import QueryError, ScenarioError
from repro.gateway import TrafficGenerator, ZipfSampler
from repro.graphs.generators import grid_graph
from repro.graphs.traversal import bfs_distances
from repro.scenario import (
    ScenarioEvent,
    ScenarioTrace,
    TraceTenant,
    compile_trace,
    traffic_trace,
)
from repro.scenario.trace import TraceBurst
from repro.util.rng import make_rng
from tests.test_scenario import TRAFFIC_RULES


def _trace(*events, duration_ms=300.0, rate=1.0, tenants=(), burst=None):
    return ScenarioTrace(
        name="traffic-test", graph_spec="grid:8x8", duration_ms=duration_ms,
        base_rate_per_ms=rate, tenants=tenants, events=events, burst=burst,
    )


def _stream(trace, seed=0):
    compiled = compile_trace(trace)
    return TrafficGenerator(compiled.graph, trace, seed).generate()


def _rule(*cases):
    for case in cases:
        make, message = TRAFFIC_RULES[case]
        with pytest.raises(ScenarioError, match=message):
            make()


class TestZipfSampler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(QueryError):
            ZipfSampler(0)
        with pytest.raises(QueryError):
            ZipfSampler(10, exponent=-0.5)

    def test_hot_ranks_dominate(self):
        sampler = ZipfSampler(50, exponent=1.2, rng=make_rng(1))
        rng = make_rng(2)
        counts = [0] * 50
        for _ in range(4000):
            counts[sampler.sample(rng)] += 1
        counts.sort(reverse=True)
        # the hottest vertex must clearly beat the tail, and the top 5
        # together must carry most of the mass
        assert counts[0] > counts[25]
        assert sum(counts[:5]) > 4000 * 0.5

    def test_permutation_is_seeded(self):
        def draws(sampler):
            rng = make_rng(3)
            return [sampler.sample(rng) for _ in range(200)]

        a = ZipfSampler(30, rng=make_rng(7))
        b = ZipfSampler(30, rng=make_rng(7))
        c = ZipfSampler(30, rng=make_rng(8))
        assert draws(a) == draws(b)
        assert draws(a) != draws(c)


class TestTrafficValidation:
    """What the generator once checked itself is now a trace rule."""

    def test_needs_a_tenant(self):
        # no tenant rows means the default tenant, never no tenant
        assert _trace(tenants=()).tenants == (TraceTenant("default"),)

    def test_rate_must_be_positive(self):
        _rule("rate_must_be_positive")
        # rate 0 is a trace without open-loop traffic: no arrivals
        assert _stream(_trace(rate=0.0)) == []

    def test_tenant_weights_must_be_positive(self):
        _rule("tenant_weights_must_be_positive")

    def test_duration_must_be_positive(self):
        _rule("duration_must_be_positive")


class TestStreamInvariants:
    def test_same_seed_is_bit_identical(self):
        trace = traffic_trace(duration_ms=300.0)
        first = _stream(trace, seed=11)
        second = _stream(trace, seed=11)
        assert first == second
        assert len(first) > 0

    def test_different_seeds_differ(self):
        trace = traffic_trace(duration_ms=300.0)
        assert _stream(trace, seed=11) != _stream(trace, seed=12)

    def test_arrivals_are_time_ordered_within_window(self):
        stream = _stream(traffic_trace(duration_ms=500.0), seed=5)
        times = [timed.at_ms for timed in stream]
        assert times == sorted(times)
        assert all(0.0 <= at < 500.0 for at in times)

    def test_endpoints_are_valid_and_distinct(self):
        graph = grid_graph(10, 10)
        for timed in _stream(traffic_trace(duration_ms=400.0), seed=5):
            request = timed.request
            assert 0 <= request.s < graph.num_vertices
            assert 0 <= request.t < graph.num_vertices
            assert request.s != request.t
            assert request.s not in request.vertex_faults
            assert request.t not in request.vertex_faults

    def test_tenant_mix_tracks_weights(self):
        trace = _trace(duration_ms=2000.0, rate=2.0, tenants=(
            TraceTenant("heavy", weight=4.0),
            TraceTenant("light", weight=1.0),
        ))
        stream = _stream(trace, seed=9)
        heavy = sum(1 for t in stream if t.request.tenant == "heavy")
        light = len(stream) - heavy
        assert heavy > 2.0 * light  # 4:1 expected; allow sampling noise

    def test_tenant_deadline_is_attached(self):
        trace = _trace(duration_ms=200.0,
                       tenants=(TraceTenant("fast", deadline_ms=100.0),))
        stream = _stream(trace, seed=3)
        assert stream
        assert all(t.request.deadline_ms == 100.0 for t in stream)

    def test_user_ids_respect_population(self):
        trace = _trace(tenants=(TraceTenant("small", num_users=10),))
        stream = _stream(trace, seed=3)
        assert stream
        assert all(0 <= t.request.user_id < 10 for t in stream)


class TestPhases:
    def test_phase_multiplier_modulates_rate(self):
        quiet_then_rush = _trace(
            ScenarioEvent(at_ms=0.0, kind="flash_crowd", multiplier=0.2,
                          duration_ms=500.0),
            ScenarioEvent(at_ms=500.0, kind="flash_crowd", multiplier=2.0,
                          duration_ms=500.0),
            duration_ms=1000.0,
        )
        stream = _stream(quiet_then_rush, seed=21)
        quiet = sum(1 for t in stream if t.at_ms < 500.0)
        rush = len(stream) - quiet
        # 10x rate ratio must show clearly even with Poisson noise
        assert rush > 3 * quiet


class TestFaultBursts:
    def test_burst_faults_lie_inside_the_ball(self):
        center = 27
        trace = _trace(
            ScenarioEvent(at_ms=0.0, kind="ball_outage", center=center,
                          radius=2, duration_ms=500.0, fault_rate=1.0),
            duration_ms=500.0,
            tenants=(TraceTenant("t", fault_rate=0.0, max_faults=3),),
        )
        ball = set(bfs_distances(grid_graph(8, 8), center, radius=2))
        with_faults = [
            t for t in _stream(trace, seed=17) if t.request.vertex_faults
        ]
        assert with_faults  # rate 1.0 inside the window: faults do occur
        for timed in with_faults:
            assert set(timed.request.vertex_faults) <= ball

    def test_no_faults_outside_burst_when_rate_zero(self):
        trace = _trace(
            ScenarioEvent(at_ms=100.0, kind="ball_outage", center=0,
                          radius=2, duration_ms=50.0, fault_rate=1.0),
            duration_ms=400.0,
            tenants=(TraceTenant("t", fault_rate=0.0),),
        )
        for timed in _stream(trace, seed=17):
            if not 100.0 <= timed.at_ms < 150.0:
                assert timed.request.vertex_faults == ()

    def test_burst_center_defaults_to_seeded_pick(self):
        # the burst header has no center: the generator draws one, so
        # every fault of the window lies in one radius-2 ball
        trace = _trace(
            duration_ms=200.0, tenants=(TraceTenant("t", fault_rate=0.0),),
            burst=TraceBurst(at_ms=0.0, duration_ms=200.0, radius=2,
                             fault_rate=1.0),
        )
        a = _stream(trace, seed=4)
        assert a == _stream(trace, seed=4)
        faults = set().union(*(t.request.vertex_faults for t in a))
        assert faults
        graph = grid_graph(8, 8)
        assert any(
            faults <= set(bfs_distances(graph, center, radius=2))
            for center in range(graph.num_vertices)
        )


class TestOverloadMix:
    def test_mix_shape(self):
        trace = traffic_trace(duration_ms=1000.0, multiplier=4.0)
        assert trace.base_rate_per_ms == 4.0
        names = [t.name for t in trace.tenants]
        assert names == ["aggregator", "product", "interactive"]
        assert trace.burst is not None
        crowds = [
            (e.at_ms, e.multiplier, e.duration_ms) for e in trace.events
            if e.kind == "flash_crowd"
        ]
        assert crowds == [(0.0, 0.6, 400.0), (400.0, 1.6, 300.0)]

    def test_mix_streams_are_reproducible(self):
        trace = traffic_trace(duration_ms=250.0)
        assert _stream(trace, seed=0) == _stream(trace, seed=0)


class TestConstructionValidation:
    """Bad traffic shapes fail loudly as trace rules, naming the field."""

    def test_tenant_name_required(self):
        _rule("tenant_name_required")

    def test_tenant_fault_rate_bounds(self):
        _rule("tenant_fault_rate_bounds-high", "tenant_fault_rate_bounds-low")

    def test_tenant_max_faults_floor(self):
        _rule("tenant_max_faults_floor")

    def test_tenant_needs_users(self):
        _rule("tenant_needs_users")

    def test_tenant_deadline_must_be_positive(self):
        _rule("tenant_deadline_must_be_positive")

    def test_phase_duration_must_be_positive(self):
        _rule("phase_duration_must_be_positive")

    def test_phase_multiplier_must_be_positive(self):
        _rule("phase_multiplier_must_be_positive")

    def test_burst_start_and_duration(self):
        _rule("burst_start-header", "burst_start-row",
              "burst_duration-header", "burst_duration-row")

    def test_burst_rate_bounds(self):
        _rule("burst_rate_bounds-header", "burst_rate_bounds-row")

    def test_burst_radius_floor(self):
        _rule("burst_radius_floor-header", "burst_radius_floor-row")

    def test_burst_vertices_must_be_distinct(self):
        _rule("burst_vertices_must_be_distinct")

    def test_burst_max_faults_floor(self):
        _rule("burst_max_faults_floor-ball", "burst_max_faults_floor-outage")

    def test_config_zipf_exponent_floor(self):
        _rule("config_zipf_exponent_floor")

    def test_explicit_burst_vertices_pin_the_fault_pool(self):
        trace = _trace(
            ScenarioEvent(at_ms=0.0, kind="outage", vertices=(3, 4, 5),
                          duration_ms=100.0, fault_rate=1.0, max_faults=2),
            duration_ms=100.0,
            tenants=(TraceTenant("a", fault_rate=1.0, max_faults=2),),
        )
        faulted = [
            r.request for r in _stream(trace, seed=1)
            if r.request.vertex_faults
        ]
        assert faulted
        for request in faulted:
            assert set(request.vertex_faults) <= {3, 4, 5}
            assert len(request.vertex_faults) <= 2
