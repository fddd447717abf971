"""Mutation battery for the route rules: bent deliveries must be caught.

Every mutation patches :meth:`NetworkSimulator.send_packet` so the
packets of one small scripted network trace come back bent in one way,
then replays the trace through :class:`~repro.chaos.ChaosRunner`.  The run
must report the mutation as a violation, with the phrase of the rule
that :meth:`Judge.judge_route <repro.service.judge.Judge.judge_route>`
breaks, so every route rule shows its detection power through the
network chaos battery and not only in isolation.
"""

from dataclasses import replace

import pytest

from repro.chaos import run_plan
from repro.routing.network_sim import NetworkSimulator
from repro.scenario import ScenarioEvent, ScenarioTrace

# grid:4x4 row 0 is 0-1-2-3; its straight route is the one to bend
STRAIGHT = (0, 1, 2, 3)


def through_a_non_edge(delivery):
    return replace(delivery, route=(0, 3), hops=1)


def straight_route(delivery):
    return replace(delivery, route=STRAIGHT, hops=3)


def wrong_endpoints(delivery):
    return replace(delivery, route=delivery.route[:-1],
                   hops=delivery.hops - 1)


def miscounted_hops(delivery):
    return replace(delivery, hops=delivery.hops + 1)


def fewer_hops(delivery):
    return replace(delivery, hops=delivery.hops - 1)


def detour(delivery):
    # 0 → 1 → 0 → 1 → 0 → 1 → 2: real edges, 6 hops for d = 2
    return replace(delivery, route=(0, 1, 0, 1, 0, 1, 2), hops=6)


def invented_delivery(delivery):
    return replace(delivery, delivered=True)


def dropped_delivery(delivery):
    return replace(delivery, delivered=False)


def _trace(graph_spec, *faults, s=0, t=3, aware=False):
    rows = [
        ScenarioEvent(None, "fail_edge", edge=fault)
        if isinstance(fault, tuple)
        else ScenarioEvent(None, "fail_vertex", vertex=fault)
        for fault in faults
    ]
    if aware:
        rows.append(ScenarioEvent(None, "propagate", rounds=16))
    rows.append(ScenarioEvent(None, "send", s=s, t=t))
    return ScenarioTrace(
        name="bent-route", graph_spec=graph_spec, duration_ms=1.0,
        base_rate_per_ms=0.0, events=tuple(rows),
    )


#: (mutation, trace, a phrase its violation must contain)
MUTATIONS = [
    pytest.param(through_a_non_edge, _trace("grid:4x4"),
                 "hop (0, 3) is not an edge", id="hop_not_an_edge"),
    pytest.param(straight_route, _trace("grid:4x4", (1, 2)),
                 "hop (1, 2) crosses a failed link", id="failed_link"),
    pytest.param(straight_route, _trace("grid:4x4", 2),
                 "route visits failed routers [2]", id="failed_router"),
    pytest.param(wrong_endpoints, _trace("grid:4x4"),
                 "route endpoints are", id="wrong_endpoints"),
    pytest.param(miscounted_hops, _trace("grid:4x4"),
                 "hops=4 but route has 3 edges", id="miscounted_hops"),
    pytest.param(fewer_hops, _trace("grid:4x4"),
                 "2 hops beats the true distance 3", id="fewer_hops"),
    pytest.param(detour, _trace("cycle:16", t=2, aware=True),
                 "6 hops exceeds 1.750×2 at full awareness", id="detour"),
    pytest.param(invented_delivery, _trace("path:10", 5, t=9),
                 "delivered=True but true distance is inf",
                 id="delivered_across_a_cut"),
    pytest.param(dropped_delivery, _trace("grid:4x4"),
                 "delivered=False but true distance is 3",
                 id="dropped_for_a_connected_pair"),
]


def _bend(monkeypatch, mutation):
    honest = NetworkSimulator.send_packet

    def bent(self, s, t, ttl=None):
        return mutation(honest(self, s, t, ttl))

    monkeypatch.setattr(NetworkSimulator, "send_packet", bent)


@pytest.mark.parametrize("mutation,trace,phrase", MUTATIONS)
def test_honest_plan_passes(mutation, trace, phrase):
    report = run_plan(trace)
    assert report.ok, report.violations
    assert report.packets_sent == 1


@pytest.mark.parametrize("mutation,trace,phrase", MUTATIONS)
def test_bent_delivery_is_a_violation(monkeypatch, mutation, trace, phrase):
    _bend(monkeypatch, mutation)
    report = run_plan(trace)
    assert any(phrase in v for v in report.violations), report.violations


def test_stretch_is_only_bounded_at_full_awareness(monkeypatch):
    """Before every live router knows every failure, Theorem 2.7's upper
    bound does not apply: the same detour passes the judge."""
    _bend(monkeypatch, detour)
    report = run_plan(_trace("cycle:16", 8, t=2))
    assert report.ok, report.violations
    assert report.stretch_samples == 0
