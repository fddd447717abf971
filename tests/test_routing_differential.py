"""Routing differential: routes planned by the kernel equal the reference's.

A routing scheme plans a packet's route — and re-plans it on a local
re-decode — with its one long-lived
:class:`~repro.labeling.kernel.KernelDecoder`.  Every family's seeded
``(s, t, F)`` sessions are routed through **one** router, so later
sessions run on the decoder's warm interned labels and memos, twice
over the same tables: once as shipped, and once with the router's
decoder replaced by the reference decoder of
``tests/reference_decoder.py``.  The two runs must produce equal route
results — vertex sequence, hop count (and cost, for weighted routing),
planned distance and re-decode count — or the same
:class:`~repro.exceptions.RoutingError`.  The substitute counts its
calls, so a route that stops reaching the router's decoder fails the
test instead of comparing nothing.

Coverage: these sessions never re-decode (``redecodes == 0`` in every
one; wider seeded sweeps over several graph families and ``|F|`` from
2 to 8 have not produced one either), so the test covers the *initial*
plan.  A re-decode goes through the same decoder.
"""

import random

import pytest

from repro.exceptions import RoutingError
from repro.graphs import generators as gen
from repro.graphs.weighted import WeightedGraph
from repro.routing import ForbiddenSetRouting, WeightedForbiddenSetRouting
from tests import reference_decoder


def weighted_road(width, height, seed):
    """A road-like graph with seeded integer weights in ``[1, 4]``."""
    graph = gen.road_like_graph(width, height, seed=seed)
    rng = random.Random(seed)
    weighted = WeightedGraph(graph.num_vertices)
    for u, v in graph.edges():
        weighted.add_edge(u, v, rng.randint(1, 4))
    return weighted


#: ``(id, routing scheme, graph builder)``
FAMILIES = [
    ("grid:6x6", ForbiddenSetRouting, lambda: gen.grid_graph(6, 6)),
    (
        "road:6x6",
        ForbiddenSetRouting,
        lambda: gen.road_like_graph(6, 6, seed=1),
    ),
    ("cycle:24", ForbiddenSetRouting, lambda: gen.cycle_graph(24)),
    ("tree:30", ForbiddenSetRouting, lambda: gen.random_tree(30, seed=2)),
    (
        "weighted-road:5x5",
        WeightedForbiddenSetRouting,
        lambda: weighted_road(5, 5, seed=4),
    ),
]

#: sessions per family: even ones fail vertices, odd ones fail edges
SESSIONS = 16


class ReferenceRouteDecoder:
    """The reference decoder behind the kernel's ``decode`` signature."""

    def __init__(self):
        self.calls = 0

    def decode(self, label_s, label_t, faults=None, tracer=None):
        self.calls += 1
        return reference_decoder.decode_distance(
            label_s, label_t, faults, tracer=tracer
        )


def seeded_sessions(graph, seed):
    """``(s, t, vertex faults, edge faults)`` sessions, reproducible per seed."""
    rng = random.Random(seed)
    n = graph.num_vertices
    edges = sorted((edge[0], edge[1]) for edge in graph.edges())
    out = []
    for i in range(SESSIONS):
        s, t = rng.sample(range(n), 2)
        if i % 2 == 0:
            pool = [v for v in range(n) if v not in (s, t)]
            out.append((s, t, rng.sample(pool, rng.randint(2, 4)), []))
        else:
            out.append((s, t, [], rng.sample(edges, rng.randint(1, 3))))
    return out


def route_all(routing, sessions):
    """Each session's route result, or its routing error text."""
    out = []
    for s, t, vertex_faults, edge_faults in sessions:
        try:
            out.append(
                routing.route(
                    s, t, vertex_faults=vertex_faults, edge_faults=edge_faults
                )
            )
        except RoutingError as exc:
            out.append(f"RoutingError: {exc}")
    return out


@pytest.mark.parametrize(
    "scheme, build", [f[1:] for f in FAMILIES], ids=[f[0] for f in FAMILIES]
)
def test_routes_match_the_reference_decoder(scheme, build, monkeypatch):
    graph = build()
    routing = scheme(graph, epsilon=1.0)
    sessions = seeded_sessions(graph, seed=graph.num_vertices)
    shipped = route_all(routing, sessions)
    substitute = ReferenceRouteDecoder()
    monkeypatch.setattr(routing, "_decoder", substitute)
    reference = route_all(routing, sessions)
    assert shipped == reference
    assert any(not isinstance(result, str) for result in shipped)
    # every session plans at least once, through the substituted decoder
    assert substitute.calls >= len(sessions)
