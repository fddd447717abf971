"""Routing differential: routes planned by the kernel equal the reference's.

The routing simulator plans a packet's route — and re-plans it on a
local re-decode — with :func:`repro.labeling.decoder.decode_distance`,
which runs the array kernel.  Every seeded ``(s, t, F)`` session here is
routed twice over the same tables: once as shipped, and once with the
reference decoder of ``tests/reference_decoder.py`` monkeypatched into
:mod:`repro.routing.simulator`.  The two runs must produce equal
:class:`~repro.routing.simulator.RouteResult` objects — vertex sequence,
hop count, planned distance and re-decode count — or the same
:class:`~repro.exceptions.RoutingError`.

Coverage: these sessions never re-decode (``redecodes == 0`` in every
one; wider seeded sweeps over several graph families and ``|F|`` from
2 to 8 have not produced one either), so the test covers the *initial*
plan.  A re-decode goes through the same ``decode_distance`` call site.
"""

import random

import pytest

import repro.routing.simulator as simulator
from repro.exceptions import RoutingError
from repro.graphs import generators as gen
from repro.routing import ForbiddenSetRouting
from repro.routing.simulator import RouteResult
from tests import reference_decoder

FAMILIES = [
    ("grid:6x6", lambda: gen.grid_graph(6, 6)),
    ("road:6x6", lambda: gen.road_like_graph(6, 6, seed=1)),
    ("cycle:24", lambda: gen.cycle_graph(24)),
    ("tree:30", lambda: gen.random_tree(30, seed=2)),
]

#: sessions per family: even ones fail vertices, odd ones fail edges
SESSIONS = 16


def seeded_sessions(graph, seed):
    """``(s, t, vertex faults, edge faults)`` sessions, reproducible per seed."""
    rng = random.Random(seed)
    n = graph.num_vertices
    edges = sorted(graph.edges())
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
    """Each session's :class:`RouteResult`, or its routing error text."""
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
    "build", [f[1] for f in FAMILIES], ids=[f[0] for f in FAMILIES]
)
def test_routes_match_the_reference_decoder(build, monkeypatch):
    graph = build()
    routing = ForbiddenSetRouting(graph, epsilon=1.0)
    sessions = seeded_sessions(graph, seed=graph.num_vertices)
    shipped = route_all(routing, sessions)
    monkeypatch.setattr(
        simulator, "decode_distance", reference_decoder.decode_distance
    )
    reference = route_all(routing, sessions)
    assert shipped == reference
    assert any(isinstance(result, RouteResult) for result in shipped)
