"""Scenario-level workloads: sequences of events, not single queries.

The paper's application section motivates road networks with closures
(accidents, maintenance) that appear and clear over time.
:func:`road_closure_scenario` produces such an event timeline against a
road-like graph; the ``dynamic_oracle`` example and experiment E10
replay it.  Its hostile counterpart is a chaos fault plan:
:func:`repro.chaos.plan.random_churn_plan` (vertex *and* edge churn,
lossy flooding, partition windows), replayed by
:class:`repro.chaos.runner.ChaosRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.util.rng import RngLike, make_rng


@dataclass(frozen=True)
class ClosureEvent:
    """One timeline event.

    ``kind`` is ``"close_edge"``, ``"reopen_edge"`` or ``"query"``;
    closures carry ``edge``, queries carry ``(s, t)``.
    """

    kind: str
    edge: tuple[int, int] | None = None
    s: int | None = None
    t: int | None = None


def road_closure_scenario(
    graph: Graph,
    num_events: int = 60,
    closure_probability: float = 0.25,
    max_open_closures: int = 6,
    seed: RngLike = None,
) -> list[ClosureEvent]:
    """A random interleaving of edge closures, re-openings and queries.

    Closed edges never exceed ``max_open_closures``; queries avoid
    endpoints that the closure set isolates trivially (still possible to
    be disconnected — that is part of the workload).
    """
    rng = make_rng(seed)
    n = graph.num_vertices
    edges = list(graph.edges())
    closed: list[tuple[int, int]] = []
    events: list[ClosureEvent] = []
    for _ in range(num_events):
        roll = rng.random()
        if roll < closure_probability and len(closed) < max_open_closures:
            candidates = [e for e in edges if e not in closed]
            if candidates:
                edge = rng.choice(candidates)
                closed.append(edge)
                events.append(ClosureEvent(kind="close_edge", edge=edge))
                continue
        if roll > 1 - closure_probability / 2 and closed:
            edge = closed.pop(rng.randrange(len(closed)))
            events.append(ClosureEvent(kind="reopen_edge", edge=edge))
            continue
        s, t = rng.sample(range(n), 2)
        events.append(ClosureEvent(kind="query", s=s, t=t))
    return events
