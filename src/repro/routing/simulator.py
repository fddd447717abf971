"""Hop-by-hop packet forwarding simulation for the routing scheme.

The packet header carries the *plan* — the sketch path returned by the
decoder (a waypoint sequence whose consecutive pairs are virtual edges of
``H``) — together with the forbidden set's vertex/edge ids and the
target's label.  Forwarding rules, per leg ``(x → y)`` of the plan:

* **toward a net waypoint** ``y``: every intermediate vertex ``z`` has
  ``y`` in its label (``d(z,y) ≤ λ_i ≤ r_i``), so it forwards on its
  stored port.  This realizes *some* shortest ``x→y`` path in ``G``; the
  decoder's protected-ball certificate implies **every** shortest
  ``x→y`` path avoids every fault (a path through ``f`` would place the
  certified-far endpoint inside ``PB_i(f)``), so these legs are safe and
  stretch-1 — the claim of Theorem 2.7.
* **final leg toward** ``t``: ``t`` is generally not a net-point, so a
  distant ``z`` has no port for it.  When ``t`` is visible (it appears in
  ``z``'s label, which always happens within the lowest-level ball), the
  stored port is used — and the realized path remains within the family
  of shortest ``x→t`` paths, all certified fault-free.  When ``t`` is
  not yet visible, the packet *descends the net hierarchy around t*: it
  heads for the lowest visible "approach point" of ``t`` (``t``'s
  nearest net-point per level, read off ``L(t)`` in the header); each
  descent at least halves the scale and the chain ends at ``t`` itself
  (the level-``c+1`` approach point *is* ``t``).  On the plans produced
  by the stretch proof these descents stay inside the fault-free ball
  ``B(t, μ_{i(t)})``; for adversarial plans a descent hop may be blocked,
  in which case the router **re-decodes locally** (it stores its own
  label and the header carries ``L(t)`` and the fault labels) and adopts
  the fresh plan.  Re-decodes are counted in the result, and a TTL
  guards against pathological loops.

The initial plan and every re-decode run on the caller's long-lived
:class:`~repro.labeling.kernel.KernelDecoder`: a scheme that routes
many packets decodes over the same labels again and again, so the
owning scheme keeps one decoder and its interned labels and memos
serve every packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import RoutingError
from repro.graphs.graph import Graph
from repro.labeling.kernel import KernelDecoder
from repro.labeling.label import VertexLabel
from repro.labeling.query import FaultSet
from repro.routing.tables import RoutingTable


@dataclass(frozen=True)
class RouteResult:
    """Outcome of one simulated routing session.

    ``route`` is the exact vertex sequence traversed; ``hops`` its
    length; ``planned`` the decoder's estimate; ``redecodes`` how many
    times local recovery re-ran the decoder.
    """

    route: tuple[int, ...]
    hops: int
    planned: float
    redecodes: int

    @property
    def source(self) -> int:
        """The originating vertex."""
        return self.route[0]

    @property
    def target(self) -> int:
        """The destination vertex."""
        return self.route[-1]


def approach_points(label_t: VertexLabel) -> list[tuple[int, int, int]]:
    """``t``'s per-level nearest net-points, ``(level, point, d(t, point))``,
    sorted by level ascending.

    At the lowest level ``t`` itself qualifies (``t ∈ N_0``); at higher
    levels the owner is excluded — the label stores it at distance 0
    regardless of net membership, and a non-net owner is exactly what
    distant routers cannot see.
    """
    out = []
    lowest = min(label_t.levels, default=0)
    for i in sorted(label_t.levels):
        level_label = label_t.levels[i]
        candidates = {
            point: dist
            for point, dist in level_label.points.items()
            if i == lowest or point != label_t.vertex
        }
        if not candidates:
            continue
        point, dist = min(candidates.items(), key=lambda item: (item[1], item[0]))
        out.append((i, point, dist))
    return out


def simulate_route(
    graph: Graph,
    table_of: Callable[[int], RoutingTable],
    label_s: VertexLabel,
    label_t: VertexLabel,
    faults: FaultSet | None = None,
    max_redecodes: int = 32,
    *,
    decoder: KernelDecoder,
) -> RouteResult:
    """Forward a packet from ``s`` to ``t`` in ``G \\ F``.

    ``graph`` is used solely as the transmission medium (to move the
    packet through a port); all routing decisions use tables, labels and
    the header.  ``decoder`` is the routing scheme's long-lived decoder;
    it answers the initial plan and every local re-decode.  Raises
    :class:`RoutingError` if the decoder reports the pair disconnected
    or forwarding exhausts its TTL.
    """
    faults = faults or FaultSet()
    forbidden_vertices = faults.forbidden_vertices()
    forbidden_edges = faults.forbidden_edges()
    s, t = label_s.vertex, label_t.vertex

    initial = decoder.decode(label_s, label_t, faults)
    if math.isinf(initial.distance):
        raise RoutingError(f"{s} and {t} are disconnected in G \\ F")
    plan = list(initial.path)
    approach = approach_points(label_t)

    route = [s]
    current = s
    redecodes = 0
    ttl = 4 * graph.num_vertices + 64
    next_waypoint = 1
    descent_target: int | None = None  # sticky approach point on the final leg

    def blocked(u: int, v: int) -> bool:
        return (
            v in forbidden_vertices
            or (min(u, v), max(u, v)) in forbidden_edges
        )

    while current != t:
        if ttl <= 0:
            raise RoutingError(f"TTL exhausted routing {s} -> {t}")
        table = table_of(current)
        # drop reached / degenerate waypoints
        while next_waypoint < len(plan) and plan[next_waypoint] == current:
            next_waypoint += 1
        target = plan[next_waypoint] if next_waypoint < len(plan) else t
        if descent_target is not None and descent_target == current:
            descent_target = None  # descent hop reached; pick the next one

        port = table.port_toward(target)
        if port is not None:
            descent_target = None
        elif target == t:
            # final leg, t not yet visible: descend t's net hierarchy,
            # committing to one approach point at a time
            if descent_target is None or table.port_toward(descent_target) is None:
                descent_target = _descend_toward_target(table, approach, current)
            if descent_target is not None:
                port = table.port_toward(descent_target)
        hop = None
        if port is not None:
            hop = graph.neighbor_by_port(current, port)
            if blocked(current, hop):
                hop = None
        if hop is None and graph.has_edge(current, target):
            # a plan leg may be a *direct graph edge* that is longer than
            # the shortest path toward the waypoint (possible on weighted
            # graphs, where port routing follows the lighter path); take
            # the edge itself when the port path is unusable
            if not blocked(current, target):
                hop = target
        if hop is None:
            # local recovery: re-decode from the current vertex
            redecodes += 1
            if redecodes > max_redecodes:
                raise RoutingError(
                    f"recovery limit exceeded routing {s} -> {t} at {current}"
                )
            fresh = decoder.decode(table.label, label_t, faults)
            if math.isinf(fresh.distance):
                raise RoutingError(
                    f"{current} and {t} disconnected during recovery"
                )
            plan = list(fresh.path)
            next_waypoint = 1
            descent_target = None
            continue
        current = hop
        route.append(current)
        ttl -= 1

    return RouteResult(
        route=tuple(route),
        hops=len(route) - 1,
        planned=initial.distance,
        redecodes=redecodes,
    )


def _descend_toward_target(
    table: RoutingTable,
    approach: list[tuple[int, int, int]],
    current: int,
) -> int | None:
    """Lowest-level visible approach point of ``t`` (or ``None``)."""
    for _level, point, _dist in approach:
        if point == current:
            continue
        if table.port_toward(point) is not None:
            return point
    return None
