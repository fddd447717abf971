"""Event-level network simulation of the paper's recovery scenario.

From the applications section: "Each router keeps track of a set F of
'failed' routers, and it makes distance queries with respect to the
surviving graph G \\ F.  Routers are routinely updated about the
operational status of other routers, either directly (by probing the
neighbouring routers) or through other routers. […] it is possible for
a router to begin routing on a path that is going to be cut by a failed
set, but as soon as the packet reaches a router that is aware of the
failure, it can make a new query and the packet can be rerouted back
again on a new shortest path."

:class:`NetworkSimulator` implements exactly that:

* every router holds a *local* view ``K_u`` of failed vertices/edges;
* failures are discovered by **probing** (neighbors of a failed element
  learn immediately), spread by **flooding** (:meth:`propagate`), and
  **piggyback** on packets (visited routers merge the packet's knowledge
  and vice versa);
* a packet is forwarded along the plan computed from the *current
  router's* view; bumping into an unknown failure adds it to the view
  and triggers an immediate local re-query — no global recomputation
  ever happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import QueryError, RoutingError
from repro.graphs.graph import Graph
from repro.labeling.decoder import FaultSet
from repro.routing.scheme import ForbiddenSetRouting
from repro.routing.simulator import approach_points

if TYPE_CHECKING:
    from repro.scenario.trace import ScenarioEvent


@dataclass
class Knowledge:
    """One router's view of the failed set."""

    vertices: set[int] = field(default_factory=set)
    edges: set[tuple[int, int]] = field(default_factory=set)

    def merge(self, other: "Knowledge") -> bool:
        """Union-in another view; returns True if anything was new."""
        before = len(self.vertices) + len(self.edges)
        self.vertices |= other.vertices
        self.edges |= other.edges
        return len(self.vertices) + len(self.edges) != before

    def copy(self) -> "Knowledge":
        """An independent copy of this view."""
        return Knowledge(vertices=set(self.vertices), edges=set(self.edges))


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of one packet: the route, re-queries, and discoveries."""

    route: tuple[int, ...]
    hops: int
    requeries: int
    discoveries: int
    delivered: bool


class NetworkSimulator:
    """Routers + links with localized failure knowledge and rerouting."""

    def __init__(
        self, graph: Graph, epsilon: float = 1.0, probe_on_failure: bool = True
    ) -> None:
        """``probe_on_failure=False`` models silent failures: nobody learns
        of a failure until a packet bumps into it (the paper's "begin
        routing on a path that is going to be cut" case)."""
        self._graph = graph
        self._routing = ForbiddenSetRouting(graph, epsilon)
        self._probe_on_failure = probe_on_failure
        self._truth = Knowledge()
        self._views: dict[int, Knowledge] = {
            v: Knowledge() for v in graph.vertices()
        }

    @property
    def routing(self) -> ForbiddenSetRouting:
        """The one routing scheme: labels, tables and the planning decoder."""
        return self._routing

    # -- failure / recovery events ------------------------------------------

    def fail_vertex(self, v: int) -> None:
        """Fail a router; its live neighbors learn by probing (if enabled)."""
        if not 0 <= v < self._graph.num_vertices:
            raise QueryError(f"vertex {v} is not in the graph")
        self._truth.vertices.add(v)
        if self._probe_on_failure:
            for u in self._graph.neighbors(v):
                if u not in self._truth.vertices:
                    self._views[u].vertices.add(v)

    def fail_edge(self, a: int, b: int) -> None:
        """Fail a link; its live endpoints learn by probing (if enabled)."""
        if not self._graph.has_edge(a, b):
            raise QueryError(f"edge ({a}, {b}) is not in the graph")
        key = (min(a, b), max(a, b))
        self._truth.edges.add(key)
        if self._probe_on_failure:
            for u in (a, b):
                if u not in self._truth.vertices:
                    self._views[u].edges.add(key)

    def recover_vertex(self, v: int) -> None:
        """Recover a router everywhere (truth and all views)."""
        self._truth.vertices.discard(v)
        for view in self._views.values():
            view.vertices.discard(v)

    def recover_edge(self, a: int, b: int) -> None:
        """Recover a link everywhere."""
        key = (min(a, b), max(a, b))
        self._truth.edges.discard(key)
        for view in self._views.values():
            view.edges.discard(key)

    # -- knowledge dissemination ------------------------------------------------

    def propagate(
        self,
        rounds: int = 1,
        drop_probability: float = 0.0,
        rng=None,
    ) -> int:
        """Flood knowledge over surviving links for ``rounds`` ticks.

        ``drop_probability`` models lossy links: each per-link message
        (one neighbor's view, each direction, each round) is
        independently dropped with that probability, using the seeded
        ``rng`` (see :func:`repro.util.rng.make_rng`).  The default is
        the original lossless flood and consumes no randomness.

        Returns the number of (router, fact)-merges that learned something.
        """
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {drop_probability}"
            )
        if drop_probability > 0.0:
            from repro.util.rng import make_rng

            rng = make_rng(rng)
        learned = 0
        for _ in range(rounds):
            snapshot = {v: view.copy() for v, view in self._views.items()}
            for u in self._graph.vertices():
                if u in self._truth.vertices:
                    continue
                for v in self._graph.neighbors(u):
                    if v in self._truth.vertices:
                        continue
                    if (min(u, v), max(u, v)) in self._truth.edges:
                        continue
                    if drop_probability > 0.0 and rng.random() < drop_probability:
                        continue
                    if self._views[u].merge(snapshot[v]):
                        learned += 1
        return learned

    def view(self, router: int) -> Knowledge:
        """The router's current knowledge (mutating it models misinformation)."""
        return self._views[router]

    def ground_truth(self) -> Knowledge:
        """A copy of the true failed set (for harnesses and invariants)."""
        return self._truth.copy()

    def apply_event(
        self, event: ScenarioEvent, drop_probability: float = 0.0, rng=None
    ) -> int:
        """Apply one network row of a scenario trace.

        Understands the rows that mutate the network — ``fail_vertex``,
        ``fail_edge``, ``recover_vertex``, ``recover_edge``,
        ``partition``, ``heal_partition`` and ``propagate`` (which
        honors ``drop_probability``/``rng``).  ``send`` rows are *not*
        handled here; drivers route them through :meth:`send_packet` so
        they can inspect the :class:`DeliveryReport`.  Returns the
        number of merges for ``propagate`` rows, else 0.
        """
        kind = event.kind
        if kind == "fail_vertex":
            self.fail_vertex(event.vertex)
        elif kind == "fail_edge":
            self.fail_edge(*event.edge)
        elif kind == "recover_vertex":
            self.recover_vertex(event.vertex)
        elif kind == "recover_edge":
            self.recover_edge(*event.edge)
        elif kind == "partition":
            for a, b in event.edges:
                self.fail_edge(a, b)
        elif kind == "heal_partition":
            for a, b in event.edges:
                self.recover_edge(a, b)
        elif kind == "propagate":
            return self.propagate(
                event.rounds, drop_probability=drop_probability, rng=rng
            )
        else:
            raise QueryError(f"cannot apply event kind {kind!r}")
        return 0

    def awareness(self) -> float:
        """Fraction of (live router, true fact) pairs currently known."""
        live = [v for v in self._graph.vertices() if v not in self._truth.vertices]
        facts = len(self._truth.vertices) + len(self._truth.edges)
        if not live or facts == 0:
            return 1.0
        known = sum(
            len(self._views[u].vertices & self._truth.vertices)
            + len(self._views[u].edges & self._truth.edges)
            for u in live
        )
        return known / (len(live) * facts)

    # -- packets ------------------------------------------------------------------

    def send_packet(self, s: int, t: int, ttl: int | None = None) -> DeliveryReport:
        """Forward a packet hop by hop using per-router knowledge.

        The packet piggybacks knowledge in both directions.  Raises
        :class:`RoutingError` only on TTL exhaustion; an undeliverable
        packet (destination truly unreachable, as eventually discovered)
        yields ``delivered=False``.
        """
        if s in self._truth.vertices or t in self._truth.vertices:
            raise QueryError("packet endpoint is a failed router")
        ttl = ttl if ttl is not None else 6 * self._graph.num_vertices + 64
        packet_knowledge = self._views[s].copy()
        approach = approach_points(self._routing.labeling.label(t))
        route = [s]
        current = s
        requeries = 0
        discoveries = 0
        plan: list[int] = []
        next_waypoint = 0
        descent_target: int | None = None

        while current != t:
            if ttl <= 0:
                raise RoutingError(f"TTL exhausted delivering {s} -> {t}")
            view = self._views[current]
            # exchange knowledge with the packet
            view.merge(packet_knowledge)
            packet_knowledge.merge(view)
            if not plan:
                result = self._plan(current, t, view)
                requeries += 1
                if math.isinf(result.distance):
                    return DeliveryReport(
                        route=tuple(route),
                        hops=len(route) - 1,
                        requeries=requeries,
                        discoveries=discoveries,
                        delivered=False,
                    )
                plan = list(result.path)
                next_waypoint = 1
                descent_target = None
            while next_waypoint < len(plan) and plan[next_waypoint] == current:
                next_waypoint += 1
            target = plan[next_waypoint] if next_waypoint < len(plan) else t
            if descent_target == current:
                descent_target = None
            hop, descent_target = self._next_hop(
                current, target, view, approach, descent_target
            )
            if hop is None:
                plan = []  # view changed or plan stale: re-query here
                descent_target = None
                continue
            # does the hop actually work? (probing the real network)
            key = (min(current, hop), max(current, hop))
            if hop in self._truth.vertices:
                if hop not in view.vertices:
                    view.vertices.add(hop)
                    packet_knowledge.vertices.add(hop)
                    discoveries += 1
                plan = []
                descent_target = None
                continue
            if key in self._truth.edges:
                if key not in view.edges:
                    view.edges.add(key)
                    packet_knowledge.edges.add(key)
                    discoveries += 1
                plan = []
                descent_target = None
                continue
            current = hop
            route.append(current)
            ttl -= 1

        # deliver remaining knowledge to the destination
        self._views[t].merge(packet_knowledge)
        return DeliveryReport(
            route=tuple(route),
            hops=len(route) - 1,
            requeries=requeries,
            discoveries=discoveries,
            delivered=True,
        )

    # -- helpers ------------------------------------------------------------------

    def _plan(self, s: int, t: int, view: Knowledge):
        label = self._routing.labeling.label
        faults = FaultSet(
            vertex_labels=[
                label(f) for f in sorted(view.vertices) if f not in (s, t)
            ],
            edge_labels=[(label(a), label(b)) for a, b in sorted(view.edges)],
        )
        return self._routing.decoder.decode(label(s), label(t), faults)

    def _next_hop(
        self,
        current: int,
        target: int,
        view: Knowledge,
        approach: list[tuple[int, int, int]],
        descent_target: int | None,
    ) -> tuple[int | None, int | None]:
        """Next hop toward ``target`` from the routing table (labels only).

        Mirrors :func:`repro.routing.simulator.simulate_route`: port
        toward the waypoint when visible; otherwise descend the
        destination's approach points.  Hops the router *knows* to be
        failed are rejected (returns ``(None, None)`` to trigger a
        re-query).
        """
        table = self._routing.table(current)
        port = table.port_toward(target)
        if port is not None:
            descent_target = None
        else:
            if descent_target is None or table.port_toward(descent_target) is None:
                descent_target = None
                for _level, point, _dist in approach:
                    if point != current and table.port_toward(point) is not None:
                        descent_target = point
                        break
            if descent_target is not None:
                port = table.port_toward(descent_target)
        if port is None:
            return None, None
        hop = self._graph.neighbor_by_port(current, port)
        if hop in view.vertices:
            return None, None
        if (min(current, hop), max(current, hop)) in view.edges:
            return None, None
        return hop, descent_target
