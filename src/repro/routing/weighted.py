"""Forbidden-set routing on weighted graphs (extension of Theorem 2.7).

Everything reuses the unweighted machinery: the weighted graph exposes
the same port interface, the routing tables store the first hop on a
*weighted* shortest path toward every labeled point, and the forwarding
simulator is shared verbatim — its safety argument (every weighted
shortest path between certified sketch endpoints avoids the forbidden
set; greedy port steps realize one such path) is weight-agnostic.

``RouteResult.hops`` counts *edges*; use
:meth:`WeightedForbiddenSetRouting.route_cost` or the ``cost`` returned
by :meth:`route` for the traveled weight, which is what the stretch
bound applies to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.graphs.weighted import WeightedGraph, weighted_first_hops
from repro.labeling.construction import LabelingOptions
from repro.labeling.kernel import KernelDecoder
from repro.labeling.label import VertexLabel
from repro.labeling.weighted import WeightedForbiddenSetLabeling
from repro.routing.simulator import RouteResult, simulate_route
from repro.routing.tables import RoutingTable


@dataclass(frozen=True)
class WeightedRouteResult:
    """A delivered weighted route: vertex sequence, edge count, total weight."""

    route: tuple[int, ...]
    hops: int
    cost: int
    planned: float
    redecodes: int


def build_weighted_routing_table(
    graph: WeightedGraph, label: VertexLabel
) -> RoutingTable:
    """Routing table of ``label.vertex``: ports toward every labeled point
    along weighted shortest paths (one Dijkstra)."""
    vertex = label.vertex
    targets: set[int] = set()
    for level_label in label.levels.values():
        targets.update(level_label.points)
    targets.discard(vertex)
    _, first_hop = weighted_first_hops(graph, vertex)
    ports = {}
    for target in targets:
        hop = first_hop.get(target)
        if hop is not None:
            ports[target] = graph.port_to(vertex, hop)
    return RoutingTable(vertex=vertex, label=label, ports=ports)


class WeightedForbiddenSetRouting:
    """Forbidden-set routing over positive-integer edge weights.

    Example
    -------
    >>> from repro.graphs.weighted import WeightedGraph
    >>> g = WeightedGraph(4)
    >>> g.add_edge(0, 1, 2); g.add_edge(1, 2, 2); g.add_edge(2, 3, 2)
    >>> g.add_edge(0, 3, 10)
    >>> router = WeightedForbiddenSetRouting(g, epsilon=1.0)
    >>> router.route(0, 3).cost   # light path 0-1-2-3
    6
    >>> router.route(0, 3, vertex_faults=[1]).cost  # forced onto (0, 3)
    10
    """

    def __init__(
        self,
        graph: WeightedGraph,
        epsilon: float,
        options: LabelingOptions | None = None,
    ) -> None:
        self._graph = graph
        self._labeling = WeightedForbiddenSetLabeling(
            graph, epsilon, options=options
        )
        self._tables: dict[int, RoutingTable] = {}
        self._decoder = KernelDecoder(max_labels=max(4096, graph.num_vertices))

    @property
    def labeling(self) -> WeightedForbiddenSetLabeling:
        """The underlying weighted distance labeling."""
        return self._labeling

    def stretch_bound(self) -> float:
        """The weighted scheme's empirical stretch bound (see
        :meth:`WeightedForbiddenSetLabeling.stretch_bound`)."""
        return self._labeling.stretch_bound()

    def table(self, vertex: int) -> RoutingTable:
        """Routing table of ``vertex`` (built lazily, cached)."""
        cached = self._tables.get(vertex)
        if cached is None:
            cached = build_weighted_routing_table(
                self._graph, self._labeling.label(vertex)
            )
            self._tables[vertex] = cached
        return cached

    def route(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
        max_redecodes: int = 32,
    ) -> WeightedRouteResult:
        """Simulate delivering a packet; raises ``RoutingError`` when
        disconnected in ``G \\ F``."""
        faults = self._labeling.fault_set(vertex_faults, edge_faults)
        result = simulate_route(
            self._graph,
            self.table,
            self._labeling.label(s),
            self._labeling.label(t),
            faults,
            max_redecodes=max_redecodes,
            decoder=self._decoder,
        )
        return WeightedRouteResult(
            route=result.route,
            hops=result.hops,
            cost=self.route_cost(result),
            planned=result.planned,
            redecodes=result.redecodes,
        )

    def route_cost(self, result: RouteResult) -> int:
        """Total edge weight of a realized route."""
        return sum(
            self._graph.edge_weight(a, b)
            for a, b in zip(result.route, result.route[1:])
        )
