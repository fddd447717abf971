"""Facade for the forbidden-set compact routing scheme (Theorem 2.7)."""

from __future__ import annotations

from typing import Iterable

from repro.graphs.graph import Graph
from repro.labeling.construction import LabelingOptions
from repro.labeling.kernel import KernelDecoder
from repro.labeling.scheme import ForbiddenSetLabeling
from repro.routing.simulator import RouteResult, simulate_route
from repro.routing.tables import RoutingTable, build_routing_table


class ForbiddenSetRouting:
    """Stretch-``(1+ε)`` forbidden-set routing on a bounded-doubling graph.

    Example
    -------
    >>> from repro.graphs.generators import cycle_graph
    >>> router = ForbiddenSetRouting(cycle_graph(32), epsilon=1.0)
    >>> result = router.route(0, 8, vertex_faults=[4])
    >>> result.route[0], result.route[-1]
    (0, 8)
    >>> result.hops >= 24  # forced the long way around
    True
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float,
        options: LabelingOptions | None = None,
    ) -> None:
        self._graph = graph
        self._labeling = ForbiddenSetLabeling(graph, epsilon, options=options)
        self._tables: dict[int, RoutingTable] = {}
        self._decoder = KernelDecoder(max_labels=max(4096, graph.num_vertices))

    @property
    def labeling(self) -> ForbiddenSetLabeling:
        """The underlying distance labeling scheme."""
        return self._labeling

    @property
    def decoder(self) -> KernelDecoder:
        """The long-lived decoder that plans and re-plans every route."""
        return self._decoder

    def stretch_bound(self) -> float:
        """The distance-scheme stretch bound ``1 + ε``."""
        return self._labeling.stretch_bound()

    def table(self, vertex: int) -> RoutingTable:
        """Routing table of ``vertex`` (built lazily, cached)."""
        cached = self._tables.get(vertex)
        if cached is None:
            cached = build_routing_table(self._graph, self._labeling.label(vertex))
            self._tables[vertex] = cached
        return cached

    def route(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
        max_redecodes: int = 32,
    ) -> RouteResult:
        """Simulate forwarding a packet from ``s`` to ``t`` in ``G \\ F``.

        Raises :class:`~repro.exceptions.RoutingError` when disconnected.
        """
        faults = self._labeling.fault_set(vertex_faults, edge_faults)
        return simulate_route(
            self._graph,
            self.table,
            self._labeling.label(s),
            self._labeling.label(t),
            faults,
            max_redecodes=max_redecodes,
            decoder=self._decoder,
        )
