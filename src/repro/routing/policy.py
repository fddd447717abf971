"""Named routing policies over one shared label set.

The paper's applications section: "a router decides to change its own
routing policy.  For example, for economic or security reasons, a part
of the network may become forbidden.  The local forbidden-set of the
router can be accordingly modified, and it can update its route
immediately without having to invoke a global route maintenance
mechanism."

:class:`PolicyRouter` manages named policies — each a forbidden set of
vertices/edges — on top of a single :class:`ForbiddenSetRouting`
instance.  Policies compose (a route can apply several at once, e.g. a
tenant policy plus the current outage list).  Distance queries and
routes share that instance's one long-lived
:class:`~repro.labeling.kernel.KernelDecoder`: the decoder's memos key
on which labels form ``F``, so repeated queries under the same
composition amortize the decoder work and redefining a policy needs no
invalidation.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import QueryError
from repro.graphs.graph import Graph
from repro.labeling.construction import LabelingOptions
from repro.labeling.query import QueryResult
from repro.routing.scheme import ForbiddenSetRouting
from repro.routing.simulator import RouteResult


class PolicyRouter:
    """Routing/distance queries under named, composable forbidden-set policies.

    Example
    -------
    >>> from repro.graphs.generators import grid_graph
    >>> router = PolicyRouter(grid_graph(6, 6), epsilon=1.0)
    >>> router.define_policy("no-center", vertices=[14, 15, 20, 21])
    >>> result = router.route(0, 35, policies=["no-center"])
    >>> set(result.route) & {14, 15, 20, 21}
    set()
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float = 1.0,
        options: LabelingOptions | None = None,
    ) -> None:
        self._graph = graph
        self._routing = ForbiddenSetRouting(graph, epsilon, options=options)
        self._policies: dict[str, tuple[frozenset[int], frozenset[tuple[int, int]]]] = {}

    # -- policy management ----------------------------------------------------

    def define_policy(
        self,
        name: str,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Create or replace a named policy."""
        vertex_set = frozenset(vertices)
        edge_set = frozenset((min(a, b), max(a, b)) for a, b in edges)
        for v in vertex_set:
            if not 0 <= v < self._graph.num_vertices:
                raise QueryError(f"policy {name!r}: vertex {v} out of range")
        for a, b in edge_set:
            if not self._graph.has_edge(a, b):
                raise QueryError(f"policy {name!r}: edge ({a}, {b}) not in graph")
        self._policies[name] = (vertex_set, edge_set)

    def combined_faults(
        self, policies: Iterable[str]
    ) -> tuple[set[int], set[tuple[int, int]]]:
        """Union of the forbidden sets of the given policies."""
        vertices: set[int] = set()
        edges: set[tuple[int, int]] = set()
        for name in policies:
            try:
                policy_vertices, policy_edges = self._policies[name]
            except KeyError:
                raise QueryError(f"unknown policy {name!r}") from None
            vertices |= policy_vertices
            edges |= policy_edges
        return vertices, edges

    # -- queries ----------------------------------------------------------------

    def distance(
        self, s: int, t: int, policies: Iterable[str] = ()
    ) -> QueryResult:
        """``(1+ε)``-approximate distance under the composed policies."""
        vertices, edges = self.combined_faults(policies)
        labeling = self._routing.labeling
        fault_set = labeling.fault_set(
            vertex_faults=sorted(vertices), edge_faults=sorted(edges)
        )
        return self._routing.decoder.decode(
            labeling.label(s), labeling.label(t), fault_set
        )

    def route(
        self, s: int, t: int, policies: Iterable[str] = ()
    ) -> RouteResult:
        """Simulate delivering a packet under the composed policies."""
        vertices, edges = self.combined_faults(policies)
        return self._routing.route(
            s, t, vertex_faults=sorted(vertices), edge_faults=sorted(edges)
        )
