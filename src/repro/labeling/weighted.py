"""Forbidden-set distance labels for **weighted** graphs (extension).

The paper proves its theorems for unweighted graphs but motivates them
with weighted road networks; this module ports the construction, as the
hub-labeling discussion in the paper's applications section anticipates.
What changes:

* distances come from Dijkstra instead of BFS; levels run to
  ``⌈log₂ D⌉`` where ``D`` bounds the weighted diameter (so the level
  count — and the ``log n`` factor of Lemma 2.5 — becomes ``log D``,
  i.e. ``log (n·W_max)``, exactly as in the weighted planar scheme of
  Abraham et al. [2012]);
* the nets of Fact 1 are ``2^i``-dominating (instead of ``(2^i - 1)``-
  dominating) — the paper's own weighted statement; the parameter
  inequalities (Claim 1) absorb the slack unchanged;
* the lowest level stores the *actual graph edges* inside the ball with
  their true edge weights (for unweighted graphs these are the unit
  edges), so the decoder's graph-edge clause still provides exact local
  rerouting next to faults.

Guarantees: the safety direction is unconditional — the decoder never
undershoots ``d_{G\\F}`` and never reports a connection that does not
exist (Lemma 2.3's proof is weight-agnostic).  The ``1+ε`` upper bound
is inherited when edge weights are small relative to the query scale
(the hierarchical path argument walks the shortest path in ``2^ℓ``-sized
strides, and a stride can overshoot by one edge weight); heavy edges can
push the realized stretch toward ``1 + ε + W_max/d``.  Tests validate
the sandwich empirically with that corrected bound.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.exceptions import LabelingError, QueryError
from repro.graphs.weighted import (
    WeightedGraph,
    log2_ceil,
    weighted_distances,
)
from repro.labeling.construction import LabelingOptions, Rows, assemble_level
from repro.labeling.decoder import (
    FaultSet,
    QueryResult,
    decode_distance,
    normalize_faults,
)
from repro.labeling.label import LevelLabel, VertexLabel
from repro.labeling.params import ParamSchedule, c_for_epsilon, lam_for_level
from repro.nets.weighted_hierarchy import WeightedNetHierarchy


class WeightedForbiddenSetLabeling:
    """Forbidden-set approximate distance labeling of a weighted graph.

    Example
    -------
    >>> from repro.graphs.weighted import WeightedGraph
    >>> g = WeightedGraph(4)
    >>> g.add_edge(0, 1, 3); g.add_edge(1, 2, 4); g.add_edge(2, 3, 2)
    >>> g.add_edge(0, 3, 20)
    >>> scheme = WeightedForbiddenSetLabeling(g, epsilon=1.0)
    >>> scheme.query(0, 3).distance   # 3 + 4 + 2
    9
    >>> scheme.query(0, 3, vertex_faults=[1]).distance  # forced onto (0,3)
    20
    """

    def __init__(
        self,
        graph: WeightedGraph,
        epsilon: float,
        options: LabelingOptions | None = None,
    ) -> None:
        if graph.num_vertices == 0:
            raise LabelingError("graph must have at least one vertex")
        self._graph = graph
        self.options = options or LabelingOptions()
        c = c_for_epsilon(epsilon)
        log_d = max(1, log2_ceil(max(2, graph.distance_upper_bound())))
        self.params = ParamSchedule(
            epsilon=epsilon, c=c, top_level=max(log_d, c + 2)
        )
        self.params.validate()
        net_top_needed = self.params.net_level(self.params.top_level)
        self._hierarchy = WeightedNetHierarchy(
            graph, top_level=max(net_top_needed, log_d)
        )
        # per vertex p: {(p, q): w} for the graph edges to q > p; real
        # edges carry their true weight, whatever it is — they must stay
        # usable next to faults even when heavier than lam
        self._graph_rows: Rows = {
            p: {(p, q): w for q, w in graph.neighbors(p) if q > p}
            for p in graph.vertices()
        }
        self._graph_reach = graph.max_weight()
        self._net_adjacency: dict[int, Rows] = {}
        for i in self.params.levels():
            self._net_adjacency[i] = self._build_net_adjacency(i)
        self._labels: dict[int, VertexLabel] = {}

    # -- construction -----------------------------------------------------

    def _build_net_adjacency(self, i: int) -> Rows:
        net = self._hierarchy.net(self.params.net_level(i))
        lam = self.params.lam(i)
        if i == self.params.c + 1 and self.options.low_level == "unit":
            return {
                p: {key: w for key, w in self._graph_rows[p].items() if w <= lam}
                for p in net
            }
        return {
            p: {
                (p, q): d
                for q, d in weighted_distances(self._graph, p, radius=lam).items()
                if q > p and q in net
            }
            for p in net
        }

    def label(self, vertex: int) -> VertexLabel:
        """The label ``L(vertex)`` (materialized lazily, cached)."""
        cached = self._labels.get(vertex)
        if cached is None:
            cached = self._build_label(vertex)
            self._labels[vertex] = cached
        return cached

    def _build_label(self, vertex: int) -> VertexLabel:
        if not 0 <= vertex < self._graph.num_vertices:
            raise LabelingError(f"vertex {vertex} out of range")
        params = self.params
        label = VertexLabel(
            vertex=vertex,
            epsilon=params.epsilon,
            c=params.c,
            top_level=params.top_level,
        )
        for i in params.levels():
            label.levels[i] = self._build_level(vertex, i)
        return label

    def _build_level(self, vertex: int, i: int) -> LevelLabel:
        params = self.params
        radius = params.r(i)
        net = self._hierarchy.net(params.net_level(i))
        ball = weighted_distances(self._graph, vertex, radius=radius)
        points = {x: d for x, d in ball.items() if x in net}
        points[vertex] = 0
        lowest = i == params.c + 1
        return assemble_level(
            i, vertex, points, params.lam(i), radius, self._net_adjacency[i],
            self._graph_rows if lowest else None, self._graph_reach,
        )

    # -- queries ------------------------------------------------------------

    def fault_set(
        self,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> FaultSet:
        """Package raw fault ids into a label-based :class:`FaultSet`.

        Inputs are deduplicated first, as in
        :meth:`ForbiddenSetLabeling.fault_set`: repeated vertices and both
        orientations of the same edge collapse to one entry.
        """
        vertex_faults, edge_faults = normalize_faults(vertex_faults, edge_faults)
        for a, b in edge_faults:
            if not self._graph.has_edge(a, b):
                raise QueryError(f"forbidden edge ({a}, {b}) is not in the graph")
        return FaultSet(
            vertex_labels=[self.label(f) for f in vertex_faults],
            edge_labels=[(self.label(a), self.label(b)) for a, b in edge_faults],
        )

    def query(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> QueryResult:
        """Approximate weighted ``d_{G\\F}(s, t)``.

        The result never undershoots the true distance; see the module
        docstring for the upper-bound discussion.
        """
        faults = self.fault_set(vertex_faults, edge_faults)
        return decode_distance(self.label(s), self.label(t), faults)

    def connectivity(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> bool:
        """Whether ``s`` and ``t`` are connected in ``G \\ F``."""
        return not math.isinf(
            self.query(s, t, vertex_faults, edge_faults).distance
        )

    def stretch_bound(self) -> float:
        """``1 + ε + W_max / 2^{c+1}``-flavoured empirical bound.

        The hierarchical stride argument can overshoot by one edge weight
        per stride; strides at level ℓ have length ``2^ℓ ≥ 2^{c+1}``, so
        the relative overshoot is at most ``W_max / 2^{c+1}`` per stride.
        """
        slack = self._graph.max_weight() / lam_for_level(self.params.c)
        return self.params.stretch_bound() + slack