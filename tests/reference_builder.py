"""Reference builder: the pair-by-pair level assembly production must match.

This is the original statement of the paper's fragment ``H_i(v)``
("Labels" paragraph), as both builders assembled it before they shared
one level assembly: per level, the *net adjacency* ``{p: {q: d(p, q)}}``
of every net-point ``p`` of ``N_{i-c-1}`` (all other net-points within
``λ_i``, or the graph neighbours for ``low_level="unit"`` at level
``c+1``); then, per label, every pair of the ball's points looked up in
it one by one, the edges between the owner and its points, and at level
``c+1`` the graph edges inside the ball.

Production splices each level out of precomputed per-point rows
(:func:`repro.labeling.construction.assemble_level`); this module exists
only so ``tests/test_builder_differential.py`` can check every label it
builds against an independent, readable implementation — dict insertion
order included, since the kernel scans edges in that order.

* :class:`ReferenceBuilder` — the assembly, over the graph, parameters,
  net hierarchy and options of a production scheme;
* :func:`for_scheme` — the reference for a :class:`ForbiddenSetLabeling`
  or a :class:`WeightedForbiddenSetLabeling`.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.graphs.fastbfs import BfsScratch
from repro.graphs.weighted import WeightedGraph, weighted_distances
from repro.labeling.label import LevelLabel, VertexLabel
from repro.labeling.scheme import ForbiddenSetLabeling
from repro.labeling.weighted import WeightedForbiddenSetLabeling


class ReferenceBuilder:
    """Builds labels the way both builders did, one pair at a time."""

    def __init__(self, graph, params, hierarchy, options) -> None:
        self._graph = graph
        self._weighted = isinstance(graph, WeightedGraph)
        self._scratch = None if self._weighted else BfsScratch(graph)
        self.params = params
        self.hierarchy = hierarchy
        self.options = options
        self._net_adjacency = {
            i: self._build_net_adjacency(i) for i in params.levels()
        }

    def _ball(self, source: int, radius: int) -> dict[int, int]:
        """``{x: d(source, x)}`` within ``radius``, in search order."""
        if self._weighted:
            return weighted_distances(self._graph, source, radius=radius)
        return dict(self._scratch.items(source, radius))

    def _neighbors(self, p: int) -> list[tuple[int, int]]:
        """``[(q, weight)]`` in adjacency order; unweighted edges weigh 1."""
        if self._weighted:
            return self._graph.neighbors(p)
        return [(q, 1) for q in self._graph.neighbors(p)]

    def _build_net_adjacency(self, i: int) -> dict[int, dict[int, int]]:
        net = self.hierarchy.net(self.params.net_level(i))
        lam = self.params.lam(i)
        unit_only = i == self.params.c + 1 and self.options.low_level == "unit"
        adjacency: dict[int, dict[int, int]] = {}
        for p in net:
            if unit_only:
                # N_0 = V(G): length-1 virtual edges are the graph edges
                adjacency[p] = {q: w for q, w in self._neighbors(p) if w <= lam}
                continue
            adjacency[p] = {
                q: d
                for q, d in self._ball(p, lam).items()
                if q != p and q in net and d <= lam
            }
        return adjacency

    def build_label(self, vertex: int) -> VertexLabel:
        """The complete label ``L(vertex)``."""
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
        net = self.hierarchy.net(params.net_level(i))
        lam = params.lam(i)
        points = {
            x: d for x, d in self._ball(vertex, params.r(i)).items() if x in net
        }
        points[vertex] = 0  # v is always a sketch vertex of H_i(v)
        edges: dict[tuple[int, int], int] = {}
        adjacency = self._net_adjacency[i]
        for p in points:
            nbrs = adjacency.get(p)
            if not nbrs:
                continue
            for q, weight in nbrs.items():
                if q > p and q in points:
                    edges[(p, q)] = weight
        # edges between v and the net-points; if v is itself a net-point
        # these are already present with identical weights
        for p, dist in points.items():
            if p != vertex and dist <= lam:
                key = (vertex, p) if vertex < p else (p, vertex)
                edges.setdefault(key, dist)
        # at the lowest level, the actual graph edges inside the ball,
        # weighted by their edge weight
        graph_edges: dict[tuple[int, int], int] = {}
        if i == params.c + 1:
            for p in points:
                for q, weight in self._neighbors(p):
                    if q > p and q in points:
                        graph_edges[(p, q)] = weight
        return LevelLabel(
            level=i, points=points, edges=edges, graph_edges=graph_edges
        )


def for_scheme(scheme) -> ReferenceBuilder:
    """The reference builder over ``scheme``'s own graph, nets and options."""
    if isinstance(scheme, WeightedForbiddenSetLabeling):
        graph, hierarchy, options = (
            scheme._graph, scheme._hierarchy, scheme.options
        )
    elif isinstance(scheme, ForbiddenSetLabeling):
        builder = scheme._builder
        graph, hierarchy, options = (
            scheme._graph, builder.hierarchy, builder.options
        )
    else:
        raise TypeError(f"no reference builder for {type(scheme).__name__}")
    return ReferenceBuilder(graph, scheme.params, hierarchy, options)
