"""Construction of forbidden-set labels (Theorem 2.1, "Labels" paragraph).

The builder precomputes, once per level ``i ∈ I``, the *net adjacency*
as one row per net-point ``p ∈ N_{i-c-1}``: ``{(p, q): d_G(p, q)}`` for
every net-point ``q > p`` of the same net within ``λ_i`` (one bounded
BFS per net-point), plus one row of graph edges per vertex.  A vertex
label is then materialized with one bounded BFS per level from the vertex
itself (radius ``r_i``), which finds the sketch vertices
``N_{i-c-1} ∩ B(v, r_i)`` with their distances, and
:func:`assemble_level` splices the level's edges out of those points'
rows: a point within ``r_i - λ_i`` of ``v`` takes its whole row, since
the triangle inequality puts every far end inside ``B(v, r_i)``; only
the rows of boundary points are filtered.  Labels share the rows' key
tuples, and every dict keeps the insertion order of a pair-by-pair
assembly (the kernel scans edges in that order).

This lazy materialization keeps memory proportional to the *global*
structures rather than ``n`` full labels, while each produced
:class:`~repro.labeling.label.VertexLabel` remains self-contained — the
decoder never touches the graph or the builder.

Low-level option (ablation E11): at the lowest level ``c+1`` the net is
``N_0 = V(G)``, so the faithful "all pairs within λ" rule stores
``Θ(ball²)`` edges per label.  With ``low_level="unit"`` only the
length-1 virtual edges (the actual graph edges inside the ball) are kept;
the proof of Claim 2 shows the surviving unit-edge paths provide the same
guarantees, and experiment E11 measures the size difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import LabelingError
from repro.graphs.fastbfs import BfsScratch
from repro.graphs.graph import Graph
from repro.labeling.label import LevelLabel, VertexLabel
from repro.labeling.params import ParamSchedule
from repro.nets.hierarchy import NetHierarchy

#: per point ``p``: ``{(p, q): weight}`` for far ends ``q > p``, each
#: weight at least ``d(p, q)``
Rows = dict[int, dict[tuple[int, int], int]]


@dataclass(frozen=True)
class LabelingOptions:
    """Tunable construction options.

    Attributes
    ----------
    low_level:
        ``"full"`` (paper-faithful: all pairs within ``λ_{c+1}`` at the
        lowest level) or ``"unit"`` (only the length-1 edges; smaller
        labels, same guarantees — see module docstring).
    """

    low_level: str = "full"

    def __post_init__(self) -> None:
        if self.low_level not in ("full", "unit"):
            raise LabelingError(
                f"low_level must be 'full' or 'unit', got {self.low_level!r}"
            )


class LabelBuilder:
    """Builds :class:`VertexLabel` objects for one graph and one ε."""

    def __init__(
        self,
        graph: Graph,
        epsilon: float,
        options: LabelingOptions | None = None,
        hierarchy: NetHierarchy | None = None,
    ) -> None:
        if graph.num_vertices == 0:
            raise LabelingError("graph must have at least one vertex")
        self._graph = graph
        self.options = options or LabelingOptions()
        self.params = ParamSchedule.for_graph(epsilon, graph.num_vertices)
        self.params.validate()
        net_top_needed = self.params.net_level(self.params.top_level)
        n = graph.num_vertices
        log_n = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        if hierarchy is None:
            hierarchy = NetHierarchy(graph, top_level=max(net_top_needed, log_n))
        elif hierarchy.top_level < net_top_needed:
            raise LabelingError("provided hierarchy has too few levels")
        self.hierarchy = hierarchy
        self._scratch = BfsScratch(graph)
        # per vertex p: {(p, q): 1} for the graph edges to q > p
        self._graph_rows: Rows = {
            p: {(p, q): 1 for q in graph.neighbors(p) if q > p}
            for p in graph.vertices()
        }
        # per level i: the rows of the net-points p of N_{i-c-1}
        self._net_adjacency: dict[int, Rows] = {}
        for i in self.params.levels():
            self._net_adjacency[i] = self._build_net_adjacency(i)

    # -- global structures --------------------------------------------------

    def _build_net_adjacency(self, i: int) -> Rows:
        """``{p: {(p, q): d_G(p, q)}}`` over net-points ``q > p`` within ``λ_i``.

        With ``low_level="unit"`` the lowest level's rows are the graph
        edges instead.
        """
        if i == self.params.c + 1 and self.options.low_level == "unit":
            # N_0 = V(G): length-1 virtual edges are the graph edges
            return self._graph_rows
        net = self.hierarchy.net(self.params.net_level(i))
        lam = self.params.lam(i)
        return {
            p: {
                (p, q): d
                for q, d in self._scratch.items(p, radius=lam)
                if q > p and q in net
            }
            for p in net
        }

    # -- label materialization -------------------------------------------------

    def build_label(self, vertex: int) -> VertexLabel:
        """Materialize the complete label ``L(vertex)``."""
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
        net = self.hierarchy.net(params.net_level(i))
        points = self._scratch.restricted(vertex, radius, net)
        points[vertex] = 0  # v is always a sketch vertex of H_i(v)
        lowest = i == params.c + 1
        return assemble_level(
            i, vertex, points, params.lam(i), radius, self._net_adjacency[i],
            self._graph_rows if lowest else None, 1,
        )


def assemble_level(
    level: int,
    vertex: int,
    points: dict[int, int],
    lam: int,
    radius: int,
    rows: Rows,
    graph_rows: Rows | None,
    graph_reach: int,
) -> LevelLabel:
    """The fragment ``H_i(v)`` of ``vertex`` over its sketch vertices ``points``.

    ``points`` maps every net-point within ``radius = r_i`` of ``vertex``
    (and ``vertex`` itself) to its distance.  The virtual edges are every
    row entry of ``rows`` (weights at most ``lam = λ_i``) whose far end
    is a point, then the edges between ``vertex`` and its points within
    ``λ_i`` ("and also between v and the net-points"; present already,
    with the same weight, when ``vertex`` is a net-point).  At the lowest
    level, ``graph_rows`` (edge weights at most ``graph_reach``) give the
    actual graph edges inside the ball ("L(v) stores all edges in the
    original graph G that are in B_{c+1}(v)"), which back the decoder's
    unit-edge clause.
    """
    edges: dict[tuple[int, int], int] = {}
    _splice(edges, points, rows, radius - lam)
    for p, dist in points.items():
        if p != vertex and dist <= lam:
            key = (vertex, p) if vertex < p else (p, vertex)
            edges.setdefault(key, dist)
    graph_edges: dict[tuple[int, int], int] = {}
    if graph_rows is not None:
        _splice(graph_edges, points, graph_rows, radius - graph_reach)
    return LevelLabel(
        level=level, points=points, edges=edges, graph_edges=graph_edges
    )


def _splice(
    out: dict[tuple[int, int], int],
    points: dict[int, int],
    rows: Rows,
    inner: int,
) -> None:
    """Add to ``out``, point by point, each row entry whose far end is a point.

    A point within ``inner`` (the ball radius minus the rows' largest
    weight) takes its whole row by one ``dict.update``: every far end
    lies within the ball radius of the owner, and the rows hold only
    members of the level's net, so it is a point.  Boundary rows are
    filtered entry by entry.  Either way ``out`` gets the entries in row
    order, point after point.
    """
    for p, dist in points.items():
        row = rows.get(p)
        if not row:
            continue
        if dist <= inner:
            out.update(row)
        else:
            for key, weight in row.items():
                if key[1] in points:
                    out[key] = weight
