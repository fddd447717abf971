"""Label data structures.

A vertex label is a list of *level labels*, one per level ``i ∈ I``.  The
level-``i`` label of ``v`` encodes the edge-weighted graph ``H_i(v)``
(paper, "Labels" paragraph):

* vertices — the net-points ``N_{i-c-1} ∩ B(v, r_i)``, stored together
  with their graph distance from ``v`` (plus ``v`` itself at distance 0;
  the paper's construction text stores edges between ``v`` and the
  net-points, which requires ``v`` as a sketch vertex);
* edges — every pair at graph distance ``≤ λ_i``, weighted by that
  distance.  Edges incident to ``v`` are included under the same rule.

Labels are plain data: the decoder consumes them without ever touching
the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LevelLabel:
    """The level-``i`` fragment ``H_i(v)`` of one vertex label.

    Attributes
    ----------
    level:
        The level ``i ∈ I``.
    points:
        ``{x: d_G(v, x)}`` for every sketch vertex ``x`` of ``H_i(v)``
        (net-points of ``N_{i-c-1}`` within ``r_i`` of ``v``, and ``v``).
    edges:
        ``{(x, y): d_G(x, y)}`` with ``x < y`` for every virtual edge of
        length ``≤ λ_i`` between sketch vertices.
    """

    level: int
    points: dict[int, int] = field(default_factory=dict)
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    #: actual graph edges inside the ball (lowest level only), keyed like
    #: ``edges`` but weighted by the *edge weight* (1 for unweighted
    #: graphs).  These back the decoder's "unit-edge" clause: real edges
    #: survive next to faults where virtual edges are filtered out.
    graph_edges: dict[tuple[int, int], int] = field(default_factory=dict)

    def num_points(self) -> int:
        """Number of sketch vertices stored at this level."""
        return len(self.points)

    def num_edges(self) -> int:
        """Number of virtual edges stored at this level."""
        return len(self.edges)


@dataclass
class VertexLabel:
    """The complete label ``L(v)``: level fragments plus scheme parameters.

    The embedded ``epsilon``/``c``/``top_level`` make every label
    self-describing, so a decoder needs nothing beyond the labels of the
    query — exactly the distributed-oracle model of the paper.
    """

    vertex: int
    epsilon: float
    c: int
    top_level: int
    levels: dict[int, LevelLabel] = field(default_factory=dict)

    def level(self, i: int) -> LevelLabel:
        """The level-``i`` fragment (raises ``KeyError`` for levels not stored)."""
        return self.levels[i]

    def num_points(self) -> int:
        """Total sketch vertices across all levels (with multiplicity)."""
        return sum(lvl.num_points() for lvl in self.levels.values())

    def num_edges(self) -> int:
        """Total virtual edges across all levels (with multiplicity)."""
        return sum(lvl.num_edges() for lvl in self.levels.values())
