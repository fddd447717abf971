"""The failure-free ``(1+ε)``-approximate distance labeling scheme.

This is the warm-up scheme described in Section 2.1 ("Overview of the
Failure-Free Case"), implemented exactly as in the paper:

* ``c = max{0, ⌈log₂(2/ε)⌉}`` and levels ``I = {c, …, ⌈log₂ n⌉}``;
* the label of ``v`` stores, for each ``i ∈ I``, all net-points of
  ``N_{i-c}`` inside ``B(v, 2^{i+1} - 1)`` together with their distance
  from ``v``;
* to answer a query ``(s, t)`` the decoder finds the smallest ``i ≥ c``
  such that ``M_{i-c}(t)`` (read off ``L(t)``) appears in the level-``i``
  ball of ``L(s)``, and returns
  ``d_G(s, M_{i-c}(t)) + d_G(t, M_{i-c}(t))``.

The guarantee is ``d_G(s,t) ≤ δ(s,t) ≤ (1+ε)·d_G(s,t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import LabelingError
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.labeling.params import lam_for_level
from repro.nets.hierarchy import NetHierarchy


@dataclass
class FailureFreeLabel:
    """Label of one vertex: per level, net-points in the ball with distances."""

    vertex: int
    c: int
    top_level: int
    #: per level i: {net_point: d_G(v, net_point)} over N_{i-c} ∩ B(v, 2^{i+1}-1)
    balls: dict[int, dict[int, int]] = field(default_factory=dict)

    def nearest_point(self, i: int) -> tuple[int, int]:
        """``(M_{i-c}(v), d_G(v, M_{i-c}(v)))`` recovered from the label.

        The nearest level-``(i-c)`` net-point lies within ``2^{i-c} - 1 <
        2^{i+1} - 1`` of ``v``, so it is always present in the ball.
        """
        ball = self.balls[i]
        if not ball:
            raise LabelingError(f"level {i} ball of vertex {self.vertex} is empty")
        best = min(ball.items(), key=lambda item: (item[1], item[0]))
        return best

    def size_entries(self) -> int:
        """Total number of (point, distance) entries across levels."""
        return sum(len(ball) for ball in self.balls.values())


class FailureFreeLabeling:
    """The failure-free scheme: build labels once, answer queries from labels.

    Example
    -------
    >>> from repro.graphs.generators import path_graph
    >>> scheme = FailureFreeLabeling(path_graph(64), epsilon=1.0)
    >>> d = scheme.query(0, 40)
    >>> 40 <= d <= 2 * 40
    True
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float,
        hierarchy: NetHierarchy | None = None,
    ) -> None:
        if epsilon <= 0:
            raise LabelingError(f"epsilon must be positive, got {epsilon}")
        n = graph.num_vertices
        if n == 0:
            raise LabelingError("graph must have at least one vertex")
        self._graph = graph
        self.epsilon = epsilon
        self.c = max(0, math.ceil(math.log2(2.0 / epsilon)))
        log_n = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        self.top_level = max(log_n, self.c)
        net_top_needed = self.top_level - self.c
        hier_top = max(net_top_needed, log_n)
        if hierarchy is None:
            hierarchy = NetHierarchy(graph, top_level=hier_top)
        elif hierarchy.top_level < net_top_needed:
            raise LabelingError("provided hierarchy has too few levels")
        self._hierarchy = hierarchy
        self._labels: dict[int, FailureFreeLabel] = {}

    # -- labels ---------------------------------------------------------------

    def levels(self) -> range:
        """The level range ``I = {c, …, top_level}``."""
        return range(self.c, self.top_level + 1)

    def label(self, vertex: int) -> FailureFreeLabel:
        """The label ``L(vertex)`` (materialized lazily, then cached)."""
        cached = self._labels.get(vertex)
        if cached is None:
            cached = self._build_label(vertex)
            self._labels[vertex] = cached
        return cached

    def _build_label(self, vertex: int) -> FailureFreeLabel:
        label = FailureFreeLabel(vertex=vertex, c=self.c, top_level=self.top_level)
        for i in self.levels():
            radius = lam_for_level(i) - 1
            net = self._hierarchy.net(min(i - self.c, self._hierarchy.top_level))
            ball = bfs_distances(self._graph, vertex, radius=radius)
            label.balls[i] = {x: d for x, d in ball.items() if x in net}
        return label

    # -- queries ----------------------------------------------------------------

    def query(self, s: int, t: int) -> float:
        """``(1+ε)``-approximate distance between ``s`` and ``t``.

        Returns ``math.inf`` when the vertices are disconnected.
        """
        return self.query_from_labels(self.label(s), self.label(t))

    @staticmethod
    def query_from_labels(
        label_s: FailureFreeLabel, label_t: FailureFreeLabel
    ) -> float:
        """Decode a distance estimate from the two labels alone."""
        if label_s.vertex == label_t.vertex:
            return 0
        for i in range(label_s.c, label_s.top_level + 1):
            ball_t = label_t.balls.get(i)
            if not ball_t:
                continue
            point, dist_t = label_t.nearest_point(i)
            dist_s = label_s.balls.get(i, {}).get(point)
            if dist_s is not None:
                return dist_s + dist_t
        return math.inf
