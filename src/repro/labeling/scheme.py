"""Public facade for the forbidden-set distance labeling scheme (Theorem 2.1).

:class:`ForbiddenSetLabeling` wires together the label builder and the
decoder and offers two querying styles:

* the *oracle* style — ``scheme.query(s, t, vertex_faults=…, edge_faults=…)``
  with raw vertex ids (labels are materialized and cached internally);
* the *distributed* style — ``decode_distance(L(s), L(t), FaultSet(…))``
  with explicit label objects, matching the paper's model where the
  decoder sees nothing but labels.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import QueryError
from repro.graphs.graph import Graph
from repro.labeling.construction import LabelBuilder, LabelingOptions
from repro.labeling.decoder import (
    FaultSet,
    QueryResult,
    decode_distance,
    normalize_faults,
)
from repro.labeling.label import VertexLabel
from repro.labeling.params import ParamSchedule


class ForbiddenSetLabeling:
    """Forbidden-set ``(1+ε)``-approximate distance labeling of a graph.

    Example
    -------
    >>> from repro.graphs.generators import cycle_graph
    >>> scheme = ForbiddenSetLabeling(cycle_graph(32), epsilon=1.0)
    >>> scheme.query(0, 8).distance  # no faults: true distance is 8
    8
    >>> result = scheme.query(0, 8, vertex_faults=[4])
    >>> 24 <= result.distance <= 2 * 24  # must go the long way around
    True
    """

    def __init__(
        self,
        graph: Graph,
        epsilon: float,
        options: LabelingOptions | None = None,
    ) -> None:
        self._graph = graph
        self._builder = LabelBuilder(graph, epsilon, options=options)
        self._labels: dict[int, VertexLabel] = {}

    # -- parameters ---------------------------------------------------------

    @property
    def params(self) -> ParamSchedule:
        """The :class:`~repro.labeling.params.ParamSchedule` in force."""
        return self._builder.params

    @property
    def epsilon(self) -> float:
        """The precision parameter ε."""
        return self._builder.params.epsilon

    def stretch_bound(self) -> float:
        """The guaranteed multiplicative stretch (``1 + ε`` or better)."""
        return self._builder.params.stretch_bound()

    # -- labels ---------------------------------------------------------------

    def label(self, vertex: int) -> VertexLabel:
        """The label ``L(vertex)``, materialized lazily and cached."""
        cached = self._labels.get(vertex)
        if cached is None:
            cached = self._builder.build_label(vertex)
            self._labels[vertex] = cached
        return cached

    def fault_set(
        self,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> FaultSet:
        """Package raw fault ids into a :class:`FaultSet` of labels.

        Inputs are deduplicated first: repeated vertices and both
        orientations of the same edge collapse to one entry.
        """
        vertex_faults, edge_faults = normalize_faults(vertex_faults, edge_faults)
        for a, b in edge_faults:
            if not self._graph.has_edge(a, b):
                raise QueryError(f"forbidden edge ({a}, {b}) is not in the graph")
        return FaultSet(
            vertex_labels=[self.label(f) for f in vertex_faults],
            edge_labels=[
                (self.label(a), self.label(b)) for a, b in edge_faults
            ],
        )

    # -- queries ----------------------------------------------------------------

    def query(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> QueryResult:
        """Approximate ``d_{G\\F}(s, t)`` for ``F`` given by raw ids."""
        faults = self.fault_set(vertex_faults, edge_faults)
        return decode_distance(self.label(s), self.label(t), faults)

    def connectivity(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> bool:
        """Whether ``s`` and ``t`` are connected in ``G \\ F``.

        Connectivity is answered *exactly*: the sketch graph contains a
        path iff one exists in ``G \\ F`` (Lemmas 2.3 and 2.4).
        """
        import math

        return not math.isinf(
            self.query(s, t, vertex_faults, edge_faults).distance
        )

    # -- accounting ---------------------------------------------------------------

    def label_statistics(self, vertices: Sequence[int] | None = None) -> dict:
        """Size statistics over the labels of ``vertices`` (default: all).

        Returns per-label entry counts (points/edges) and encoded bit
        lengths; used by the E2–E4 experiments.
        """
        from repro.labeling.encoding import encoded_bit_length

        targets = list(vertices) if vertices is not None else list(
            self._graph.vertices()
        )
        entries = []
        for vertex in targets:
            label = self.label(vertex)
            entries.append(
                {
                    "vertex": vertex,
                    "points": label.num_points(),
                    "edges": label.num_edges(),
                    "bits": encoded_bit_length(label),
                }
            )
        bits = [e["bits"] for e in entries]
        return {
            "labels": entries,
            "max_bits": max(bits),
            "mean_bits": sum(bits) / len(bits),
            "max_points": max(e["points"] for e in entries),
            "max_edges": max(e["edges"] for e in entries),
        }


__all__ = ["ForbiddenSetLabeling", "LabelingOptions", "FaultSet", "QueryResult"]
