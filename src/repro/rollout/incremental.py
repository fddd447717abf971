"""Incremental relabeling: rebuild only the labels a change can touch.

The paper's construction is local.  A vertex ``v``'s level-``i``
fragment depends only on (a) the distances from ``v`` to the net
``N_{i-c-1}`` inside ``B(v, r_i)`` and (b) the net-adjacency rows of
those net-points within ``λ_i``.  So after a batch of edge/vertex
changes, a label can differ from its old value **only if** some
net-point ball ``B(p, r_i)`` that contains ``v`` changed, or a
net-adjacency row restricted to ``v``'s sketch changed.  The
:class:`IncrementalRelabeler` computes an *exact superset* of those
vertices level by level:

1. multi-source bounded BFS from the change sites filters the
   net-points whose balls can intersect the change at all;
2. for each candidate ``p``, the ``r_i``-balls in the old and new
   graph are diffed — any vertex whose distance to ``p`` changed is
   affected (this covers the ``points`` maps and the ``v``-to-point
   edges, by symmetry of distance);
3. if ``p``'s net-adjacency row within ``λ_i`` changed, *every* vertex
   of either ball is affected (a label stores the edge ``(p, q)`` only
   when ``p`` is one of its sketch points, i.e. the vertex lies in
   ``B(p, r_i)``).

The lowest level's ``graph_edges`` need no extra pass: adding or
removing a graph edge ``(a, b)`` always changes ``d(a, b)`` (1 vs
``>= 2``), so ``a``'s row over ``N_0 = V`` changes and step 3 already
sweeps in every vertex whose lowest-level ball sees the edge.

The net hierarchy is **pinned to the host graph** across versions —
reuse is sound precisely because old and new labels are built against
the same nets and the same parameter schedule (ε and ``n`` are
unchanged), and :meth:`IncrementalRelabeler.validate` proves it by
byte-comparing every label against a full rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import GraphError, RolloutError
from repro.graphs.fastbfs import BfsScratch
from repro.graphs.graph import Graph
from repro.graphs.traversal import multi_source_distances
from repro.labeling.construction import LabelBuilder, LabelingOptions
from repro.labeling.encoding import encode_label
from repro.labeling.label import VertexLabel
from repro.nets.hierarchy import NetHierarchy
from repro.obs.registry import Registry
from repro.obs.trace import Tracer


def _normalize_edge(edge: tuple[int, int]) -> tuple[int, int]:
    a, b = edge
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class GraphChange:
    """A batch of topology changes applied as one new graph version."""

    removed_edges: tuple[tuple[int, int], ...] = ()
    added_edges: tuple[tuple[int, int], ...] = ()
    removed_vertices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "removed_edges",
            tuple(_normalize_edge(e) for e in self.removed_edges),
        )
        object.__setattr__(
            self,
            "added_edges",
            tuple(_normalize_edge(e) for e in self.added_edges),
        )
        object.__setattr__(
            self, "removed_vertices", tuple(self.removed_vertices)
        )
        if not (self.removed_edges or self.added_edges or self.removed_vertices):
            raise RolloutError("a graph change must change something")
        overlap = set(self.removed_edges) & set(self.added_edges)
        if overlap:
            raise RolloutError(f"edges both removed and added: {sorted(overlap)}")

    def sources(self) -> set[int]:
        """Vertices directly touched by the change (BFS seed set)."""
        touched: set[int] = set(self.removed_vertices)
        for a, b in self.removed_edges:
            touched.add(a)
            touched.add(b)
        for a, b in self.added_edges:
            touched.add(a)
            touched.add(b)
        return touched


def apply_change(graph: Graph, change: GraphChange) -> Graph:
    """The new graph version (same vertex ids; removed vertices isolated)."""
    n = graph.num_vertices
    for v in change.removed_vertices:
        if not 0 <= v < n:
            raise GraphError(f"removed vertex {v} out of range")
    removed_vertex_set = set(change.removed_vertices)
    for a, b in change.removed_edges:
        if not graph.has_edge(a, b):
            raise GraphError(f"cannot remove missing edge ({a}, {b})")
    for a, b in change.added_edges:
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"added edge ({a}, {b}) out of range")
        if graph.has_edge(a, b):
            raise GraphError(f"cannot add existing edge ({a}, {b})")
        if a in removed_vertex_set or b in removed_vertex_set:
            raise GraphError(
                f"added edge ({a}, {b}) touches a removed vertex"
            )
    new_graph = graph.subgraph_without(
        removed_vertices=removed_vertex_set,
        removed_edges=set(change.removed_edges),
    )
    for a, b in change.added_edges:
        new_graph.add_edge(a, b)
    return new_graph


@dataclass(frozen=True)
class RelabelPlan:
    """A prepared (not yet adopted) relabeling for one graph change.

    ``labels`` holds the complete label set of the new version: reused
    old labels for unaffected vertices plus freshly built labels for
    ``affected``.  A plan is side-effect free until
    :meth:`IncrementalRelabeler.commit` adopts it, which is what makes
    abort trivial — just drop the plan.
    """

    change: GraphChange
    new_graph: Graph
    affected: tuple[int, ...]
    labels: dict[int, VertexLabel] = field(repr=False)

    @property
    def num_rebuilt(self) -> int:
        """How many labels were rebuilt."""
        return len(self.affected)

    @property
    def num_reused(self) -> int:
        """How many old labels carried over untouched."""
        return self.new_graph.num_vertices - len(self.affected)

    def encoded_labels(self) -> list[bytes]:
        """All labels of the new version, encoded, indexed by vertex."""
        return [
            encode_label(self.labels[v])
            for v in range(self.new_graph.num_vertices)
        ]


class IncrementalRelabeler:
    """Maintains a full label set across graph versions, rebuilding
    only the affected region per change."""

    def __init__(
        self,
        graph: Graph,
        epsilon: float,
        options: LabelingOptions | None = None,
        obs: Registry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._epsilon = epsilon
        self._options = options or LabelingOptions()
        self._obs = obs
        self._tracer = tracer
        builder = LabelBuilder(graph, epsilon, self._options)
        self._hierarchy = builder.hierarchy
        self._params = builder.params
        self._graph = graph
        self._labels: dict[int, VertexLabel] = {
            v: builder.build_label(v) for v in range(graph.num_vertices)
        }

    # -- accessors ----------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The current (committed) graph version."""
        return self._graph

    @property
    def hierarchy(self) -> NetHierarchy:
        """The pinned net hierarchy shared by all versions."""
        return self._hierarchy

    @property
    def stretch_bound(self) -> float:
        """The guaranteed multiplicative stretch (``1 + ε`` or better)."""
        return self._params.stretch_bound()

    def label(self, vertex: int) -> VertexLabel:
        """The current label of ``vertex``."""
        return self._labels[vertex]

    def encoded_labels(self) -> list[bytes]:
        """The current version's labels, encoded, indexed by vertex."""
        return [
            encode_label(self._labels[v])
            for v in range(self._graph.num_vertices)
        ]

    # -- planning -----------------------------------------------------------

    def plan(self, change: GraphChange) -> RelabelPlan:
        """Compute the new version's labels, rebuilding only the
        affected region."""
        if self._tracer is not None:
            with self._tracer.span("rollout.plan") as span:
                plan = self._plan(change)
                span.set("affected", plan.num_rebuilt)
                span.set("reused", plan.num_reused)
                return plan
        return self._plan(change)

    def _plan(self, change: GraphChange) -> RelabelPlan:
        new_graph = apply_change(self._graph, change)
        affected = self._affected_region(new_graph, change)
        builder = LabelBuilder(
            new_graph,
            self._epsilon,
            self._options,
            hierarchy=self._hierarchy,
        )
        labels = dict(self._labels)
        for vertex in affected:
            labels[vertex] = builder.build_label(vertex)
        if self._obs is not None:
            self._obs.counter(
                "repro_labels_rebuilt_total",
                "labels rebuilt by incremental relabeling",
            ).inc(len(affected))
            self._obs.counter(
                "repro_labels_reused_total",
                "labels reused unchanged by incremental relabeling",
            ).inc(new_graph.num_vertices - len(affected))
        return RelabelPlan(
            change=change,
            new_graph=new_graph,
            affected=affected,
            labels=labels,
        )

    def commit(self, plan: RelabelPlan) -> None:
        """Adopt ``plan`` as the current version."""
        self._graph = plan.new_graph
        self._labels = dict(plan.labels)

    def validate(self, plan: RelabelPlan) -> None:
        """Byte-compare every plan label against a full rebuild.

        Raises :class:`RolloutError` on the first mismatch; this is the
        correctness oracle for the affected-region computation.
        """
        builder = LabelBuilder(
            plan.new_graph,
            self._epsilon,
            self._options,
            hierarchy=self._hierarchy,
        )
        for vertex in range(plan.new_graph.num_vertices):
            expected = encode_label(builder.build_label(vertex))
            actual = encode_label(plan.labels[vertex])
            if expected != actual:
                raise RolloutError(
                    f"incremental label for vertex {vertex} diverges from "
                    f"the full rebuild (vertex "
                    f"{'affected' if vertex in plan.affected else 'reused'})"
                )

    # -- affected region ----------------------------------------------------

    def _affected_region(
        self, new_graph: Graph, change: GraphChange
    ) -> tuple[int, ...]:
        old_graph = self._graph
        sources = change.sources()
        affected: set[int] = set(sources)
        old_scratch = BfsScratch(old_graph)
        new_scratch = BfsScratch(new_graph)
        for i in self._params.levels():
            net = self._hierarchy.net(self._params.net_level(i))
            radius = self._params.r(i)
            lam = self._params.lam(i)
            # filter: p's ball or row can only change if the change is
            # within distance <= radius of p in the old or new graph
            old_near = multi_source_distances(old_graph, sources, radius + 1)
            new_near = multi_source_distances(new_graph, sources, radius + 1)
            for p in net:
                if p not in old_near and p not in new_near:
                    continue
                old_ball = old_scratch.distances(p, radius)
                new_ball = new_scratch.distances(p, radius)
                ball_union = old_ball.keys() | new_ball.keys()
                changed = {
                    v
                    for v in ball_union
                    if old_ball.get(v) != new_ball.get(v)
                }
                affected |= changed
                old_row = {
                    q: d
                    for q, d in old_ball.items()
                    if q != p and q in net and d <= lam
                }
                new_row = {
                    q: d
                    for q, d in new_ball.items()
                    if q != p and q in net and d <= lam
                }
                if old_row != new_row:
                    affected |= ball_union
        # sorted tuple, not the raw set: callers iterate this to rebuild
        # labels, and that iteration order must be deterministic (RPL012)
        return tuple(
            sorted(v for v in affected if 0 <= v < old_graph.num_vertices)
        )
