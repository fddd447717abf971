"""Reference decoder: the object-graph implementation the kernel must match.

This is the original, dict-based statement of the paper's query
procedure (Section 2.1, "Distance Queries"): gather the edges of every
supplied label, keep the safe ones, and run Dijkstra on the sketch
graph ``H``.  Production answers every query with the array kernel of
:mod:`repro.labeling.kernel`; this module exists only so the tests can
check the kernel against an independent, readable implementation:

* :func:`decode_distance` — the reference answer, span tree and
  :class:`QueryError` conditions (differential and metamorphic
  batteries, the routing differential test);
* :func:`build_sketch_graph`, :class:`_ProtectedBalls` and
  :func:`_edge_is_safe` — the sketch graph and the safety rules of
  :mod:`repro.labeling.decoder`, exposed for precision tests;
* :func:`dijkstra_with_paths` — the hash-map Dijkstra over ``H``, whose
  settle order and op counts the kernel's array Dijkstra reproduces;
* :class:`DenseMinHeap` — the free-standing statement of the indexed
  heap the kernel inlines into its Dijkstra loop.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

from repro.exceptions import QueryError
from repro.labeling.label import VertexLabel
from repro.labeling.params import lam_for_level
from repro.labeling.query import FaultSet, QueryResult, check_compatible
from repro.util.pqueue import IndexedMinHeap

if TYPE_CHECKING:
    from repro.obs.trace import Span, Tracer


@dataclass
class _ProtectedBalls:
    """Per-fault, per-level protected-ball membership test.

    ``centers`` holds one label per ball center: one for a faulty vertex,
    the two endpoint labels for a faulty edge.
    """

    centers: tuple[VertexLabel, ...]
    is_edge_fault: bool = False

    def membership(self, level: int, lam: int) -> list[dict[int, int]]:
        """For each center, ``{x: d(center, x)}`` restricted to the ball."""
        result = []
        for center in self.centers:
            level_label = center.levels.get(level)
            if level_label is None:
                result.append({})
                continue
            result.append(
                {x: d for x, d in level_label.points.items() if d <= lam}
            )
        return result


def build_sketch_graph(
    label_s: VertexLabel,
    label_t: VertexLabel,
    faults: FaultSet | None = None,
    tracer: "Tracer | None" = None,
) -> dict[int, list[tuple[int, int]]]:
    """Assemble the sketch graph ``H = H(s, t, F)`` from labels alone.

    Returns an adjacency mapping ``x -> [(y, weight), …]`` over original
    vertex ids.  A ``tracer`` records the pipeline's op counts as
    ``decode.fragment_gather`` / ``decode.safe_edge_filter`` /
    ``decode.sketch_assembly`` spans without changing any answer.
    """
    faults = faults or FaultSet()
    check_compatible([label_s, label_t] + faults.all_labels())

    c = label_s.c
    lowest = c + 1
    forbidden_vertices = faults.forbidden_vertices()
    forbidden_edges = faults.forbidden_edges()
    if label_s.vertex in forbidden_vertices or label_t.vertex in forbidden_vertices:
        raise QueryError("query endpoint is inside the forbidden set")

    ball_groups = [
        _ProtectedBalls(centers=(label,)) for label in faults.vertex_labels
    ] + [
        _ProtectedBalls(centers=(label_a, label_b), is_edge_fault=True)
        for label_a, label_b in faults.edge_labels
    ]

    source_labels = [label_s, label_t] + faults.all_labels()
    # deduplicate labels of repeated vertices (e.g. two faulty edges
    # sharing an endpoint)
    unique_labels = list({label.vertex: label for label in source_labels}.values())

    # protected-ball memberships depend only on (level, fault), not on the
    # label being scanned: compute each once
    membership_cache: dict[int, list[list[dict[int, int]]]] = {}
    membership_hits = 0

    def memberships_for(i: int, lam: int) -> list[list[dict[int, int]]]:
        nonlocal membership_hits
        cached = membership_cache.get(i)
        if cached is None:
            cached = [group.membership(i, lam) for group in ball_groups]
            membership_cache[i] = cached
        else:
            membership_hits += 1
        return cached

    levels_scanned = 0
    edges_listed = 0
    graph_edges_listed = 0
    dropped_forbidden = 0
    dropped_protected = 0
    edge_weights: dict[tuple[int, int], int] = {}
    for label in source_labels:
        levels = sorted(label.levels)
        for i in levels:
            level_label = label.levels[i]
            lam = lam_for_level(i)
            memberships = memberships_for(i, lam)
            owner = label.vertex
            owner_is_net = i == lowest  # at the lowest level N_0 = V(G)
            levels_scanned += 1
            graph_edges_listed += len(level_label.graph_edges)
            edges_listed += len(level_label.edges)
            # graph-edge clause: actual graph edges survive next to faults
            # as long as they are not themselves forbidden
            for (x, y), weight in level_label.graph_edges.items():
                if (
                    x not in forbidden_vertices
                    and y not in forbidden_vertices
                    and (x, y) not in forbidden_edges
                ):
                    prev = edge_weights.get((x, y))
                    if prev is None or weight < prev:
                        edge_weights[(x, y)] = weight
                else:
                    dropped_forbidden += 1
            for (x, y), weight in level_label.edges.items():
                x_checkable = owner_is_net or x != owner
                y_checkable = owner_is_net or y != owner
                if _edge_is_safe(
                    x, y, x_checkable, y_checkable, memberships, ball_groups
                ):
                    prev = edge_weights.get((x, y))
                    if prev is None or weight < prev:
                        edge_weights[(x, y)] = weight
                else:
                    dropped_protected += 1

    adjacency: dict[int, list[tuple[int, int]]] = {
        label.vertex: [] for label in unique_labels
    }
    for (x, y), weight in edge_weights.items():
        adjacency.setdefault(x, []).append((y, weight))
        adjacency.setdefault(y, []).append((x, weight))

    if tracer is not None:
        with tracer.span("decode.fragment_gather") as gather:
            gather.set("labels", len(source_labels))
            gather.set("unique_labels", len(unique_labels))
            gather.set("levels_scanned", levels_scanned)
            gather.set("edges_listed", edges_listed + graph_edges_listed)
        with tracer.span("decode.safe_edge_filter") as filt:
            filt.set("protected_balls", len(ball_groups))
            filt.set("membership_levels_computed", len(membership_cache))
            filt.set("membership_cache_hits", membership_hits)
            filt.set("edges_dropped_protected", dropped_protected)
            filt.set("edges_dropped_forbidden", dropped_forbidden)
        with tracer.span("decode.sketch_assembly") as assembly:
            assembly.set("sketch_vertices", len(adjacency))
            assembly.set("edges_kept", len(edge_weights))
    return adjacency


def _edge_is_safe(
    x: int,
    y: int,
    x_checkable: bool,
    y_checkable: bool,
    memberships: list[list[dict[int, int]]],
    ball_groups: list[_ProtectedBalls],
) -> bool:
    """Apply the protected-ball safety rules of :mod:`repro.labeling.decoder`."""
    for group, balls in zip(ball_groups, memberships):
        if not group.is_edge_fault:
            ball = balls[0]
            x_in = x_checkable and x in ball
            y_in = y_checkable and y in ball
            if x_checkable and y_checkable:
                if x_in and y_in:
                    return False
            else:
                # conservative owner-edge rule: the net endpoint alone decides
                net_in = x_in if x_checkable else y_in
                if net_in:
                    return False
        else:
            ball_a, ball_b = balls
            if x_checkable and y_checkable:
                crossing = (x in ball_a and y in ball_b) or (
                    x in ball_b and y in ball_a
                )
                if crossing:
                    return False
            else:
                net = x if x_checkable else y
                if net in ball_a and net in ball_b:
                    return False
    return True


def decode_distance(
    label_s: VertexLabel,
    label_t: VertexLabel,
    faults: FaultSet | None = None,
    tracer: "Tracer | None" = None,
) -> QueryResult:
    """Reference answer to a forbidden-set distance query.

    Same contract as :func:`repro.labeling.decoder.decode_distance`:
    the distance, sketch path and sizes, the traced span tree and every
    :class:`QueryError` condition.
    """
    faults = faults or FaultSet()
    if label_s.vertex == label_t.vertex:
        if label_s.vertex in faults.forbidden_vertices():
            raise QueryError("query endpoint is inside the forbidden set")
        if tracer is not None:
            with tracer.span("decode") as root:
                root.set("trivial", 1)
                root.set("num_faults", len(faults))
        return QueryResult(
            distance=0, path=(label_s.vertex,), sketch_vertices=0, sketch_edges=0
        )
    root = tracer.start("decode") if tracer is not None else None
    try:
        adjacency = build_sketch_graph(label_s, label_t, faults, tracer=tracer)
        num_edges = sum(len(nbrs) for nbrs in adjacency.values()) // 2
        dijkstra_span = (
            tracer.start("decode.dijkstra") if tracer is not None else None
        )
        try:
            distance, path = dijkstra_with_paths(
                adjacency, label_s.vertex, label_t.vertex, span=dijkstra_span
            )
        finally:
            if dijkstra_span is not None:
                tracer.end(dijkstra_span)
        if root is not None:
            root.set("num_faults", len(faults))
            root.set("sketch_vertices", len(adjacency))
            root.set("sketch_edges", num_edges)
            root.set(
                "reachable", 0 if math.isinf(distance) else 1
            )
    finally:
        if root is not None:
            tracer.end(root)
    if math.isinf(distance):
        return QueryResult(
            distance=math.inf,
            path=(),
            sketch_vertices=len(adjacency),
            sketch_edges=num_edges,
        )
    return QueryResult(
        distance=int(distance),
        path=tuple(path),
        sketch_vertices=len(adjacency),
        sketch_edges=num_edges,
    )


def dijkstra_with_paths(
    adjacency: Mapping[Hashable, Iterable[tuple[Hashable, float]]],
    source: Hashable,
    target: Hashable,
    span: "Span | None" = None,
) -> tuple[float, list[Hashable]]:
    """Dijkstra returning ``(distance, path)`` to ``target``.

    Returns ``(math.inf, [])`` when the target is unreachable.  When a
    tracing ``span`` is supplied, the search's op counts (settled
    nodes, scanned edges, heap updates) are recorded on it — the
    numbers behind the decoder's query-cost envelope.
    """
    dist: dict[Hashable, float] = {}
    parent: dict[Hashable, Hashable] = {}
    heap = IndexedMinHeap()
    heap.push(source, 0)
    nodes_settled = 0
    edges_scanned = 0
    heap_updates = 1  # the initial push
    while heap:
        u, du = heap.pop()
        nodes_settled += 1
        dist[u] = du
        if u == target:
            break
        for v, weight in adjacency.get(u, ()):
            edges_scanned += 1
            if v in dist:
                continue
            if heap.push_or_decrease(v, du + weight):
                heap_updates += 1
                parent[v] = u
    if span is not None:
        span.add("nodes_settled", nodes_settled)
        span.add("edges_scanned", edges_scanned)
        span.add("heap_updates", heap_updates)
    if target not in dist:
        return math.inf, []
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return dist[target], path


class DenseMinHeap:
    """Indexed binary min-heap over dense int items with decrease-key.

    :class:`repro.util.pqueue.IndexedMinHeap` hashes arbitrary items;
    this heap is specialized to dense ids in ``[0, n)``: positions live
    in a plain list and keys/items in two parallel lists.  Its
    comparison semantics are copied from ``IndexedMinHeap`` operation
    for operation (strictly-smaller decrease, ``<=`` sift-up stop,
    smaller *right* child preferred only when strictly smaller), so an
    identical sequence of pushes/decreases/pops pops in the identical
    order, ties included.  The kernel's Dijkstra inlines exactly this
    algorithm; that is what keeps its ``nodes_settled`` /
    ``edges_scanned`` counters equal to :func:`dijkstra_with_paths`'.

    Example
    -------
    >>> h = DenseMinHeap()
    >>> h.reset(4)
    >>> h.push(0, 5)
    >>> h.push(1, 3)
    >>> h.push_or_decrease(0, 1)
    True
    >>> h.pop()
    (0, 1)
    >>> h.pop()
    (1, 3)
    """

    __slots__ = ("_keys", "_items", "_pos", "_size", "_bound")

    def __init__(self) -> None:
        self._keys: list[float] = []
        self._items: list[int] = []
        self._pos: list[int] = []
        self._size = 0
        self._bound = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: int) -> bool:
        return self._pos[item] >= 0

    def reset(self, bound: int) -> None:
        """Empty the heap and make room for items in ``[0, bound)``."""
        pos = self._pos
        have = len(pos)
        for i in range(min(bound, have)):
            pos[i] = -1
        if bound > have:
            pos.extend([-1] * (bound - have))
        self._size = 0
        self._bound = bound

    def key(self, item: int) -> float:
        """Current key of ``item`` (raises ``IndexError`` if absent)."""
        p = self._pos[item]
        if p < 0:
            raise IndexError(f"item {item} not in heap")
        return self._keys[p]

    def push(self, item: int, key: float) -> None:
        """Insert a new item; raises ``ValueError`` if already present."""
        if self._pos[item] >= 0:
            raise ValueError(f"item {item!r} already in heap")
        n = self._size
        if n == len(self._keys):
            self._keys.append(key)
            self._items.append(item)
        else:
            self._keys[n] = key
            self._items[n] = item
        self._pos[item] = n
        self._size = n + 1
        self._sift_up(n)

    def push_or_decrease(self, item: int, key: float) -> bool:
        """Insert ``item`` or lower its key; True if anything changed."""
        p = self._pos[item]
        if p < 0:
            self.push(item, key)
            return True
        if key < self._keys[p]:
            self._keys[p] = key
            self._sift_up(p)
            return True
        return False

    def decrease_key(self, item: int, key: float) -> None:
        """Lower the key of an existing item."""
        p = self._pos[item]
        if p < 0:
            raise IndexError(f"item {item} not in heap")
        if key > self._keys[p]:
            raise ValueError("new key is larger than current key")
        self._keys[p] = key
        self._sift_up(p)

    def pop(self) -> tuple[int, float]:
        """Remove and return ``(item, key)`` with the smallest key."""
        size = self._size
        if not size:
            raise IndexError("pop from empty heap")
        keys = self._keys
        items = self._items
        key = keys[0]
        item = items[0]
        size -= 1
        self._size = size
        self._pos[item] = -1
        if size:
            keys[0] = keys[size]
            items[0] = items[size]
            self._pos[items[0]] = 0
            self._sift_down(0)
        return item, key

    def _sift_up(self, pos: int) -> None:
        keys = self._keys
        items = self._items
        index = self._pos
        key = keys[pos]
        item = items[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if keys[parent] <= key:
                break
            keys[pos] = keys[parent]
            items[pos] = items[parent]
            index[items[pos]] = pos
            pos = parent
        keys[pos] = key
        items[pos] = item
        index[item] = pos

    def _sift_down(self, pos: int) -> None:
        keys = self._keys
        items = self._items
        index = self._pos
        key = keys[pos]
        item = items[pos]
        size = self._size
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and keys[right] < keys[child]:
                child = right
            if keys[child] >= key:
                break
            keys[pos] = keys[child]
            items[pos] = items[child]
            index[items[pos]] = pos
            pos = child
        keys[pos] = key
        items[pos] = item
        index[item] = pos
