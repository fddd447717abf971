"""Weighted graphs (extension beyond the paper's unweighted setting).

The paper states its theorems for unweighted graphs, but its motivating
application — road networks with travel times — is weighted, and Fact 1
is explicitly proved for weighted graphs ("If G is unweighted and
integral r >= 1, W(r) is even (r-1)-dominating" — the weighted statement
is the r-dominating one).  This module provides the weighted substrate;
:mod:`repro.labeling.weighted` builds the corresponding scheme.

Edge weights are positive integers (quantize real travel times as
needed); all distances then stay integral, as the label codec expects.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.util.pqueue import IndexedMinHeap


class WeightedGraph:
    """Undirected graph with positive integer edge weights.

    Example
    -------
    >>> g = WeightedGraph(3)
    >>> g.add_edge(0, 1, 5)
    >>> g.add_edge(1, 2, 2)
    >>> g.neighbors(1)
    [(0, 5), (2, 2)]
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise GraphError(f"number of vertices must be >= 0, got {num_vertices}")
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
        self._num_edges = 0

    # -- construction ---------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: int) -> None:
        """Insert the edge ``(u, v)`` with a positive integer weight."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not isinstance(weight, int) or weight < 1:
            raise GraphError(f"weight must be a positive integer, got {weight!r}")
        if any(n == v for n, _ in self._adj[u]):
            raise GraphError(f"duplicate edge ({u}, {v})")
        self._adj[u].append((v, weight))
        self._adj[v].append((u, weight))
        self._num_edges += 1

    @classmethod
    def from_unweighted(cls, graph: Graph, weight: int = 1) -> "WeightedGraph":
        """Lift an unweighted graph with a uniform weight."""
        g = cls(graph.num_vertices)
        for u, v in graph.edges():
            g.add_edge(u, v, weight)
        return g

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[tuple[int, int, int]]
    ) -> "WeightedGraph":
        """Build from ``(u, v, weight)`` triples."""
        g = cls(num_vertices)
        for u, v, w in edges:
            g.add_edge(u, v, w)
        return g

    # -- inspection -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    def vertices(self) -> range:
        """All vertex ids."""
        return range(len(self._adj))

    def neighbors(self, u: int) -> list[tuple[int, int]]:
        """``[(neighbor, weight), …]`` (callers must not mutate)."""
        self._check_vertex(u)
        return self._adj[u]

    def edges(self) -> Iterable[tuple[int, int, int]]:
        """Each edge once, as ``(min, max, weight)``."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs:
                if u < v:
                    yield (u, v, w)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return any(n == v for n, _ in self._adj[u])

    # -- ports (compact-routing interface model) ---------------------------

    def port_to(self, u: int, v: int) -> int:
        """Index of ``v`` in ``u``'s adjacency list (the out-port)."""
        self._check_vertex(u)
        for port, (neighbor, _) in enumerate(self._adj[u]):
            if neighbor == v:
                return port
        raise GraphError(f"no edge ({u}, {v})")

    def neighbor_by_port(self, u: int, port: int) -> int:
        """The neighbor reached from ``u`` through out-port ``port``."""
        self._check_vertex(u)
        if not 0 <= port < len(self._adj[u]):
            raise GraphError(f"vertex {u} has no port {port}")
        return self._adj[u][port][0]

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of the edge ``(u, v)``."""
        self._check_vertex(u)
        for neighbor, weight in self._adj[u]:
            if neighbor == v:
                return weight
        raise GraphError(f"no edge ({u}, {v})")

    def max_weight(self) -> int:
        """The largest edge weight (1 for edgeless graphs)."""
        return max((w for _, _, w in self.edges()), default=1)

    def distance_upper_bound(self) -> int:
        """A crude upper bound on any finite distance: ``n · max_weight``."""
        return max(1, (self.num_vertices - 1)) * self.max_weight()

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.num_vertices}, m={self.num_edges})"

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise GraphError(f"vertex {u} out of range [0, {len(self._adj)})")


def weighted_distances(
    graph: WeightedGraph, source: int, radius: int | None = None
) -> dict[int, int]:
    """Dijkstra distances from ``source``, optionally truncated at ``radius``.

    The weighted analogue of :func:`repro.graphs.traversal.bfs_distances`.
    """
    dist: dict[int, int] = {}
    heap = IndexedMinHeap()
    heap.push(source, 0)
    while heap:
        u, du = heap.pop()
        dist[u] = int(du)
        for v, weight in graph.neighbors(u):
            if v in dist:
                continue
            dv = du + weight
            if radius is not None and dv > radius:
                continue
            heap.push_or_decrease(v, dv)
    return dist


def weighted_distances_avoiding(
    graph: WeightedGraph,
    source: int,
    forbidden_vertices: Iterable[int] = (),
    forbidden_edges: Iterable[tuple[int, int]] = (),
) -> dict[int, int]:
    """Dijkstra on ``G \\ F`` without materializing the subgraph."""
    gone_v = set(forbidden_vertices)
    gone_e = {(min(a, b), max(a, b)) for a, b in forbidden_edges}
    if source in gone_v:
        return {}
    dist: dict[int, int] = {}
    heap = IndexedMinHeap()
    heap.push(source, 0)
    while heap:
        u, du = heap.pop()
        dist[u] = int(du)
        for v, weight in graph.neighbors(u):
            if v in dist or v in gone_v:
                continue
            if gone_e and (min(u, v), max(u, v)) in gone_e:
                continue
            heap.push_or_decrease(v, du + weight)
    return dist


def weighted_first_hops(
    graph: WeightedGraph, source: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Dijkstra distances plus, per reached vertex, the *first hop*: the
    neighbor of ``source`` on a weighted shortest path to it.

    The weighted analogue of :func:`repro.graphs.traversal.bfs_first_hops`;
    used by the weighted routing tables.
    """
    dist: dict[int, int] = {}
    first_hop: dict[int, int] = {}
    pending_hop: dict[int, int] = {}
    heap = IndexedMinHeap()
    heap.push(source, 0)
    while heap:
        u, du = heap.pop()
        dist[u] = int(du)
        if u != source:
            first_hop[u] = pending_hop[u]
        for v, weight in graph.neighbors(u):
            if v in dist:
                continue
            if heap.push_or_decrease(v, du + weight):
                pending_hop[v] = v if u == source else pending_hop[u]
    return dist, first_hop


def multi_source_weighted_distances(
    graph: WeightedGraph, sources: set[int]
) -> dict[int, tuple[int, int]]:
    """For every reachable vertex, ``(nearest source, distance)``.

    Ties broken deterministically by pushing sources in increasing id.
    """
    result: dict[int, tuple[int, int]] = {}
    heap = IndexedMinHeap()
    owner: dict[int, int] = {}
    for s in sorted(sources):
        heap.push(s, 0)
        owner[s] = s
    while heap:
        u, du = heap.pop()
        result[u] = (owner[u], int(du))
        for v, weight in graph.neighbors(u):
            if v in result:
                continue
            if heap.push_or_decrease(v, du + weight):
                owner[v] = owner[u]
    return result


def log2_ceil(value: int) -> int:
    """``⌈log₂(value)⌉`` for positive integers (0 for value 1)."""
    if value < 1:
        raise GraphError(f"log2_ceil needs a positive value, got {value}")
    return max(0, math.ceil(math.log2(value)))
