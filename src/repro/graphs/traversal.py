"""Shortest-path primitives: BFS variants and Dijkstra.

BFS is the workhorse of the whole reproduction — net construction, label
materialization and the exact baseline all reduce to (bounded) BFS on the
unweighted input graph.  :func:`dijkstra` serves weighted adjacency
mappings; the decoder runs its own array Dijkstra on the sketch graph
``H`` (see :mod:`repro.labeling.kernel.engine`).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping

from repro.graphs.graph import Graph
from repro.util.pqueue import IndexedMinHeap


def bfs_distances(
    graph: Graph, source: int, radius: int | None = None
) -> dict[int, int]:
    """Distances from ``source`` to every vertex within ``radius`` hops.

    ``radius=None`` explores the whole connected component.  The source
    itself is always included with distance 0.
    """
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                frontier.append(v)
    return dist


def multi_source_distances(
    graph: Graph, sources: Iterable[int], radius: int
) -> dict[int, int]:
    """Distances to every vertex within ``radius`` hops of any source.

    One BFS from all ``sources`` at once (each at distance 0), expanded
    in sorted source order.
    """
    dist: dict[int, int] = {s: 0 for s in sorted(sources)}
    frontier = deque(dist)
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                frontier.append(v)
    return dist


def bfs_distances_avoiding(
    graph: Graph,
    source: int,
    forbidden_vertices: Iterable[int] = (),
    forbidden_edges: Iterable[tuple[int, int]] = (),
    radius: int | None = None,
) -> dict[int, int]:
    """BFS distances in ``G \\ F`` without materializing the subgraph.

    Used by the exact recompute baseline; a forbidden source yields an
    empty result.
    """
    gone_v = set(forbidden_vertices)
    gone_e: set[tuple[int, int]] = set()
    for a, b in forbidden_edges:
        gone_e.add((min(a, b), max(a, b)))
    if source in gone_v:
        return {}
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v in dist or v in gone_v:
                continue
            if gone_e and (min(u, v), max(u, v)) in gone_e:
                continue
            dist[v] = du + 1
            frontier.append(v)
    return dist


def bfs_parents(
    graph: Graph, source: int, radius: int | None = None
) -> tuple[dict[int, int], dict[int, int]]:
    """BFS distances plus a shortest-path-tree parent map.

    Returns ``(dist, parent)``; the source has no parent entry.
    """
    dist = {source: 0}
    parent: dict[int, int] = {}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                parent[v] = u
                frontier.append(v)
    return dist, parent


def bfs_first_hops(
    graph: Graph, source: int, radius: int | None = None
) -> tuple[dict[int, int], dict[int, int]]:
    """BFS distances plus, for every reached vertex ``x``, the *first hop*:
    the neighbor of ``source`` on a shortest path ``source -> x``.

    This is exactly what the routing scheme of Theorem 2.7 stores: from
    the first hop we derive the out-port on a shortest path toward ``x``.
    The source has no first-hop entry.
    """
    dist = {source: 0}
    first_hop: dict[int, int] = {}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                first_hop[v] = v if u == source else first_hop[u]
                frontier.append(v)
    return dist, first_hop


def shortest_path(graph: Graph, source: int, target: int) -> list[int] | None:
    """One shortest ``source -> target`` path, or ``None`` if disconnected."""
    if source == target:
        return [source]
    dist, parent = bfs_parents(graph, source)
    if target not in dist:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def eccentricity(graph: Graph, source: int) -> int:
    """Largest BFS distance from ``source`` within its component."""
    dist = bfs_distances(graph, source)
    return max(dist.values())


def dijkstra(
    adjacency: Mapping[Hashable, Iterable[tuple[Hashable, float]]],
    source: Hashable,
    target: Hashable | None = None,
) -> dict[Hashable, float]:
    """Dijkstra over an adjacency mapping ``u -> [(v, weight), ...]``.

    Works on arbitrary hashable vertex ids — the decoder's sketch graph
    mixes original vertex ids and net-points.  If ``target`` is given the
    search stops as soon as the target is settled.  Unreachable vertices
    are simply absent from the result.
    """
    dist: dict[Hashable, float] = {}
    heap = IndexedMinHeap()
    heap.push(source, 0)
    while heap:
        u, du = heap.pop()
        dist[u] = du
        if u == target:
            break
        for v, weight in adjacency.get(u, ()):
            if v in dist:
                continue
            if weight < 0:
                raise ValueError(f"negative edge weight {weight} on ({u}, {v})")
            heap.push_or_decrease(v, du + weight)
    return dist
