"""Graph families only the tests use: stars, cliques, caterpillars and
holed grids.

Stars and complete graphs have a doubling dimension that grows with
``n`` (the scheme stays correct, only its bounds degrade); a grid with
rectangular holes forces detours.  The library's generators are in
:mod:`repro.graphs.generators`.
"""

from repro.exceptions import GraphError
from repro.graphs.generators import grid_graph, grid_index
from repro.graphs.graph import Graph


def star_graph(n_leaves: int) -> Graph:
    """A star with center 0 and ``n_leaves`` leaves."""
    g = Graph(n_leaves + 1)
    for leaf in range(1, n_leaves + 1):
        g.add_edge(0, leaf)
    return g


def caterpillar(spine_length: int, legs_per_vertex: int) -> Graph:
    """A caterpillar tree: a path spine with pendant legs (α close to 1)."""
    n = spine_length * (1 + legs_per_vertex)
    g = Graph(n)
    for u in range(spine_length - 1):
        g.add_edge(u, u + 1)
    next_id = spine_length
    for u in range(spine_length):
        for _ in range(legs_per_vertex):
            g.add_edge(u, next_id)
            next_id += 1
    return g


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n`` (a stress case: α = Θ(log n) is irrelevant,
    its diameter is 1 so the hierarchy collapses)."""
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def grid_with_obstacles(
    width: int,
    height: int,
    obstacles: list[tuple[int, int, int, int]],
) -> Graph:
    """A 2-d grid with rectangular holes ``(x0, y0, x1, y1)`` (inclusive).

    Obstacle vertices remain in the id space but are isolated, as in
    :meth:`Graph.subgraph_without`.  Holes force detours, so shortest
    paths are far from unique — useful for stressing the decoder's
    choice of net-points.
    """
    dims = (width, height)
    removed = set()
    for x0, y0, x1, y1 in obstacles:
        if not (0 <= x0 <= x1 < width and 0 <= y0 <= y1 < height):
            raise GraphError(f"obstacle ({x0},{y0},{x1},{y1}) outside grid")
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                removed.add(grid_index((x, y), dims))
    return grid_graph(width, height).subgraph_without(removed_vertices=removed)
