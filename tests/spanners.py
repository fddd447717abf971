"""Spanner checks for the Section 3 lower-bound construction.

The proof of Theorem 3.1 rests on ``H_{p,d}`` being a 2-spanner of
``G_{p,d}``: any graph between them inherits doubling dimension
``≤ 2d``.  These helpers make the spanner relation checkable for
arbitrary graph pairs; ``tests/test_spanners.py`` applies them to the
family's half-king and king grids.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances


def is_subgraph(graph: Graph, candidate: Graph) -> bool:
    """Whether ``candidate``'s edges are a subset of ``graph``'s (same ids)."""
    if candidate.num_vertices != graph.num_vertices:
        return False
    edges = set(graph.edges())
    return all(edge in edges for edge in candidate.edges())


def spanner_stretch(graph: Graph, candidate: Graph) -> float:
    """The stretch of ``candidate`` as a spanner of ``graph``:
    ``max over edges (u,v) of G of d_candidate(u, v)``.

    (For subgraph spanners, checking edges suffices: any path in ``G``
    dilates by at most the worst edge dilation.)  Returns ``math.inf``
    if some edge's endpoints are disconnected in the candidate.
    """
    if candidate.num_vertices != graph.num_vertices:
        raise GraphError("spanner must be on the same vertex set")
    worst = 1.0
    for u, v in graph.edges():
        # bounded search: stop as soon as v is found
        found = None
        radius = 1
        while found is None and radius <= candidate.num_vertices:
            found = bfs_distances(candidate, u, radius=radius).get(v)
            if found is None and len(
                bfs_distances(candidate, u, radius=radius)
            ) == len(bfs_distances(candidate, u, radius=radius + 1)):
                return math.inf
            radius *= 2
        if found is None:
            return math.inf
        worst = max(worst, float(found))
    return worst


def is_spanner(graph: Graph, candidate: Graph, stretch: float) -> bool:
    """Whether ``candidate`` is an ``s``-spanner of ``graph``:
    a subgraph in which any two ``graph``-adjacent vertices are at
    distance at most ``stretch``."""
    return is_subgraph(graph, candidate) and spanner_stretch(
        graph, candidate
    ) <= stretch
