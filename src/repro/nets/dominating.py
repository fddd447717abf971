"""Greedy ``r``-dominating sets — the construction behind Fact 1.

Fact 1 (paper): iteratively select any not-yet-covered vertex ``v`` into
``W(r)`` and mark as covered every ``u`` with ``d_G(u, v) < r``.  The
result is an ``r``-dominating set whose members are pairwise at distance
at least ``r``; for unweighted graphs and integral ``r >= 1`` it is even
``(r-1)``-dominating, and every ball ``B(v, R)`` contains at most
``(4R/r)^α`` of its members.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances, multi_source_distances


def greedy_dominating_set(
    graph: Graph, r: int, order: Sequence[int] | None = None
) -> set[int]:
    """The greedy ``W(r)`` of Fact 1.

    ``order`` fixes the candidate scan order (default: increasing vertex
    id), making the construction deterministic.  Every vertex within
    distance ``r - 1`` of a selected vertex is marked covered, so the
    result is an ``(r-1)``-dominating set with pairwise distances >= ``r``.
    """
    if r < 1:
        raise GraphError(f"dominating radius must be >= 1, got {r}")
    scan = order if order is not None else range(graph.num_vertices)
    covered = [False] * graph.num_vertices
    selected: set[int] = set()
    for v in scan:
        if covered[v]:
            continue
        selected.add(v)
        # cover everything at distance < r, i.e. within radius r - 1
        covered[v] = True
        frontier = deque([(v, 0)])
        while frontier:
            u, du = frontier.popleft()
            if du >= r - 1:
                continue
            for w in graph.neighbors(u):
                if not covered[w]:
                    covered[w] = True
                    frontier.append((w, du + 1))
    return selected


def is_r_dominating(graph: Graph, candidates: Iterable[int], r: int) -> bool:
    """Whether every vertex is within distance ``r`` of the candidate set.

    Isolated vertices must themselves be candidates.  Runs one
    multi-source BFS.
    """
    members = set(candidates)
    if not members:
        return graph.num_vertices == 0
    dist = multi_source_distances(graph, members, radius=r)
    return len(dist) == graph.num_vertices


def min_pairwise_distance_at_least(
    graph: Graph, candidates: Iterable[int], r: int
) -> bool:
    """Whether all pairs of candidates are at distance >= ``r``."""
    members = set(candidates)
    for v in members:
        ball = bfs_distances(graph, v, radius=r - 1)
        for u in ball:
            if u != v and u in members:
                return False
    return True
