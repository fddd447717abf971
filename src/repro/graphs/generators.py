"""Graph generators used by tests, examples and the experiment harness.

Three groups:

* **bounded-doubling families** the scheme is designed for — paths,
  cycles, trees, ``d``-dimensional grids and tori, random geometric
  graphs, and "road-like" perturbed grids mimicking the road networks the
  paper's applications section motivates;
* **lower-bound constructions of Section 3** — the king-move grid
  ``G_{p,d}`` (Chebyshev adjacency) and its 2-spanner ``H_{p,d}``,
  plus samplers for the family ``F_{n,α}`` of graphs between them;
* **stress cases** — hypercubes, whose doubling dimension grows with
  ``n`` (the scheme stays correct, only the bounds degrade).
"""

from __future__ import annotations

import itertools
import math

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.util.rng import RngLike, make_rng


# ---------------------------------------------------------------------------
# elementary families
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    """The path ``P_n`` (doubling dimension 1)."""
    g = Graph(n)
    for u in range(n - 1):
        g.add_edge(u, u + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n`` (doubling dimension 1); requires ``n >= 3``."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def balanced_tree(branching: int, height: int) -> Graph:
    """A complete ``branching``-ary tree of the given height (root = 0)."""
    if branching < 1 or height < 0:
        raise GraphError("branching >= 1 and height >= 0 required")
    num_vertices = 1
    level_size = 1
    for _ in range(height):
        level_size *= branching
        num_vertices += level_size
    g = Graph(num_vertices)
    next_id = 1
    frontier = [0]
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                g.add_edge(parent, next_id)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return g


def random_tree(n: int, seed: RngLike = None) -> Graph:
    """A uniformly random labeled tree via a random Prüfer-like attachment.

    Each vertex ``v >= 1`` attaches to a uniformly random earlier vertex,
    which yields a random recursive tree (not uniform over all labeled
    trees, but well-spread and cheap; adequate for workloads).
    """
    rng = make_rng(seed)
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))
    return g


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def grid_index(coords: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Row-major index of a coordinate tuple inside a grid of shape ``dims``."""
    index = 0
    for coordinate, size in zip(coords, dims):
        if not 0 <= coordinate < size:
            raise GraphError(f"coordinate {coords} outside grid {dims}")
        index = index * size + coordinate
    return index


def grid_graph(*dims: int) -> Graph:
    """Axis-aligned grid of shape ``dims`` (doubling dimension ≈ len(dims)).

    ``grid_graph(w, h)`` is the standard 2-d grid; any dimension works.
    """
    if not dims or any(size < 1 for size in dims):
        raise GraphError(f"invalid grid shape {dims}")
    n = math.prod(dims)
    g = Graph(n)
    for coords in itertools.product(*(range(size) for size in dims)):
        u = grid_index(coords, dims)
        for axis, size in enumerate(dims):
            if coords[axis] + 1 < size:
                nxt = list(coords)
                nxt[axis] += 1
                g.add_edge(u, grid_index(tuple(nxt), dims))
    return g


def torus_graph(*dims: int) -> Graph:
    """Grid with wraparound in every axis; every axis needs length >= 3."""
    if not dims or any(size < 3 for size in dims):
        raise GraphError(f"torus needs every axis >= 3, got {dims}")
    n = math.prod(dims)
    g = Graph(n)
    for coords in itertools.product(*(range(size) for size in dims)):
        u = grid_index(coords, dims)
        for axis, size in enumerate(dims):
            nxt = list(coords)
            nxt[axis] = (coords[axis] + 1) % size
            v = grid_index(tuple(nxt), dims)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# geometric / road-like graphs (the paper's motivating application domain)
# ---------------------------------------------------------------------------

def random_geometric_graph(
    n: int, radius: float, seed: RngLike = None
) -> tuple[Graph, list[tuple[float, float]]]:
    """Random geometric graph in the unit square (doubling dimension ≈ 2).

    Returns ``(graph, positions)``.  Uses a cell grid so construction is
    near-linear.  The graph may be disconnected for small radii; callers
    that need connectivity can retry or take the largest component.
    """
    rng = make_rng(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    g = Graph(n)
    cell = max(radius, 1e-9)
    buckets: dict[tuple[int, int], list[int]] = {}
    for index, (x, y) in enumerate(points):
        buckets.setdefault((int(x / cell), int(y / cell)), []).append(index)
    r2 = radius * radius
    for (cx, cy), members in buckets.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                others = buckets.get((cx + dx, cy + dy))
                if not others:
                    continue
                for u in members:
                    ux, uy = points[u]
                    for v in others:
                        if v <= u:
                            continue
                        vx, vy = points[v]
                        if (ux - vx) ** 2 + (uy - vy) ** 2 <= r2:
                            g.add_edge(u, v)
    return g, points


def road_like_graph(
    width: int,
    height: int,
    removal_fraction: float = 0.1,
    diagonal_fraction: float = 0.05,
    seed: RngLike = None,
) -> Graph:
    """A synthetic road network: a 2-d grid with random street removals and
    occasional diagonal shortcuts, kept connected.

    Stands in for the real road networks of the paper's applications
    section (low highway dimension implies low doubling dimension); the
    perturbations break grid symmetry so shortest paths are non-trivial.
    """
    if not 0 <= removal_fraction < 1:
        raise GraphError("removal_fraction must be in [0, 1)")
    rng = make_rng(seed)
    dims = (width, height)
    g = grid_graph(width, height)
    # random diagonals first (they only help connectivity)
    for x in range(width - 1):
        for y in range(height - 1):
            if rng.random() < diagonal_fraction:
                g.add_edge(grid_index((x, y), dims), grid_index((x + 1, y + 1), dims))
    # remove a fraction of edges, skipping removals that disconnect
    edges = list(g.edges())
    rng.shuffle(edges)
    target_removals = int(removal_fraction * len(edges))
    removed: list[tuple[int, int]] = []
    from repro.graphs.components import is_connected  # local import: avoid cycle

    for edge in edges:
        if len(removed) >= target_removals:
            break
        candidate = g.subgraph_without(removed_edges=removed + [edge])
        if is_connected(candidate):
            removed.append(edge)
    return g.subgraph_without(removed_edges=removed)


def cylinder_graph(length: int, circumference: int) -> Graph:
    """A long thin cylinder: a ``length × circumference`` grid wrapped in
    the second axis (doubling dimension ≈ 2 locally, diameter ≈ length).

    The go-to family for *observing* the scheme's approximation: its
    diameter dwarfs the paper's smallest ball radius ``r_{c+1}`` (88 at
    ``ε = 1``, 48 at ``ε ≥ 1.5``), so sketch paths must use high hierarchy levels and pay the
    net-snapping detours (experiment E13).
    """
    if length < 2 or circumference < 3:
        raise GraphError(
            f"cylinder needs length >= 2 and circumference >= 3, got "
            f"({length}, {circumference})"
        )
    dims = (length, circumference)
    g = Graph(length * circumference)
    for x in range(length):
        for y in range(circumference):
            u = grid_index((x, y), dims)
            if x + 1 < length:
                g.add_edge(u, grid_index((x + 1, y), dims))
            v = grid_index((x, (y + 1) % circumference), dims)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# Section 3 lower-bound constructions
# ---------------------------------------------------------------------------

def king_grid(p: int, d: int) -> Graph:
    """The graph ``G_{p,d}`` of Section 3: vertices ``{0..p-1}^d``, edges
    between tuples at Chebyshev distance exactly 1 (``max_i |x_i-y_i| = 1``).

    Its doubling dimension is at most ``d``; for ``d = 2`` this is the
    king-move chessboard graph.
    """
    _check_grid_params(p, d)
    dims = (p,) * d
    n = p**d
    g = Graph(n)
    offsets = [
        delta
        for delta in itertools.product((-1, 0, 1), repeat=d)
        if any(delta)
    ]
    for coords in itertools.product(range(p), repeat=d):
        u = grid_index(coords, dims)
        for delta in offsets:
            nxt = tuple(c + o for c, o in zip(coords, delta))
            if any(not 0 <= c < p for c in nxt):
                continue
            v = grid_index(nxt, dims)
            if v > u:
                g.add_edge(u, v)
    return g


def half_king_grid(p: int, d: int) -> Graph:
    """The graph ``H_{p,d}`` of Section 3: same vertices as ``G_{p,d}``,
    edges where additionally ``sum_i |x_i - y_i| <= d/2``.

    ``H_{p,d}`` is a 2-spanner of ``G_{p,d}`` and has at most half its
    edges; the family ``F_{n,α}`` consists of all graphs between the two.
    Requires even ``d >= 2`` as in the paper.
    """
    _check_grid_params(p, d)
    if d % 2 != 0:
        raise GraphError(f"H_(p,d) requires even d, got {d}")
    dims = (p,) * d
    n = p**d
    g = Graph(n)
    offsets = [
        delta
        for delta in itertools.product((-1, 0, 1), repeat=d)
        if any(delta) and sum(abs(o) for o in delta) <= d // 2
    ]
    for coords in itertools.product(range(p), repeat=d):
        u = grid_index(coords, dims)
        for delta in offsets:
            nxt = tuple(c + o for c, o in zip(coords, delta))
            if any(not 0 <= c < p for c in nxt):
                continue
            v = grid_index(nxt, dims)
            if v > u:
                g.add_edge(u, v)
    return g


def sample_family_graph(p: int, d: int, seed: RngLike = None) -> Graph:
    """A uniform sample from the family ``F_{n,α}`` (α = 2d) of Section 3:
    ``H_{p,d}`` plus an independent coin flip for every edge of
    ``G_{p,d} \\ H_{p,d}``."""
    rng = make_rng(seed)
    base = half_king_grid(p, d)
    g = king_grid(p, d)
    sampled = base.copy()
    base_edges = set(base.edges())
    for edge in g.edges():
        if edge not in base_edges and rng.random() < 0.5:
            sampled.add_edge(*edge)
    return sampled


def sierpinski_graph(depth: int) -> Graph:
    """The Sierpinski gasket graph of the given subdivision depth.

    A self-similar family with non-integer doubling dimension
    (``log₂ 3 ≈ 1.585``), sitting strictly between paths (α ≈ 1) and
    grids (α ≈ 2) — useful for probing the α-dependence of the scheme.
    ``depth = 0`` is a triangle; each level replaces every triangle by
    three corner copies.  The graph has ``3(3^depth + 1)/2`` vertices.
    """
    if depth < 0:
        raise GraphError(f"depth must be >= 0, got {depth}")
    side = 1 << depth
    ids: dict[tuple[int, int], int] = {}
    edges: set[tuple[int, int]] = set()

    def vertex(point: tuple[int, int]) -> int:
        if point not in ids:
            ids[point] = len(ids)
        return ids[point]

    def subdivide(a, b, c, size):
        if size == 1:
            u, v, w = vertex(a), vertex(b), vertex(c)
            for x, y in ((u, v), (u, w), (v, w)):
                edges.add((min(x, y), max(x, y)))
            return
        half = size // 2
        ab = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
        ac = ((a[0] + c[0]) // 2, (a[1] + c[1]) // 2)
        bc = ((b[0] + c[0]) // 2, (b[1] + c[1]) // 2)
        subdivide(a, ab, ac, half)
        subdivide(ab, b, bc, half)
        subdivide(ac, bc, c, half)

    subdivide((0, 0), (side, 0), (0, side), side)
    g = Graph(len(ids))
    g.add_edges(sorted(edges))
    return g


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-cube (a stress case: doubling dimension Θ(dimension))."""
    n = 1 << dimension
    g = Graph(n)
    for u in range(n):
        for bit in range(dimension):
            v = u ^ (1 << bit)
            if v > u:
                g.add_edge(u, v)
    return g


def _check_grid_params(p: int, d: int) -> None:
    if p < 2 or d < 1:
        raise GraphError(f"grid requires p >= 2 and d >= 1, got p={p}, d={d}")
