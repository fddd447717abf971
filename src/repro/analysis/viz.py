"""ASCII rendering of grid instances — routes, faults, protected balls.

Purely presentational (examples and debugging): renders a 2-d grid graph
with markers for the source, target, forbidden set and a route, plus a
legend.  Non-grid graphs are out of scope — the renderer needs the
width × height embedding.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import GraphError
from repro.graphs.generators import grid_index


def render_grid(
    width: int,
    height: int,
    source: int | None = None,
    target: int | None = None,
    faults: Iterable[int] = (),
    route: Sequence[int] = (),
    highlight: Iterable[int] = (),
) -> str:
    """Render a ``width × height`` grid instance as ASCII art.

    Markers (in priority order): ``S`` source, ``T`` target, ``X`` fault,
    ``o`` route vertex, ``+`` highlighted vertex, ``.`` other.
    """
    if width < 1 or height < 1:
        raise GraphError(f"invalid grid shape ({width}, {height})")
    n = width * height
    fault_set = set(faults)
    route_set = set(route)
    highlight_set = set(highlight)
    for v in (
        ([source] if source is not None else [])
        + ([target] if target is not None else [])
        + list(fault_set | route_set | highlight_set)
    ):
        if not 0 <= v < n:
            raise GraphError(f"vertex {v} outside the {width}x{height} grid")

    def marker(v: int) -> str:
        if v == source:
            return "S"
        if v == target:
            return "T"
        if v in fault_set:
            return "X"
        if v in route_set:
            return "o"
        if v in highlight_set:
            return "+"
        return "."

    dims = (width, height)
    rows = []
    for y in range(height - 1, -1, -1):  # y grows upward
        cells = []
        for x in range(width):
            cells.append(marker(grid_index((x, y), dims)))
        rows.append(" ".join(cells))
    legend = "S=source T=target X=fault o=route +=highlight .=vertex"
    return "\n".join(rows + ["", legend])
