"""Tests for the ASCII grid renderer."""

import pytest

from repro.analysis.viz import render_grid
from repro.exceptions import GraphError


class TestRenderGrid:
    def test_basic_markers(self):
        art = render_grid(3, 3, source=0, target=8, faults=[4], route=[0, 1, 2, 5, 8])
        lines = art.splitlines()
        assert len(lines) == 3 + 2  # rows + blank + legend
        body = "\n".join(lines[:3])
        assert "S" in body and "T" in body and "X" in body and "o" in body

    def test_marker_priority(self):
        # a vertex that is both on the route and faulty renders as fault
        art = render_grid(2, 2, faults=[1], route=[1])
        body = art.splitlines()[:2]
        assert sum(row.count("X") for row in body) == 1
        assert all("o" not in row for row in body)

    def test_geometry(self):
        # source at (0,0) must be bottom-left: last body row, first cell
        art = render_grid(3, 2, source=0)
        body = art.splitlines()[:2]
        assert body[1][0] == "S"

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            render_grid(2, 2, faults=[9])

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphError):
            render_grid(0, 3)

    def test_highlight(self):
        art = render_grid(2, 2, highlight=[3])
        assert "+" in art
