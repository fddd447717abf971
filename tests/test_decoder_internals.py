"""Precision tests of the decoder's internal safety machinery.

These pin down the exact semantics of the protected-ball rules
(documented in ``labeling/decoder.py``) with hand-built labels, rather
than going through the full construction.  The rules are checked on
the reference decoder (``tests/reference_decoder.py``), which states
them one clause at a time; the hand-built sketches also run through
the production decoder.
"""

import math

import pytest

from repro.labeling.decoder import FaultSet, decode_distance as production_decode
from repro.labeling.label import LevelLabel, VertexLabel
from tests.reference_decoder import (
    _ProtectedBalls,
    _edge_is_safe,
    build_sketch_graph,
    decode_distance,
)


def make_label(vertex, levels_spec, c=2, top=4):
    """levels_spec: {level: (points, edges, graph_edges)}."""
    label = VertexLabel(vertex=vertex, epsilon=1.0, c=c, top_level=top)
    for level, (points, edges, graph_edges) in levels_spec.items():
        label.levels[level] = LevelLabel(
            level=level, points=dict(points), edges=dict(edges),
            graph_edges=dict(graph_edges),
        )
    return label


class TestProtectedBalls:
    def test_membership_restricted_to_lambda(self):
        fault = make_label(9, {3: ({9: 0, 1: 5, 2: 30}, {}, {})})
        group = _ProtectedBalls(centers=(fault,))
        (ball,) = group.membership(3, lam=16)
        assert ball == {9: 0, 1: 5}  # 2 is beyond lambda

    def test_missing_level_is_empty(self):
        fault = make_label(9, {3: ({9: 0}, {}, {})})
        group = _ProtectedBalls(centers=(fault,))
        (ball,) = group.membership(4, lam=32)
        assert ball == {}


class TestEdgeSafety:
    def _vertex_group(self, ball):
        return [_ProtectedBalls(centers=())], [[ball]]

    def test_net_net_both_inside_excluded(self):
        groups = [_ProtectedBalls(centers=(), is_edge_fault=False)]
        memberships = [[{1: 3, 2: 4}]]
        assert not _edge_is_safe(1, 2, True, True, memberships, groups)

    def test_net_net_one_outside_survives(self):
        groups = [_ProtectedBalls(centers=(), is_edge_fault=False)]
        memberships = [[{1: 3}]]  # 2 outside
        assert _edge_is_safe(1, 2, True, True, memberships, groups)

    def test_owner_edge_net_endpoint_inside_excluded(self):
        groups = [_ProtectedBalls(centers=(), is_edge_fault=False)]
        memberships = [[{2: 4}]]  # net endpoint 2 inside; owner 1 unknowable
        assert not _edge_is_safe(1, 2, False, True, memberships, groups)

    def test_owner_edge_net_endpoint_outside_survives(self):
        groups = [_ProtectedBalls(centers=(), is_edge_fault=False)]
        memberships = [[{7: 1}]]
        assert _edge_is_safe(1, 2, False, True, memberships, groups)

    def test_edge_fault_crossing_pattern_excluded(self):
        groups = [_ProtectedBalls(centers=(), is_edge_fault=True)]
        memberships = [[{1: 3}, {2: 3}]]  # x in PB(a), y in PB(b)
        assert not _edge_is_safe(1, 2, True, True, memberships, groups)

    def test_edge_fault_same_side_survives(self):
        groups = [_ProtectedBalls(centers=(), is_edge_fault=True)]
        memberships = [[{1: 3, 2: 4}, {}]]  # both near a, neither near b
        assert _edge_is_safe(1, 2, True, True, memberships, groups)

    def test_edge_fault_owner_edge_needs_both_balls(self):
        groups = [_ProtectedBalls(centers=(), is_edge_fault=True)]
        memberships = [[{2: 3}, {2: 4}]]  # net endpoint inside both
        assert not _edge_is_safe(1, 2, False, True, memberships, groups)
        memberships = [[{2: 3}, {}]]  # inside only one
        assert _edge_is_safe(1, 2, False, True, memberships, groups)

    def test_multiple_faults_any_exclusion_wins(self):
        groups = [
            _ProtectedBalls(centers=(), is_edge_fault=False),
            _ProtectedBalls(centers=(), is_edge_fault=False),
        ]
        memberships = [[{}], [{1: 1, 2: 1}]]
        assert not _edge_is_safe(1, 2, True, True, memberships, groups)


def decode_both(label_s, label_t, faults=None):
    """The reference answer, after checking the production decoder agrees."""
    expected = decode_distance(label_s, label_t, faults)
    assert production_decode(label_s, label_t, faults) == expected
    return expected


class TestHandBuiltSketch:
    """A miniature instance assembled by hand: path 0-1-2-3-4 plus labels
    containing exactly controlled content."""

    def setup_method(self):
        # lowest level (c=2 -> level 3) with graph edges of the path
        chain = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1}
        points = {v: abs(v) for v in range(5)}
        self.label_s = make_label(
            0, {3: ({0: 0, 1: 1, 2: 2, 3: 3, 4: 4}, dict(chain), dict(chain))}
        )
        self.label_t = make_label(
            4, {3: ({0: 4, 1: 3, 2: 2, 3: 1, 4: 0}, dict(chain), dict(chain))}
        )

    def test_no_faults_distance(self):
        result = decode_both(self.label_s, self.label_t)
        assert result.distance == 4
        assert result.path == (0, 1, 2, 3, 4)

    def test_vertex_fault_disconnects(self):
        fault = make_label(2, {3: ({0: 2, 1: 1, 2: 0, 3: 1, 4: 2}, {}, {})})
        result = decode_both(
            self.label_s, self.label_t, FaultSet(vertex_labels=[fault])
        )
        assert math.isinf(result.distance)

    def test_edge_fault_disconnects(self):
        fa = make_label(2, {3: ({2: 0}, {}, {})})
        fb = make_label(3, {3: ({3: 0}, {}, {})})
        result = decode_both(
            self.label_s, self.label_t, FaultSet(edge_labels=[(fa, fb)])
        )
        assert math.isinf(result.distance)

    def test_virtual_edge_bypasses_when_outside_balls(self):
        # add a long virtual edge (0,4) at a higher level; a fault at 2
        # with a small protected ball must not exclude it when both
        # endpoints are outside the ball
        self.label_s.levels[4] = LevelLabel(
            level=4, points={0: 0, 4: 4}, edges={(0, 4): 4}, graph_edges={}
        )
        self.label_t.levels[4] = LevelLabel(
            level=4, points={0: 4, 4: 0}, edges={(0, 4): 4}, graph_edges={}
        )
        fault = make_label(
            2,
            {
                3: ({0: 2, 1: 1, 2: 0, 3: 1, 4: 2}, {}, {}),
                4: ({2: 0}, {}, {}),  # level-4 ball: 0 and 4 not listed
            },
        )
        result = decode_both(
            self.label_s, self.label_t, FaultSet(vertex_labels=[fault])
        )
        assert result.distance == 4  # the virtual edge survives

    def test_virtual_edge_excluded_when_both_inside(self):
        self.label_s.levels[4] = LevelLabel(
            level=4, points={0: 0, 4: 4}, edges={(0, 4): 4}, graph_edges={}
        )
        fault = make_label(
            2,
            {
                3: ({0: 2, 1: 1, 2: 0, 3: 1, 4: 2}, {}, {}),
                4: ({2: 0, 0: 2, 4: 2}, {}, {}),  # both endpoints inside PB
            },
        )
        result = decode_both(
            self.label_s, self.label_t, FaultSet(vertex_labels=[fault])
        )
        assert math.isinf(result.distance)


class TestFaultSetHelpers:
    def test_len_and_ids(self):
        a = make_label(1, {})
        b = make_label(2, {})
        c = make_label(3, {})
        fs = FaultSet(vertex_labels=[a], edge_labels=[(b, c)])
        assert len(fs) == 2
        assert fs.forbidden_vertices() == {1}
        assert fs.forbidden_edges() == {(2, 3)}
        assert {lbl.vertex for lbl in fs.all_labels()} == {1, 2, 3}

    def test_build_sketch_rejects_endpoint_fault(self):
        s = make_label(0, {3: ({0: 0}, {}, {})})
        t = make_label(4, {3: ({4: 0}, {}, {})})
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            build_sketch_graph(s, t, FaultSet(vertex_labels=[s]))
