"""Tests for bit-exact label serialization."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EncodingError
from repro.graphs.generators import cycle_graph, grid_graph, random_tree
from repro.labeling import (
    FaultSet,
    ForbiddenSetLabeling,
    decode_distance,
    decode_label,
    encode_label,
    encoded_bit_length,
)
from repro.labeling.label import LevelLabel, VertexLabel
from repro.util.bitio import BitWriter


def roundtrip(label):
    restored = decode_label(encode_label(label))
    assert restored.vertex == label.vertex
    assert restored.c == label.c
    assert restored.top_level == label.top_level
    assert restored.levels.keys() == label.levels.keys()
    for i, lvl in label.levels.items():
        assert restored.levels[i].points == lvl.points
        assert restored.levels[i].edges == lvl.edges
        assert restored.levels[i].graph_edges == lvl.graph_edges
    return restored


class TestRoundtrip:
    def test_grid_labels(self):
        scheme = ForbiddenSetLabeling(grid_graph(6, 6), epsilon=1.0)
        for v in (0, 17, 35):
            roundtrip(scheme.label(v))

    def test_cycle_labels(self):
        scheme = ForbiddenSetLabeling(cycle_graph(32), epsilon=0.5)
        roundtrip(scheme.label(10))

    def test_epsilon_survives(self):
        scheme = ForbiddenSetLabeling(cycle_graph(16), epsilon=0.5)
        restored = decode_label(encode_label(scheme.label(0)))
        assert restored.epsilon == pytest.approx(0.5)

    def test_epsilon_is_rounded_to_float32_and_all_else_exact(self):
        """ε travels as f32: 0.1 comes back rounded, every other field exact."""
        scheme = ForbiddenSetLabeling(grid_graph(6, 6), epsilon=0.1)
        label = scheme.label(14)
        restored = roundtrip(label)
        assert restored.levels == label.levels
        assert restored.epsilon == struct.unpack(">f", struct.pack(">f", 0.1))[0]
        assert restored.epsilon != 0.1
        assert restored != label

    def test_empty_levels_label(self):
        label = VertexLabel(vertex=3, epsilon=1.0, c=2, top_level=5)
        roundtrip(label)

    def test_level_with_no_edges(self):
        label = VertexLabel(vertex=0, epsilon=1.0, c=2, top_level=5)
        label.levels[3] = LevelLabel(level=3, points={0: 0, 9: 4}, edges={})
        roundtrip(label)

    def test_edge_with_missing_endpoint_rejected(self):
        label = VertexLabel(vertex=0, epsilon=1.0, c=2, top_level=5)
        label.levels[3] = LevelLabel(
            level=3, points={0: 0}, edges={(0, 9): 4}
        )
        with pytest.raises(EncodingError):
            encode_label(label)

    def test_bit_length_matches_writer(self):
        scheme = ForbiddenSetLabeling(cycle_graph(16), epsilon=1.0)
        label = scheme.label(0)
        bits = encoded_bit_length(label)
        assert math.ceil(bits / 8) == len(encode_label(label))

    def test_truncated_stream_raises(self):
        scheme = ForbiddenSetLabeling(cycle_graph(16), epsilon=1.0)
        data = encode_label(scheme.label(0))
        with pytest.raises(EncodingError):
            decode_label(data[: len(data) // 4])


class TestDecoderFromBytes:
    """End-to-end: query answered from *serialized* labels only."""

    def test_query_through_bytes(self):
        g = grid_graph(7, 7)
        scheme = ForbiddenSetLabeling(g, epsilon=1.0)
        wire = lambda v: decode_label(encode_label(scheme.label(v)))
        faults = FaultSet(vertex_labels=[wire(24)])
        result = decode_distance(wire(0), wire(48), faults)
        from repro.baselines import ExactRecomputeOracle

        d_true = ExactRecomputeOracle(g).query(0, 48, vertex_faults=[24])
        assert d_true <= result.distance <= 2 * d_true


@settings(max_examples=10, deadline=None)
@given(st.integers(4, 40), st.integers(0, 10**6))
def test_roundtrip_property_random_trees(n, seed):
    g = random_tree(n, seed)
    scheme = ForbiddenSetLabeling(g, epsilon=1.0)
    roundtrip(scheme.label(seed % n))


def test_size_grows_with_content():
    small = VertexLabel(vertex=0, epsilon=1.0, c=2, top_level=5)
    big = VertexLabel(vertex=0, epsilon=1.0, c=2, top_level=5)
    big.levels[3] = LevelLabel(
        level=3, points={i: i for i in range(50)}, edges={}
    )
    assert encoded_bit_length(big) > encoded_bit_length(small)
